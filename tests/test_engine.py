import copy
import operator
import pickle
import random
from pathlib import Path

import pytest

from probrange import abstract, concrete
from probrange.cfg import CFG, Edge, GuardAction, build_cfg, collect_thresholds
from probrange.concrete import OracleBlowup
from probrange.engine import build_equations, solve
from probrange.hardware import HardwareSpec, SpecError
from probrange.cli import Rows
from probrange.record import Record
from probrange.syntax import (Assign, BinOp, Block, Cmp, Const, If,
                              LiteralRangeError, Program, Token, Var, While,
                              parse_program)

from helpers import (CORPUS, analyze, bounded_loop_program, check_soundness,
                     compile_flat_assign, compile_flat_guard, corpus_source,
                     flat_entry, flat_states, halves, join_states,
                     leq_states, line_map, loop_program, random_program)

TINY = HardwareSpec.uniform(0.99, minint=-8, maxint=8)
GOLDEN = Path(__file__).parent / "golden"


def recompute(system, states, node, mod, spec):
    """node's flat state from its sources' states in states, each incoming
    edge compiled afresh (mod's value transfer, then the engine's
    probability rule) and joined into bottom."""
    index = {v: i for i, v in enumerate(system.cfg.variables)}
    out = None
    for edge in system.preds[node]:
        action = edge.action
        if isinstance(action, Assign):
            compiled = compile_flat_assign(mod, action.target, action.value,
                                           index, spec, [])
        else:
            compiled = compile_flat_guard(mod, action.cond, index, spec, [])[
                action.op != action.cond.op]
        out = join_states(out, compiled(states[edge.src]))
    return out


# --- equation systems ---

def test_equations_fig1():
    cfg = build_cfg(parse_program(corpus_source("fig1.up")))
    system = build_equations(cfg)
    assert system.cfg.variables == ("x",)
    assert system.preds[0] == ()
    head = system.preds[1]
    assert {e.src for e in head} == {0, 2}
    assert all(isinstance(e.action, Assign) for e in head)
    assert len(system.preds[2]) == 1
    assert isinstance(system.preds[2][0].action, GuardAction)
    assert len(system.preds) == cfg.node_count


def test_equations_collatz():
    cfg = build_cfg(parse_program(corpus_source("collatz.up")))
    system = build_equations(cfg)
    head = system.preds[1]
    assert {e.src for e in head} == {0, 3, 4}
    assert all(isinstance(e.action, Assign) for e in head)
    branch = system.preds[2]
    assert [e.src for e in branch] == [1]
    assert isinstance(branch[0].action, GuardAction)


# --- tiny programs ---

def test_single_assignment_both_domains():
    cfg, conc = analyze("x =. 1;\n", TINY, domain="concrete")
    assert cfg.node_count == 2
    assert conc.converged and conc.iterations == 1
    assert conc.values[1] == (frozenset({1}),)
    assert conc.probs[1] == (TINY.rel("write"),)
    _, abst = analyze("x =. 1;\n", TINY, domain="abstract")
    assert abst.values[1] == ((1, 1),)
    assert abst.probs[1] == (TINY.rel("write"),)


def test_no_target_nodes():
    cfg = CFG([1], [], ("x",), (0,), frozenset())
    result = solve(build_equations(cfg), TINY, domain="abstract")
    assert result.converged and result.iterations == 0
    assert result.values[0] == ((-8, 8),) and result.probs[0] == (1.0,)


def test_entry_state_never_recomputed(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    (values,), (prob,) = result.values[0], result.probs[0]
    assert prob == 1.0
    assert len(values) == spec4.maxint - spec4.minint + 1


# --- pinned fixpoints ---

def test_fig1_concrete_pinned(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    assert result.converged and result.iterations == 5
    assert result.values[1][0] == frozenset({0, 3, 6, 9, 12})
    assert result.values[2][0] == frozenset({0, 3, 6, 9})
    assert result.values[3][0] == frozenset({12})


def test_fig1_abstract_pinned(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    assert result.converged and result.iterations == 5
    got = {n: result.values[n][0] for n in (1, 2, 3)}
    assert got == {1: (0, 12), 2: (0, 9), 3: (10, 12)}


def test_collatz_widened_pinned(spec7):
    cfg = build_cfg(parse_program(corpus_source("collatz.up")))
    thresholds = collect_thresholds(cfg, spec7.minint, spec7.maxint)
    result = solve(build_equations(cfg), spec7, domain="abstract",
                   widening=thresholds)
    assert result.converged and result.iterations == 4
    lines = line_map(cfg)
    assert result.values[lines[8]][0] == (1, 1)


# --- commit rule ---

def test_commit_keeps_probability_of_last_value_change(spec4):
    cfg, result = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    system = build_equations(cfg)
    states = flat_states(result.values, result.probs)
    (stored,) = states[2]
    (redo,) = recompute(system, states, 2, abstract, spec4)
    # the loop body's interval stopped changing one sweep before the head's
    # probability settled, so the stored probability is the earlier, larger one
    assert redo[:2] == stored[:2] == (0, 9)
    assert redo[2] < stored[2]


def test_program_without_variables_reaches_every_guard(spec4):
    # with no variables there is one state, so no node is ever bottom: the
    # guard after the unsatisfiable loop guard is still evaluated
    source = "while (1 >. 2) {\n}\nif (1 /. 0 <=. 2) {\n}\n"
    cfg = build_cfg(parse_program(source))
    for kwargs in ({"domain": "concrete"}, {"domain": "abstract"},
                   {"domain": "abstract", "widening": (-32768, 32767)}):
        result = solve(build_equations(cfg), spec4, **kwargs)
        assert result.converged and result.iterations == 0
        assert all(state == () for state in result.values + result.probs)
    concrete_run = solve(build_equations(cfg), spec4, domain="concrete")
    assert concrete_run.warnings == [
        "line 3: division by zero (offending operand tuple excluded)",
        "line 3: division by zero (constant guard unreachable)"]
    for widening in (None, (-32768, 32767)):
        abstract_run = solve(build_equations(cfg), spec4, domain="abstract",
                             widening=widening)
        assert abstract_run.warnings == [
            "line 3: divisor interval [0,0] contains zero; result widened "
            "to full range"]


def test_abstract_guard_warns_of_the_sides_it_does_not_refine(spec4):
    # no guard refines x: the first divides x by a literal 0, the others
    # divide by x, whose interval holds 0; each still warns, as the same
    # division does in an assignment
    for source, divisor in (("x =. 5;\nif (x /. 0 >. 0) {\n  x =. 1;\n}\n",
                             "[0,0]"),
                            ("x =. 0;\nif (x >. 5 /. x) {\n  x =. 1;\n}\n",
                             "[0,0]"),
                            ("void f(int x) {\n  while (x <. 5 /. x) {\n"
                             "    x =. 1;\n  }\n}\n", "[-32768,32767]")):
        _, result = analyze(source, spec4, domain="abstract")
        assert result.warnings == [
            f"line 2: divisor interval {divisor} contains zero; result "
            f"widened to full range"], source


def test_converged_run_is_a_value_fixpoint(spec4, spec7):
    # runs as (source, spec, domain, widened); a widened run's heads may
    # stay above what their incoming edges give, never below it
    runs = [
        (corpus_source("fig1.up"), spec4, "concrete", False),
        (corpus_source("fig1.up"), spec4, "abstract", False),
        (corpus_source("collatz.up"), spec7, "concrete", False),
        (corpus_source("collatz.up"), spec7, "abstract", False),
    ]
    rng = random.Random(1009)
    for _ in range(12):
        source = random_program(rng)
        runs += [(source, TINY, "concrete", False),
                 (source, TINY, "abstract", False)]
    runs += [(path.read_text(), spec4, "abstract", True)
             for path in sorted(CORPUS.glob("*.up"))]
    runs.append(((GOLDEN / "loops2.up").read_text(),
                 HardwareSpec.uniform(0.9999, minint=-64, maxint=63),
                 "concrete", False))
    runs += [((GOLDEN / f"{name}.up").read_text(), spec4, "abstract", widened)
             for name in ("loops4", "nested") for widened in (False, True)]
    for source, spec, name, widened in runs:
        cfg = build_cfg(parse_program(source))
        widening = (collect_thresholds(cfg, spec.minint, spec.maxint)
                    if widened else None)
        system = build_equations(cfg)
        result = solve(system, spec, domain=name, widening=widening)
        assert result.converged
        mod = abstract if name == "abstract" else concrete
        states = flat_states(result.values, result.probs)
        for node in range(cfg.node_count):
            if node == cfg.entry:
                continue
            redo = recompute(system, states, node, mod, spec)
            stored = states[node]
            if widened and node in cfg.heads:
                assert redo is None or stored is not None and all(
                    slo <= lo and hi <= shi
                    for (lo, hi, _), (slo, shi, _) in zip(redo, stored)), \
                    (node, source)
            else:
                assert halves(redo)[0] == result.values[node], \
                    (name, node, source)


def topological_order(cfg):
    indegree = [0] * cfg.node_count
    for edge in cfg.edges:
        indegree[edge.dst] += 1
    succs = cfg.succs()
    ready = [n for n in range(cfg.node_count) if indegree[n] == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for dst in succs[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    assert len(order) == cfg.node_count, "program has a loop"
    return order


def test_schedules_agree_on_loop_free_programs():
    # one pass in topological order reaches the least fixpoint of a loop-free
    # program; the round-robin solver, whose node order is not topological in
    # general, must land on the same values. Probabilities may differ: a join
    # node committed early on part of its inputs keeps that probability when
    # the later inputs leave its values unchanged.
    rng = random.Random(1009)
    for _ in range(12):
        source = random_program(rng)
        cfg = build_cfg(parse_program(source))
        system = build_equations(cfg)
        for name, mod in (("concrete", concrete), ("abstract", abstract)):
            rr = solve(system, TINY, domain=name)
            assert rr.converged, source
            states = {cfg.entry: flat_entry(mod, system.cfg.variables, TINY)}
            for node in topological_order(cfg):
                if node != cfg.entry:
                    states[node] = recompute(system, states, node, mod, TINY)
            for node in range(cfg.node_count):
                assert rr.values[node] == halves(states[node])[0], \
                    (name, node, source)


def test_committed_states_climb(spec4, spec7):
    _, conc = analyze(corpus_source("fig1.up"), spec4, domain="concrete",
                      keep_trace=True)
    assert len(conc.trace) == conc.iterations
    for before, after in zip(conc.trace, conc.trace[1:]):
        for old, new in zip(flat_states(*before), flat_states(*after)):
            assert leq_states(old, new)
    _, abst = analyze(corpus_source("collatz.up"), spec7, domain="abstract",
                      keep_trace=True)
    for before, after in zip(abst.trace, abst.trace[1:]):
        for old, new in zip(flat_states(*before), flat_states(*after)):
            assert leq_states(old, new)


# --- widening ---

def test_widening_accelerates_collatz(spec7):
    cfg = build_cfg(parse_program(corpus_source("collatz.up")))
    system = build_equations(cfg)
    thresholds = collect_thresholds(cfg, spec7.minint, spec7.maxint)
    plain = solve(system, spec7, domain="abstract")
    widened = solve(system, spec7, domain="abstract", widening=thresholds)
    assert plain.converged and widened.converged
    assert widened.iterations < plain.iterations
    # intervals only: the max-density widening rule can store a higher
    # probability than plain iteration, so the runs need not be ordered
    for node, state in enumerate(plain.values):
        for e, w in zip(state or (), widened.values[node]):
            assert w[0] <= e[0] and e[1] <= w[1]


def test_unwidened_counter_does_not_converge(spec4):
    _, result = analyze(corpus_source("counter.up"), spec4, domain="abstract")
    assert not result.converged
    assert result.iterations == 20


def test_widened_counter_converges(spec4):
    cfg = build_cfg(parse_program(corpus_source("counter.up")))
    thresholds = collect_thresholds(cfg, spec4.minint, spec4.maxint)
    result = solve(build_equations(cfg), spec4, domain="abstract",
                   widening=thresholds)
    assert result.converged


def test_values_do_not_depend_on_probabilities():
    # a loop head keeps its interval when the recomputation lies inside it,
    # whatever the densities, so no value, warning or iteration count reads
    # a probability
    programs = [(bounded_loop_program(random.Random(seed)), -8, 7, 500)
                for seed in range(400)]
    programs += [(path.read_text(), -32768, 32767, 20) for path in
                 sorted([*CORPUS.glob("*.up"), *GOLDEN.glob("*.up")])]
    differ = []
    for source, minint, maxint, max_iters in programs:
        cfg = build_cfg(parse_program(source))
        system = build_equations(cfg)
        for widening in (None, collect_thresholds(cfg, minint, maxint)):
            outcomes = set()
            for p in (1.0, 0.999, 0.9):
                spec = HardwareSpec.uniform(p, minint=minint, maxint=maxint)
                r = solve(system, spec, widening=widening, max_iters=max_iters)
                outcomes.add((tuple(r.values),
                              tuple(r.warnings), r.iterations, r.converged))
            if len(outcomes) > 1:
                differ.append((source, widening is not None))
    assert not differ, differ[:3]


# --- traces ---

def test_trace_has_one_snapshot_per_committing_pass(spec4):
    # also when the budget runs out: the last snapshot is the reported state
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="concrete",
                        max_iters=2, keep_trace=True)
    assert not result.converged
    assert len(result.trace) == result.iterations == 2
    assert result.trace[-1] == (result.values, result.probs)


def test_round_robin_trace_matches_final_state(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="abstract",
                        keep_trace=True)
    assert result.trace[-1] == (result.values, result.probs)
    _, bare = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    assert bare.trace is None


# --- work done ---

def count_calls(monkeypatch, mod, *names) -> dict[str, int]:
    """Count the solver's calls of each named function of mod."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, real=getattr(mod, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(mod, name, counted)
    return calls


def solve_golden(spec, program: str, domain: str, bounds,
                 keep_trace: bool = False):
    """Solve a golden program to convergence, widened in abstract mode."""
    if bounds is not None:
        spec = spec.replace(minint=bounds[0], maxint=bounds[1])
    cfg = build_cfg(parse_program((GOLDEN / program).read_text()))
    widening = None
    if domain == "abstract":
        widening = collect_thresholds(cfg, spec.minint, spec.maxint)
    return solve(build_equations(cfg), spec, domain=domain,
                 widening=widening, max_iters=2000, keep_trace=keep_trace)


def scheduled_recomputes(cfg, result) -> list[int]:
    """The nodes the solver recomputes, in order, told from the passes'
    trace: each pass visits cfg.order and recomputes a node none of whose
    sources committed since its last recomputation, every node in the first
    pass; a node commits in a pass exactly when its values there differ
    from the pass before."""
    snapshots = [values for values, _ in result.trace]
    states = [[None if cfg.variables else ()] * cfg.node_count, *snapshots,
              snapshots[-1] if snapshots else None]
    succs = cfg.succs()
    dirty = set(range(cfg.node_count))
    done = []
    for before, after in zip(states, states[1:]):
        for node in cfg.order:
            if node == cfg.entry or node not in dirty:
                continue
            dirty.discard(node)
            done.append(node)
            if after is not None and after[node] != before[node]:
                dirty.update(succs[node])
    return done


WORK = pytest.mark.parametrize("program, domain, bounds, passes, transfers", [
    ("loops4.up", "abstract", None, 15, 492),
    ("loops2.up", "concrete", (-64, 63), 7, 204),
], ids=["loops4-abstract", "loops2-concrete"])


@WORK
def test_round_robin_recomputes_only_changed_sources(
        monkeypatch, spec4, program, domain, bounds, passes, transfers):
    # passes in a weak topological order carry a change through a whole
    # loop body, where id order took 99 and 43 passes (514 and 226
    # transfers); a pass skips every node none of whose sources committed
    # since its last visit
    mod = abstract if domain == "abstract" else concrete
    calls = count_calls(monkeypatch, mod, "sp_assign", "sp_guard")
    result = solve_golden(spec4, program, domain, bounds)
    assert result.converged and result.iterations == passes
    assert calls["sp_assign"] + calls["sp_guard"] == transfers


@WORK
def test_a_recomputation_joins_only_its_later_edges(
        monkeypatch, spec4, program, domain, bounds, passes, transfers):
    # the first incoming edge's transfer starts a node's state, and each
    # later one is joined into it: a recomputation over k edges makes k
    # transfers and k - 1 joins, and only the recomputations the schedule
    # calls for are made
    mod = abstract if domain == "abstract" else concrete
    calls = count_calls(monkeypatch, mod, "sp_assign", "join_states")
    result = solve_golden(spec4, program, domain, bounds, keep_trace=True)
    assert result.converged and result.iterations == passes
    cfg = build_cfg(parse_program((GOLDEN / program).read_text()))
    preds = cfg.preds()
    recomputes = scheduled_recomputes(cfg, result)
    assert calls["sp_assign"] == transfers == sum(
        len(preds[node]) for node in recomputes)
    assert calls["join_states"] == transfers - len(recomputes)


@pytest.mark.parametrize("domain, bounds", [("abstract", None),
                                           ("concrete", (-16, 15))])
def test_a_solve_compiles_each_guard_once(monkeypatch, spec4, domain, bounds):
    # both edges of a guard hold the same Cmp and take their transfers from
    # one compile
    mod = abstract if domain == "abstract" else concrete
    compile_guard, compiled = mod.compile_guard, []

    def counted(guard, *args):
        compiled.append(guard)
        return compile_guard(guard, *args)

    monkeypatch.setattr(mod, "compile_guard", counted)
    result = solve_golden(spec4, "loops4.up", domain, bounds)
    assert result.converged
    cfg = build_cfg(parse_program((GOLDEN / "loops4.up").read_text()))
    guards = [e.action.cond for e in cfg.edges
              if isinstance(e.action, GuardAction)]
    assert len(guards) == 2 * len(compiled) == 56
    assert len(set(map(id, compiled))) == len(compiled)
    assert sorted(g.line for g in compiled) == sorted({g.line for g in guards})


# --- exhaustion and validation ---

def test_max_iters_exhaustion(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="concrete",
                        max_iters=2)
    assert not result.converged
    assert result.iterations == 2


def test_argument_validation(spec4):
    cfg = build_cfg(parse_program("x =. 1;\n"))
    system = build_equations(cfg)
    with pytest.raises(ValueError):
        solve(system, spec4, domain="fuzzy")
    with pytest.raises(ValueError):
        solve(system, spec4, max_iters=0)
    with pytest.raises(ValueError):
        solve(system, spec4, domain="concrete", widening=(0, 1))
    # thresholds that do not bracket the machine range leave widening at a
    # loop head with no threshold to land on
    fig1 = build_equations(build_cfg(parse_program(corpus_source("fig1.up"))))
    for thresholds in ((0, 5), ()):
        with pytest.raises(ValueError, match="must contain -32768 and 32767"):
            solve(fig1, spec4, widening=thresholds)
    # widening bisects the thresholds, so they must also be in order
    with pytest.raises(ValueError, match="in increasing order"):
        solve(fig1, spec4, widening=(-32768, 9, 0, 32767))


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 1, 1, 2, 3), (0, 2, 3),
                                   (0, 1, 2, 3, 4)])
def test_order_must_list_every_node_once(spec4, order):
    # a node left out of the order would never be recomputed and print bottom
    cfg = build_cfg(parse_program(corpus_source("fig1.up")))
    assert cfg.order == (0, 1, 2, 3)
    system = build_equations(cfg.replace(order=order))
    with pytest.raises(ValueError, match="every node exactly once"):
        solve(system, spec4)


def test_literal_outside_machine_range_rejected():
    # the guard reaches its edge as `x <=. 99`; the message names the source
    # literal, as the CLI's does
    for source in ("y =. 1;\nx =. 100;\n",
                   "y =. 1;\nwhile (x <. 100) {\n  x =. x +. 1;\n}\n"):
        cfg = build_cfg(parse_program(source))
        for domain in ("concrete", "abstract"):
            with pytest.raises(LiteralRangeError,
                               match=r"^line 2: literal 100 outside \[-8,8\]$"):
                solve(build_equations(cfg), TINY, domain=domain)


def test_less_equal_below_minint_guard_rejected():
    # only a rewritten `<.` may put minint-1 on an edge; `x <=. -9` as
    # written is out of range
    cfg = build_cfg(parse_program("x =. 0;\nwhile (x <=. -9) {\n  x =. x +. 1;\n}\n"))
    with pytest.raises(LiteralRangeError,
                       match=r"^line 2: literal -9 outside \[-8,8\]$"):
        solve(build_equations(cfg), TINY, domain="abstract")


def test_less_than_minint_guard_solves():
    # `x <. -8` reaches the edge as `x <=. -9`, which is still a valid program
    cfg = build_cfg(parse_program("x =. 0;\nwhile (x <. -8) {\n  x =. x +. 1;\n}\n"))
    conc = solve(build_equations(cfg), TINY, domain="concrete")
    abst = solve(build_equations(cfg), TINY, domain="abstract")
    assert conc.converged and abst.converged
    exit_node = cfg.node_count - 1
    assert conc.values[exit_node][0] == frozenset({0})
    assert abst.values[exit_node][0] == (0, 0)


def test_tuple_cap_propagates(monkeypatch):
    monkeypatch.setattr(concrete, "TUPLE_CAP", 10)
    cfg = build_cfg(parse_program("x =. x +. y;\n"))
    with pytest.raises(OracleBlowup):
        solve(build_equations(cfg), TINY, domain="concrete")


@pytest.mark.parametrize("cap", [10, 15, 16])
def test_tuple_cap_bounds_the_entry_range(monkeypatch, cap):
    # [-8,7] holds 16 values; the check comes before any set is built, so a
    # 64-bit machine range raises instead of allocating until it is killed
    monkeypatch.setattr(concrete, "TUPLE_CAP", cap)
    spec = HardwareSpec.uniform(0.99, minint=-8, maxint=7)
    system = build_equations(build_cfg(parse_program("x =. 1;\n")))
    if cap < 16:
        with pytest.raises(OracleBlowup, match=r"range \[-8,7\] holds more "
                           f"than {cap} values"):
            solve(system, spec, domain="concrete")
    else:
        assert solve(system, spec, domain="concrete").converged


# --- cross-domain soundness ---

def test_check_soundness_accepts_corpus(spec4):
    cfg, conc = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    _, abst = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    assert check_soundness(conc, abst, cfg.variables) == []


FOLD_THEN = "x =. 7;\ny =. 0;\nif (x >=. 5 +. 5) {\n  y =. 1;\n}\n"
FOLD_ELSE = "y =. 0;\nif (5 +. 5 >. 7) {\n  y =. 1;\n} else {\n  y =. 2;\n}\n"


@pytest.mark.parametrize("source, line", [(FOLD_THEN, 3), (FOLD_ELSE, 2)],
                         ids=["then-branch", "else-branch"])
def test_constant_guard_side_folds_as_the_machine_computes(source, line):
    # 5 +. 5 saturates to 7 on [-8,7]: x >=. 7 holds and 7 >. 7 fails, so
    # the abstract run must reach the branch the concrete run takes
    spec = HardwareSpec.uniform(0.9999, minint=-8, maxint=7)
    cfg, conc = analyze(source, spec, domain="concrete")
    _, abst = analyze(source, spec, domain="abstract")
    assert check_soundness(conc, abst, cfg.variables) == []
    assert abst.warnings == [
        f"line {line}: interval arithmetic overflow clamped to [-8,7]"]


@pytest.mark.parametrize("domain", ["abstract", "concrete"])
@pytest.mark.parametrize("source, op, taken", [
    ("x =. 0;\nif (x >. 3) {\n  y =. 1;\n} else {\n  y =. 2;\n}\n", "gt", 5),
    ("x =. 0;\nif (x <. 3) {\n  y =. 1;\n}\n", "lt", 3),
], ids=["false-edge-of-gt", "true-edge-of-lt"])
def test_guard_edge_charges_the_written_comparison(domain, source, op, taken):
    # only the written comparison is unreliable, a misfire being a fair coin:
    # the edge taken is charged 0.5 + 0.5 / 2, whichever way it was rewritten
    spec = HardwareSpec({op: 0.5}, -8, 7)
    cfg, result = analyze(source, spec, domain=domain)
    x = cfg.variables.index("x")
    assert result.probs[line_map(cfg)[taken]][x] == 0.75


def test_check_soundness_flags_tampering(spec4):
    cfg, conc = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    _, abst = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    abst.values[1] = ((0, 5),)
    violations = check_soundness(conc, abst, cfg.variables)
    assert violations
    assert any("node 1" in v and "x" in v for v in violations)


# --- flat states ---

def flat_state_violations(state, width: int, spec, domain: str) -> list:
    """What is wrong with one flat state of a solve: None, or a tuple of
    width triples with minint <= lo <= hi <= maxint, or of width pairs with
    a non-empty set inside [minint, maxint]; every probability in [0, 1]."""
    if state is None:
        return []
    if not isinstance(state, tuple) or len(state) != width:
        return [state]
    bad = []
    for element in state:
        if domain == "abstract":
            lo, hi, p = element
            ok = spec.minint <= lo <= hi <= spec.maxint
        else:
            values, p = element
            ok = (isinstance(values, frozenset) and bool(values)
                  and spec.minint <= min(values) <= max(values) <= spec.maxint)
        if not (ok and 0.0 <= p <= 1.0):
            bad.append(element)
    return bad


def test_every_state_and_snapshot_is_well_formed(spec4):
    # a library caller reads states as the solver holds them, with nothing
    # validating them on the way out: every state and trace snapshot of the
    # corpus, the loop goldens and generated loop programs, in each domain
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.up"))]
    sources += [(GOLDEN / name).read_text()
                for name in ("loops4.up", "loops2.up")]
    rng = random.Random(7)
    sources += [loop_program(rng) for _ in range(20)]
    small = spec4.replace(minint=-64, maxint=63)
    modes = [(spec, "abstract", widen) for spec in (spec4, small)
             for widen in (False, True)] + [(small, "concrete", False)]
    checked = [0] * len(modes)
    violations = []
    for source in sources:
        cfg = build_cfg(parse_program(source))
        for i, (spec, domain, widen) in enumerate(modes):
            widening = (collect_thresholds(cfg, spec.minint, spec.maxint)
                        if widen else None)
            try:
                result = solve(build_equations(cfg), spec, domain=domain,
                               widening=widening, keep_trace=True)
            except LiteralRangeError:
                continue
            for values, probs in ((result.values, result.probs),
                                  *result.trace):
                assert len(values) == len(probs) == cfg.node_count
                for state in flat_states(values, probs):
                    violations += flat_state_violations(
                        state, len(cfg.variables), spec, domain)
                    checked[i] += len(state or ())
    assert not violations, violations[:5]
    assert all(checked), checked


def value_violations(states: list, domain: str) -> list:
    """What in a domain's states is not a value: a state is None, or a
    tuple of frozensets of ints (concrete) or of (lo, hi) int pairs
    (abstract). Each distinct set object is checked once."""
    bad, sets = [], {}
    for state in states:
        if state is None:
            continue
        if not isinstance(state, tuple):
            bad.append(state)
            continue
        for cell in state:
            if domain == "concrete":
                if type(cell) is not frozenset:
                    bad.append(cell)
                elif id(cell) not in sets:
                    sets[id(cell)] = cell
                    if not all(type(v) is int for v in cell):
                        bad.append(cell)
            elif not (type(cell) is tuple and len(cell) == 2
                      and all(type(v) is int for v in cell)):
                bad.append(cell)
    return bad


def result_violations(result, cfg, domain: str) -> list:
    """What in a solve's result does not hold its two halves: the result's
    and each trace entry's (values, probs) pair of lists, each node_count
    long. A value state is as value_violations asks; a probability state is
    None exactly where the value state is, else a tuple of one float in
    [0, 1] per variable."""
    bad = []
    for entry in ((result.values, result.probs), *result.trace):
        if not (type(entry) is tuple and len(entry) == 2 and all(
                type(half) is list and len(half) == cfg.node_count
                for half in entry)):
            bad.append(entry)
            continue
        bad += value_violations(entry[0], domain)
        for values, probs in zip(*entry):
            if (probs is None) != (values is None) or probs is not None and not (
                    type(probs) is tuple
                    and len(values) == len(probs) == len(cfg.variables)
                    and all(type(p) is float and 0.0 <= p <= 1.0
                            for p in probs)):
                bad.append((values, probs))
    return bad


@pytest.mark.parametrize("domain, modes", [
    ("abstract", [(None, False), (None, True)]),
    ("concrete", [((-64, 63), False), ((-8, 8), False), (None, False)])])
def test_domain_states_hold_values_only(monkeypatch, spec4, domain, modes):
    # the domains compute values only, and the engine charges every
    # probability: the entry state, each compiled transfer's result, each
    # join and each widening hold no float, and each solve returns the two
    # halves apart, in its result and its trace. Every corpus and golden
    # program is solved in each domain: abstract with and without widening,
    # concrete on the first range that holds its literals and keeps its
    # products under the cap
    mod = abstract if domain == "abstract" else concrete
    returned = []
    for module, name in ((mod, "entry_state"), (mod, "sp_assign"),
                         (mod, "join_states"), (abstract, "widen_states")):
        def recorded(*args, real=getattr(module, name)):
            returned.append(real(*args))
            return returned[-1]
        monkeypatch.setattr(module, name, recorded)
    programs = sorted([*CORPUS.glob("*.up"), *GOLDEN.glob("*.up")])
    solved, results = set(), []
    for path in programs:
        cfg = build_cfg(parse_program(path.read_text()))
        for bounds, widen in modes:
            spec = spec4 if bounds is None else spec4.replace(
                minint=bounds[0], maxint=bounds[1])
            widening = (collect_thresholds(cfg, spec.minint, spec.maxint)
                        if widen else None)
            try:
                results.append((solve(build_equations(cfg), spec,
                                      domain=domain, widening=widening,
                                      max_iters=12, keep_trace=True), cfg))
            except (LiteralRangeError, OracleBlowup):
                continue
            solved.add(path)
            if domain == "concrete":
                break
    assert solved == set(programs) and len(returned) > 1000
    bad = value_violations(returned, domain)
    for result, cfg in results:
        bad += result_violations(result, cfg, domain)
    assert not bad, bad[:5]


@pytest.mark.parametrize("program, bounds", [
    ("corpus/fig1.up", None), ("corpus/collatz.up", (-64, 63)),
    ("golden/loops2.up", (-64, 63))])
def test_commit_compares_sets_by_value(monkeypatch, spec4, program, bounds):
    # with a cell join that builds a new union even when one side holds it,
    # an equal set is a new object on every recomputation; the commit rule
    # tells it unchanged by its values, so the solve takes the same passes
    # to the same states (join_states binds its cell join when it is built,
    # so the patch replaces join_states)
    spec = spec4 if bounds is None else spec4.replace(minint=bounds[0],
                                                      maxint=bounds[1])
    source = (Path(__file__).parent / program).read_text()
    _, shared = analyze(source, spec, domain="concrete", max_iters=2000)
    fresh_join, _ = concrete.state_operations(operator.or_, operator.le)
    monkeypatch.setattr(concrete, "join_states", fresh_join)
    _, fresh = analyze(source, spec, domain="concrete", max_iters=2000)
    assert fresh.converged and fresh.iterations == shared.iterations
    assert fresh.values == shared.values and fresh.probs == shared.probs


def test_readme_library_block_runs(capsys):
    # the README's "Library use" block, run on fig1: one line per node, each
    # a source line and its variables' intervals and probabilities
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    block = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    exec(block, {"source": corpus_source("fig1.up")})
    lines = capsys.readouterr().out.splitlines()
    cfg = build_cfg(parse_program(corpus_source("fig1.up")))
    assert len(lines) == cfg.node_count
    assert lines[0] == "1 {'x': ((-64, 63), 1.0)}"
    assert [line.split()[0] for line in lines] == list(map(str, cfg.lines))


# --- record contract ---

FIG1_CFG = build_cfg(parse_program(corpus_source("fig1.up")))
FIG1_RESULT = solve(build_equations(FIG1_CFG), HardwareSpec.uniform(0.9999))


@pytest.mark.parametrize("record, field", [
    (Token("num", "1", 1, 1), "kind"),
    (Const(1, 2), "line"),
    (Cmp("lt", Var("x"), Const(1)), "op"),
    (Edge(0, 1, Assign("x", Const(1))), "dst"),
    (GuardAction(Cmp("lt", Var("x"), Const(1)), "ge"), "cond"),
    (BinOp("add", Var("x"), Const(1)), "lhs"),
    (Assign("x", Const(1)), "target"),
    (TINY, "minint"),
    (build_equations(FIG1_CFG), "cfg"),
])
def test_frozen_record_fields_cannot_change(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 0


def record_classes(cls=Record) -> set:
    """Every record class with fields, cls's subclasses searched through."""
    found = set()
    for sub in cls.__subclasses__():
        found |= record_classes(sub) | ({sub} if sub._fields else set())
    return found


RECORDS = [Token("num", "1", 1, 1), Const(1, 2), Var("x", 3),
           BinOp("add", Var("x"), Const(1), 4), Cmp("lt", Var("x"), Const(1)),
           Assign("x", Const(1), 5), Block((), 6),
           While(Cmp("lt", Var("x"), Const(1)), Block(()), 7),
           If(Cmp("lt", Var("x"), Const(1)), Block(()), None, 8),
           Program("f", ("x",), Block(())), FIG1_CFG, FIG1_CFG.edges[0],
           GuardAction(Cmp("lt", Var("x"), Const(1)), "ge"),
           build_equations(FIG1_CFG), FIG1_RESULT, TINY,
           Rows((1,), ("x",), [None], [None], True)]


def test_a_record_is_the_tuple_of_its_fields():
    # tokenize builds a Token as the plain tuple of its fields in order, and
    # a copy is built from the fields as a new record is
    assert {type(r) for r in RECORDS} == record_classes()
    for record in RECORDS:
        assert tuple(record) == tuple(getattr(record, name)
                                      for name in record._fields)
        assert len(record) == len(record._fields)
        for copied in (copy.copy(record), copy.deepcopy(record),
                       pickle.loads(pickle.dumps(record))):
            assert type(copied) is type(record)
            assert tuple(copied) == tuple(record)


@pytest.mark.parametrize("record, field", [
    (FIG1_CFG, "entry"),
    (FIG1_RESULT, "iterations"),
])
def test_records_holding_lists_are_unhashable(record, field):
    # immutable like every record, but a list field makes hash() fail
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 8)
    changed = record.replace(**{field: 7})
    assert getattr(changed, field) == 7 and getattr(record, field) != 7


# replace validates a copy as construction does: HardwareSpec has more
# cases in test_hardware
@pytest.mark.parametrize("make, error", [
    (lambda: HardwareSpec.uniform(0.9).replace(minint=5), SpecError),
    (lambda: TINY.replace(maxint=-9), SpecError),
    (lambda: TINY.replace(probs={"add": -0.5}), SpecError),
    (lambda: Const(1).replace(name="x"), TypeError),
    (lambda: Assign("x"), TypeError),
    (lambda: Edge(0, 1, None, 2), TypeError),
])
def test_replace_and_construction_check_fields(make, error):
    with pytest.raises(error):
        make()
