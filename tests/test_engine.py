import random
from pathlib import Path

import pytest

import probrange.abstract
import probrange.concrete
from probrange.abstract import ValueRange
from probrange.cfg import (CFG, AssignAction, Edge, GuardAction, build_cfg,
                           collect_thresholds)
from probrange.concrete import OracleBlowup, ValueSet
from probrange.engine import build_equations, solve
from probrange.hardware import HardwareSpec
from probrange.syntax import (Cmp, Const, LiteralRangeError, Token, Var,
                              parse_program)

from helpers import (ABSTRACT, CONCRETE, analyze, check_soundness,
                     corpus_source, line_map, random_program, set_of)

# the domains over dict states, which is how SolveResult reports them
abstract, concrete = ABSTRACT, CONCRETE

TINY = HardwareSpec.uniform(0.99, minint=-8, maxint=8)
GOLDEN = Path(__file__).parent / "golden"


def transfer(mod, state, action, spec):
    if isinstance(action, AssignAction):
        return mod.sp_assign(state, action.target, action.value, spec, [])
    return mod.sp_guard(state, action.cond, spec, [])


def recompute(system, states, node, mod, spec):
    out = mod.bottom_state(system.variables)
    for edge in system.preds[node]:
        out = mod.join_states(out, transfer(mod, states[edge.src],
                                            edge.action, spec))
    return out


# --- equation systems ---

def test_equations_fig1():
    cfg = build_cfg(parse_program(corpus_source("fig1.up")))
    system = build_equations(cfg)
    assert system.variables == ("x",)
    assert system.preds[0] == ()
    head = system.preds[1]
    assert {e.src for e in head} == {0, 2}
    assert all(isinstance(e.action, AssignAction) for e in head)
    assert len(system.preds[2]) == 1
    assert isinstance(system.preds[2][0].action, GuardAction)
    assert len(system.preds) == cfg.node_count


def test_equations_collatz():
    cfg = build_cfg(parse_program(corpus_source("collatz.up")))
    system = build_equations(cfg)
    head = system.preds[1]
    assert {e.src for e in head} == {0, 3, 4}
    assert all(isinstance(e.action, AssignAction) for e in head)
    branch = system.preds[2]
    assert [e.src for e in branch] == [1]
    assert isinstance(branch[0].action, GuardAction)


# --- tiny programs ---

def test_single_assignment_both_domains():
    cfg, conc = analyze("x =. 1;\n", TINY, domain="concrete")
    assert cfg.node_count == 2
    assert conc.converged and conc.iterations == 1
    assert conc.states[1]["x"] == ValueSet(frozenset({1}), TINY.rel("write"))
    _, abst = analyze("x =. 1;\n", TINY, domain="abstract")
    assert abst.states[1]["x"] == ValueRange(1, 1, TINY.rel("write"))


def test_no_target_nodes():
    cfg = CFG([1], [], ("x",))
    result = solve(build_equations(cfg), TINY, domain="abstract")
    assert result.converged and result.iterations == 0
    assert result.states[0]["x"] == ValueRange(-8, 8, 1.0)


def test_entry_state_never_recomputed(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    entry = result.states[0]["x"]
    assert entry.prob == 1.0
    assert len(entry.values) == spec4.maxint - spec4.minint + 1


# --- pinned fixpoints ---

def test_fig1_concrete_pinned(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    assert result.converged and result.iterations == 5
    assert result.states[1]["x"].values == frozenset({0, 3, 6, 9, 12})
    assert result.states[2]["x"].values == frozenset({0, 3, 6, 9})
    assert result.states[3]["x"].values == frozenset({12})


def test_fig1_abstract_pinned(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    assert result.converged and result.iterations == 5
    got = {n: (e.lo, e.hi) for n, e in
           ((n, result.states[n]["x"]) for n in (1, 2, 3))}
    assert got == {1: (0, 12), 2: (0, 9), 3: (10, 12)}


def test_collatz_widened_pinned(spec7):
    cfg = build_cfg(parse_program(corpus_source("collatz.up")))
    thresholds = collect_thresholds(cfg, spec7.minint, spec7.maxint)
    result = solve(build_equations(cfg), spec7, domain="abstract",
                   widening=thresholds)
    assert result.converged and result.iterations == 4
    lines = line_map(cfg)
    exit_elem = result.states[lines[8]]["x"]
    assert (exit_elem.lo, exit_elem.hi) == (1, 1)


# --- commit rule ---

def test_commit_keeps_probability_of_last_value_change(spec4):
    cfg, result = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    system = build_equations(cfg)
    stored = result.states[2]["x"]
    redo = recompute(system, result.states, 2, abstract, spec4)["x"]
    # the loop body's interval stopped changing one sweep before the head's
    # probability settled, so the stored probability is the earlier, larger one
    assert (redo.lo, redo.hi) == (stored.lo, stored.hi) == (0, 9)
    assert redo.prob < stored.prob


def test_program_without_variables_reaches_every_guard(spec4):
    # with no variables there is one state, so no node is ever bottom: the
    # guard after the unsatisfiable loop guard is still evaluated
    source = "while (1 >. 2) {\n}\nif (1 /. 0 <=. 2) {\n}\n"
    cfg = build_cfg(parse_program(source))
    for kwargs in ({"domain": "concrete"}, {"domain": "abstract"},
                   {"domain": "abstract", "widening": (-32768, 32767)}):
        result = solve(build_equations(cfg), spec4, **kwargs)
        assert result.converged and result.iterations == 0
        assert all(state == {} for state in result.states.values())
    concrete_run = solve(build_equations(cfg), spec4, domain="concrete")
    assert concrete_run.warnings == [
        "line 3: division by zero (offending operand tuple excluded)",
        "line 3: division by zero (constant guard unreachable)"]


def test_converged_run_is_a_value_fixpoint(spec4, spec7):
    runs = [
        (corpus_source("fig1.up"), spec4, "concrete", concrete),
        (corpus_source("fig1.up"), spec4, "abstract", abstract),
        (corpus_source("collatz.up"), spec7, "concrete", concrete),
        (corpus_source("collatz.up"), spec7, "abstract", abstract),
    ]
    rng = random.Random(1009)
    for _ in range(12):
        source = random_program(rng)
        runs += [(source, TINY, "concrete", concrete),
                 (source, TINY, "abstract", abstract)]
    for source, spec, name, mod in runs:
        cfg, result = analyze(source, spec, domain=name)
        assert result.converged
        system = build_equations(cfg)
        for node in range(cfg.node_count):
            if node == cfg.entry:
                continue
            redo = recompute(system, result.states, node, mod, spec)
            assert mod.value_part(redo) == mod.value_part(result.states[node]), \
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
            states = {cfg.entry: mod.entry_state(system.variables, TINY)}
            for node in topological_order(cfg):
                if node != cfg.entry:
                    states[node] = recompute(system, states, node, mod, TINY)
            for node in range(cfg.node_count):
                assert mod.value_part(rr.states[node]) == \
                    mod.value_part(states[node]), (name, node, source)


def test_committed_states_climb(spec4, spec7):
    _, conc = analyze(corpus_source("fig1.up"), spec4, domain="concrete",
                      keep_trace=True)
    assert len(conc.trace) == conc.iterations
    for before, after in zip(conc.trace, conc.trace[1:]):
        for node in before:
            assert concrete.leq_states(before[node], after[node])
    _, abst = analyze(corpus_source("collatz.up"), spec7, domain="abstract",
                      keep_trace=True)
    for before, after in zip(abst.trace, abst.trace[1:]):
        for node in before:
            assert abstract.leq_states(before[node], after[node])


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
    for node in range(cfg.node_count):
        for v, e in plain.states[node].items():
            w = widened.states[node][v]
            assert e.is_bottom or (w.lo <= e.lo and e.hi <= w.hi)


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


# --- traces ---

def test_trace_has_one_snapshot_per_committing_pass(spec4):
    # also when the budget runs out: the last snapshot is the reported state
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="concrete",
                        max_iters=2, keep_trace=True)
    assert not result.converged
    assert len(result.trace) == result.iterations == 2
    assert result.trace[-1] == result.states


def test_round_robin_trace_matches_final_state(spec4):
    _, result = analyze(corpus_source("fig1.up"), spec4, domain="abstract",
                        keep_trace=True)
    assert result.trace[-1] == result.states
    _, bare = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    assert bare.trace is None


# --- work done ---

def count_transfers(monkeypatch, mod) -> list[int]:
    """Count the solver's calls of mod.sp_assign and mod.sp_guard."""
    calls = [0]
    for name in ("sp_assign", "sp_guard"):
        def counted(*args, real=getattr(mod, name)):
            calls[0] += 1
            return real(*args)
        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("program, domain, bounds, passes, transfers", [
    ("loops4.up", "abstract", None, 15, 492),
    ("loops2.up", "concrete", (-64, 63), 7, 204),
], ids=["loops4-abstract", "loops2-concrete"])
def test_round_robin_recomputes_only_changed_sources(
        monkeypatch, spec4, program, domain, bounds, passes, transfers):
    # passes in a weak topological order carry a change through a whole
    # loop body, where id order took 99 and 43 passes (514 and 226
    # transfers); a pass skips every node none of whose sources committed
    # since its last visit
    spec = spec4
    if bounds is not None:
        spec = spec4.replace(minint=bounds[0], maxint=bounds[1])
    cfg = build_cfg(parse_program((GOLDEN / program).read_text()))
    widening = None
    if domain == "abstract":
        widening = collect_thresholds(cfg, spec.minint, spec.maxint)
    mod = probrange.abstract if domain == "abstract" else probrange.concrete
    calls = count_transfers(monkeypatch, mod)
    result = solve(build_equations(cfg), spec, domain=domain,
                   widening=widening, max_iters=2000)
    assert result.converged and result.iterations == passes
    assert calls[0] == transfers


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
    assert conc.states[exit_node]["x"].values == frozenset({0})
    exit_elem = abst.states[exit_node]["x"]
    assert (exit_elem.lo, exit_elem.hi) == (0, 0)


def test_tuple_cap_propagates(monkeypatch):
    monkeypatch.setattr(probrange.concrete, "TUPLE_CAP", 10)
    cfg = build_cfg(parse_program("x =. x +. y;\n"))
    with pytest.raises(OracleBlowup):
        solve(build_equations(cfg), TINY, domain="concrete")


# --- cross-domain soundness ---

def test_check_soundness_accepts_corpus(spec4):
    _, conc = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    _, abst = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    assert check_soundness(conc, abst) == []


FOLD_THEN = "x =. 7;\ny =. 0;\nif (x >=. 5 +. 5) {\n  y =. 1;\n}\n"
FOLD_ELSE = "y =. 0;\nif (5 +. 5 >. 7) {\n  y =. 1;\n} else {\n  y =. 2;\n}\n"


@pytest.mark.parametrize("source, line", [(FOLD_THEN, 3), (FOLD_ELSE, 2)],
                         ids=["then-branch", "else-branch"])
def test_constant_guard_side_folds_as_the_machine_computes(source, line):
    # 5 +. 5 saturates to 7 on [-8,7]: x >=. 7 holds and 7 >. 7 fails, so
    # the abstract run must reach the branch the concrete run takes
    spec = HardwareSpec.uniform(0.9999, minint=-8, maxint=7)
    _, conc = analyze(source, spec, domain="concrete")
    _, abst = analyze(source, spec, domain="abstract")
    assert check_soundness(conc, abst) == []
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
    assert result.states[line_map(cfg)[taken]]["x"].prob == 0.75


def test_check_soundness_flags_tampering(spec4):
    _, conc = analyze(corpus_source("fig1.up"), spec4, domain="concrete")
    _, abst = analyze(corpus_source("fig1.up"), spec4, domain="abstract")
    abst.states[1]["x"] = ValueRange(0, 5, 1.0)
    violations = check_soundness(conc, abst)
    assert violations
    assert any("node 1" in v and "x" in v for v in violations)


# --- record contract ---

FIG1_CFG = build_cfg(parse_program(corpus_source("fig1.up")))
FIG1_RESULT = solve(build_equations(FIG1_CFG), HardwareSpec.uniform(0.9999))


@pytest.mark.parametrize("record, field", [
    (Token("int", "1", 1, 1), "kind"),
    (Const(1, 2), "line"),
    (Cmp("lt", Var("x"), Const(1)), "op"),
    (Edge(0, 1, AssignAction("x", Const(1))), "dst"),
    (GuardAction(Cmp("lt", Var("x"), Const(1))), "cond"),
    (ValueRange(0, 1, 0.5), "lo"),
    (set_of(1, 2), "prob"),
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


@pytest.mark.parametrize("record, field", [
    (FIG1_CFG, "entry"),
    (FIG1_RESULT, "iterations"),
])
def test_mutable_records_are_unhashable(record, field):
    with pytest.raises(TypeError):
        hash(record)
    changed = record.replace(**{field: 7})
    setattr(changed, field, 8)
    assert getattr(changed, field) == 8 and getattr(record, field) != 8


# ValueRange(3, 1, 0.5) itself is test_abstract's canonical-bottom case, and
# HardwareSpec.replace has its own cases in test_hardware
@pytest.mark.parametrize("make, error", [
    (lambda: ValueRange(0, 1, 0.5).replace(lo=3), ValueError),
    (lambda: ValueRange(0, 1, 0.5).replace(prob=1.5), ValueError),
    (lambda: set_of(1).replace(prob=-0.5), ValueError),
    (lambda: Const(1).replace(name="x"), TypeError),
    (lambda: AssignAction("x"), TypeError),
    (lambda: Edge(0, 1, None, 2), TypeError),
])
def test_replace_and_construction_check_fields(make, error):
    with pytest.raises(error):
        make()
