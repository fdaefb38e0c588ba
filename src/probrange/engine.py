"""Equation system over a CFG and its fixpoint solver.

Each non-entry node i owes its state to its first incoming edge's transfer
of the source state, joined with each later edge's (bottom without edges);
the entry node's constant state gives every variable the machine range at
probability 1. The solver iterates from all-bottom until a full pass commits
nothing. A pass visits nodes in the weak topological order that build_cfg
lays out (CFG.order; Bourdoncle 1993), so a change flows down a loop body,
through its ifs and their join nodes, within one pass. Iterating that
whole order until nothing commits is Bourdoncle's iterative strategy. A pass
recomputes only the nodes with a source that committed since their last
recomputation (Kildall 1973): the transfers are pure and warnings
de-duplicate, so a skipped recomputation would have committed nothing, and
every commit happens as in a pass that recomputes every node.

Commit rule, one for every node: the stored state is replaced only when the
recomputed values (sets or intervals) differ. Probabilities shrink on every
trip around a loop, so a pure-probability fixpoint does not exist; iteration
stops when the values stabilize. The domains compute values only; a node's
probabilities are computed, from the same source states, only when its
values commit, so it keeps those of its last value-changing update.
Iteration counts are committing passes; the final confirming pass is free.

With widening enabled, the order's component heads (CFG.heads), through
which every cycle of the CFG passes, are the widening points. A head first
widens its recomputed values by its stored ones: a variable whose recomputed
interval lies inside the stored one keeps its stored interval and
probability, and any other widens toward the threshold set. So no value
reads a probability. Widening is idempotent (widening the result by the same
recomputation gives it back), so a loop head, too, is recomputed only when a
source commits.

The probability rules below serve both domains. A cell's probability is
spread evenly over its width: hi - lo + 1 for an interval, 1 for a set. The
density, probability over width, orders cells: one lies below another when
its values lie inside the other's and its density is not smaller. An
assignment charges one write, one read per distinct variable, one factor per
arithmetic op and each read variable's density, times the result's width. A
guard charges every variable its reads, its written comparison, on either
edge, and its arithmetic ops, and scales a variable it narrows by the new
width over the old. A join takes the smaller density, capped at the hull's
uniform density, and widening the larger, capped at the new interval's. At
width 1 these are the concrete product of charges and minimum over joins.

Each solve compiles every edge once, a guard for both of its edges, and
iterates over a value and a probability list, each entry None or a tuple
indexed by variable position; SolveResult returns both lists as they are.
"""

from __future__ import annotations

from collections.abc import Callable

from . import abstract, concrete
from .cfg import CFG, Edge, literals
from .hardware import ALL_OPS, HardwareSpec
from .record import Record
from .syntax import (Assign, BinOp, Cmp, Expr, LiteralRangeError, ParseError,
                     Var, walk_exprs)


class EquationSystem(Record):
    _fields = ("cfg", "preds")  # preds: incoming edges per node


def build_equations(cfg: CFG) -> EquationSystem:
    """One equation per node: the join over incoming edges' transfers."""
    return EquationSystem(cfg, tuple(tuple(p) for p in cfg.preds()))


def _check_literals(cfg: CFG, minint: int, maxint: int) -> None:
    """Raise LiteralRangeError for an edge constant outside [minint,maxint].

    cfg.literals come in source order, so the message names the program's
    first literal out of range. This is the only literal check: the CLI
    prints its message.
    """
    for node in literals(cfg):
        if not minint <= node.value <= maxint:
            raise LiteralRangeError(f"line {node.line}: literal "
                                    f"{node.value} outside [{minint},{maxint}]")


def _walk(e: Expr, rel: Callable) -> tuple[set[str], float]:
    """e's variables, and its ops' reliabilities multiplied in preorder."""
    names = set()
    product = 1.0
    for node in walk_exprs(e):
        if isinstance(node, BinOp):
            product *= rel(node.op)
        elif isinstance(node, Var):
            names.add(node.name)
    return names, product


def assign_charge(expr: Expr,
                  rel: Callable) -> tuple[tuple[str, ...], float]:
    """The distinct variables of `x =. expr`, sorted by name, and its
    reliability under rel (an op's reliability, as HardwareSpec.rel gives
    it): one write, one read per distinct variable and one factor per
    arithmetic op."""
    names, ops = _walk(expr, rel)
    return tuple(sorted(names)), rel("write") * rel("read") ** len(names) * ops


def guard_factor(guard: Cmp,
                 rel: Callable) -> tuple[tuple[str, ...], float]:
    """The distinct variables of a guard, sorted by name, and the
    reliability of evaluating it: one read per distinct variable, the
    comparison, and one factor per arithmetic op on either side."""
    lhs_names, lhs_ops = _walk(guard.lhs, rel)
    rhs_names, rhs_ops = _walk(guard.rhs, rel)
    names = tuple(sorted(lhs_names | rhs_names))
    return names, (rel("read") ** len(names) * rel(guard.op) * lhs_ops
                   * rhs_ops)


def assign_rule(target: str, expr: Expr, index: dict[str, int],
                rel: Callable, width: Callable) -> Callable:
    """The probabilities of the edge `target =. expr`'s values out, as
    rule(src, probs, out), src and probs being its source state's halves."""
    position = index[target]
    names, charge = assign_charge(expr, rel)
    reads = tuple(index[v] for v in names)

    def rule(src: tuple, probs: tuple, out: tuple) -> tuple:
        prob = charge
        for i in reads:
            prob *= probs[i] / width(src[i])
        prob *= width(out[position])
        new = list(probs)
        new[position] = prob if prob < 1.0 else 1.0
        return tuple(new)

    return rule


def guard_rule(guard: Cmp, index: dict[str, int], rel: Callable,
               width: Callable) -> Callable:
    """Both edges' probability rule, as assign_rule's; a probability times
    the factor (a product of reliabilities) stays in [0,1] when rounded."""
    names, factor = guard_factor(guard, rel)
    reads = tuple(index[v] for v in names)  # the only variables it narrows

    def rule(src: tuple, probs: tuple, out: tuple) -> tuple:
        new = [p * factor for p in probs]
        for i in reads:
            if out[i] is not src[i]:
                new[i] = probs[i] * (width(out[i]) / width(src[i])) * factor
        return tuple(new)

    return rule


def join_probs(width: Callable, a: tuple, ap: tuple, b: tuple, bp: tuple,
               out: tuple) -> tuple:
    """The probabilities of out, the join of a and b (which hold ap, bp)."""
    joined = []
    for x, p, y, q, z in zip(a, ap, b, bp, out):
        w = width(z)
        p /= w if x is z else width(x)
        q /= w if y is z else width(y)
        if q < p:
            p = q
        if 1.0 / w < p:
            p = 1.0 / w
        p *= w
        joined.append(p if p < 1.0 else 1.0)
    return tuple(joined)


def widen_probs(width: Callable, cur: tuple, curp: tuple, new: tuple,
                newp: tuple, out: tuple) -> tuple:
    """The probabilities of out, the stored values cur widened by the
    recomputed new, as join_probs's; a cell kept keeps its probability."""
    widened = []
    for a, p, b, q, c in zip(cur, curp, new, newp, out):
        if c is not a:
            w = width(c)
            p = min(1.0, w * min(max(p / width(a), q / width(b)), 1.0 / w))
        widened.append(p)
    return tuple(widened)


class SolveResult(Record):
    """values and probs list each node's state in two halves, each None when
    the node is unreachable, else a tuple in cfg.variables order: values
    holds frozensets, or (lo, hi) pairs in the abstract domain, and probs
    their probabilities. trace is None without keep_trace, else a
    (values, probs) pair of such lists per committing pass."""
    _fields = ("values", "probs", "iterations", "converged", "warnings",
               "trace")


def solve(system: EquationSystem, spec: HardwareSpec, domain: str = "abstract",
          widening: tuple[int, ...] | None = None, max_iters: int = 20,
          keep_trace: bool = False) -> SolveResult:
    """Iterate the equation system to a practical fixpoint.

    domain is "concrete" or "abstract". widening, when given, is the sorted
    threshold tuple (abstract domain only), spanning exactly the spec's
    machine range; it applies at loop-head nodes. max_iters bounds committing
    passes and running into it clears the converged flag; iterations counts
    the committing passes. The concrete domain raises OracleBlowup when an
    edge's operand tuples, or the machine range's values, outnumber
    concrete.TUPLE_CAP. Literals outside the spec's machine range raise
    LiteralRangeError, and an expression too deep to compile or evaluate
    raises ParseError, as the parser does for deep nesting. A CFG whose
    order does not list every node exactly once raises ValueError.
    """
    if domain not in ("concrete", "abstract"):
        raise ValueError(f"unknown domain {domain!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if widening is not None and domain == "concrete":
        raise ValueError("widening applies to the abstract domain only")
    if widening is not None and (  # abstract._widen bisects them
            not widening or sorted(widening) != [*widening]
            or widening[0] != spec.minint or widening[-1] != spec.maxint):
        raise ValueError(f"widening thresholds must contain {spec.minint} "
                         f"and {spec.maxint} and nothing outside them, in "
                         "increasing order")
    if sorted(system.cfg.order) != list(range(system.cfg.node_count)):
        raise ValueError("cfg.order must list every node exactly once")
    _check_literals(system.cfg, spec.minint, spec.maxint)
    try:
        return _iterate(system, spec, domain, widening, max_iters, keep_trace)
    except RecursionError:
        # compiling and applying an edge recurse per operator
        raise ParseError("program is nested too deeply") from None


def _iterate(system: EquationSystem, spec: HardwareSpec, domain: str,
             widening: tuple[int, ...] | None, max_iters: int,
             keep_trace: bool) -> SolveResult:
    dom = abstract if domain == "abstract" else concrete
    width = dom.width
    cfg = system.cfg
    variables = cfg.variables
    index = {v: i for i, v in enumerate(variables)}
    rel = {op: spec.rel(op) for op in ALL_OPS}.__getitem__
    warnings: list[str] = []
    guards: dict[int, tuple] = {}  # by the Cmp's id: transfers and rule

    def compiled(edge: Edge) -> tuple:
        """The edge's source, value transfer and probability rule."""
        action = edge.action
        if isinstance(action, Assign):
            target, expr = action.target, action.value
            return (edge.src, dom.compile_assign(target, expr, index, spec,
                                                 warnings),
                    assign_rule(target, expr, index, rel, width))
        cond = action.cond
        if id(cond) not in guards:
            guards[id(cond)] = (dom.compile_guard(cond, index, spec, warnings),
                                guard_rule(cond, index, rel, width))
        transfers, rule = guards[id(cond)]
        return edge.src, transfers[action.op != cond.op], rule

    incoming = [[compiled(e) for e in preds] for preds in system.preds]
    # without variables there is one state, and every node holds it
    values: list = [None if variables else ()] * cfg.node_count
    probs = list(values)
    values[cfg.entry] = dom.entry_state(variables, spec)
    probs[cfg.entry] = (1.0,) * len(variables)
    widen_nodes = cfg.heads if widening is not None else frozenset()
    trace: list | None = [] if keep_trace else None

    def try_commit(node: int) -> bool:
        cur, new = values[node], None
        edges = incoming[node]
        outs = []  # per edge: its values, and the join up to it
        for i, (src, edge, _) in enumerate(edges):
            out = dom.sp_assign(values[src], edge)
            new = dom.join_states(new, out) if i else out
            outs.append((out, new))
        joined = new
        if node in widen_nodes:
            new = abstract.widen_states(cur, new, widening)
        if new == cur or not (new or cur):
            return False
        prob = before = None
        for (src, _, rule), (out, upto) in zip(edges, outs):
            if out is not None:
                got = rule(values[src], probs[src], out)
                prob = got if before is None else join_probs(
                    width, before, prob, out, got, upto)
            before = upto
        if new is not joined:
            prob = widen_probs(width, cur, probs[node], joined, prob, new)
        values[node], probs[node] = new, prob
        return True

    targets = [n for n in cfg.order if n != cfg.entry]
    succs = cfg.succs()
    iterations = 0
    converged = False
    dirty = [True] * cfg.node_count
    for _ in range(max_iters):
        changed = False
        for node in targets:
            if not dirty[node]:
                continue
            dirty[node] = False
            if try_commit(node):
                changed = True
                for dst in succs[node]:
                    dirty[dst] = True
        if not changed:
            converged = True
            break
        iterations += 1
        if trace is not None:
            trace.append((list(values), list(probs)))

    return SolveResult(values, probs, iterations, converged, warnings, trace)
