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
recomputed state's value part (sets or intervals) differs. Probabilities
shrink on every trip around a loop, so a pure-probability fixpoint does not
exist; iteration therefore stops when the value parts stabilize and each node
keeps the probability from its last value-changing update. Iteration counts
reported here are committing passes; the final confirming pass is free.

With widening enabled, the order's component heads (CFG.heads), through
which every cycle of the CFG passes, are the widening points. A head first
widens its recomputation by its stored state: a variable whose recomputed
interval lies inside the stored one keeps its stored triple, whatever either
probability, and any other widens toward the threshold set. So no value
reads a probability. Widening is idempotent (widening the result by the same
recomputation gives it back), so a loop head, too, is recomputed only when a
source commits.

Each solve compiles every edge once through the domain module (operand
positions, reliability charge, folded guard shape, expression closure) and
iterates over flat states, None or a tuple indexed by variable position,
and SolveResult keeps them as they are. Each assignment edge and each guard
is compiled once, a guard for both of its edges, which share one concrete
scan; the concrete domain's value sets are interned module-wide, so a set a
solve builds again is the object already live.
"""

from __future__ import annotations

from . import abstract, concrete
from .cfg import CFG, Edge, literals
from .hardware import HardwareSpec
from .record import Record
from .syntax import Assign, LiteralRangeError, ParseError


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


class SolveResult(Record):
    """states and each trace snapshot (one per committing pass; trace is
    None without keep_trace) list each node's flat state: None when the node
    is unreachable, else the domain's (lo, hi, prob) triples or (values,
    prob) pairs in cfg.variables order."""
    _fields = ("states", "iterations", "converged", "warnings", "trace")


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
    cfg = system.cfg
    variables = cfg.variables
    index = {v: i for i, v in enumerate(variables)}
    warnings: list[str] = []
    guards: dict[int, tuple] = {}  # by the Cmp's id: its two edges' transfers

    def compiled(edge: Edge) -> tuple:
        action = edge.action
        if isinstance(action, Assign):
            return edge.src, dom.compile_assign(action.target, action.value,
                                                index, spec, warnings)
        cond = action.cond
        if id(cond) not in guards:
            guards[id(cond)] = dom.compile_guard(cond, index, spec, warnings)
        return edge.src, guards[id(cond)][action.op != cond.op]

    incoming = [[compiled(e) for e in preds] for preds in system.preds]
    # without variables there is one state, and every node holds it
    states: list = [None if variables else ()] * cfg.node_count
    states[cfg.entry] = dom.entry_state(variables, spec)
    widen_nodes = cfg.heads if widening is not None else frozenset()
    trace: list[list] | None = [] if keep_trace else None

    def recompute(node: int):
        out = None
        for i, (src, edge) in enumerate(incoming[node]):
            new = dom.sp_assign(states[src], edge)
            out = dom.join_states(out, new) if i else new
        return out

    def try_commit(node: int) -> bool:
        new, cur = recompute(node), states[node]
        if node in widen_nodes:
            new = abstract.widen_states(cur, new, widening)
        if dom.same_values(new, cur):
            return False
        states[node] = new
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
            trace.append(list(states))
    return SolveResult(states, iterations, converged, warnings, trace)

