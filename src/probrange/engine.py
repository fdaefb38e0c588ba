"""Equation system over a CFG and its fixpoint solver.

Each non-entry node i owes its state to the join over incoming edges of the
edge action's transfer applied to the source node's state; the entry node is
the constant state giving every variable the full machine range at
probability 1. The solver iterates from all-bottom until a full pass commits
nothing. A pass visits nodes in a weak topological order of the CFG
(cfg.weak_topological_order; Bourdoncle 1993), so a change flows down a loop
body, through its ifs and their join nodes, within one pass. Iterating that
whole order until nothing commits is Bourdoncle's iterative strategy. A pass
recomputes only the nodes with a source that committed since their last
recomputation (Kildall 1973): the transfers are pure and warnings
de-duplicate, so a skipped recomputation would have committed nothing, and
every commit happens as in a pass that recomputes every node.

Commit rule: a node's stored state is replaced only when the recomputed
state's value part (sets or intervals) differs. Probabilities shrink on every
trip around a loop, so a pure-probability fixpoint does not exist; iteration
therefore stops when the value parts stabilize and each node keeps the
probability from its last value-changing update. Iteration counts reported
here are committing passes; the final confirming pass is free.

With widening enabled, the order's component heads, through which every
cycle of the CFG passes, are the widening points. They instead keep their
state when the recomputation is below it and otherwise widen toward the
threshold set; widened nodes commit on any change, value or probability.
Widening is idempotent (widening the result by the same recomputation gives
it back), so a loop head, too, is recomputed only when a source commits.

Each solve compiles every edge once through the domain module (operand
positions, reliability charge, folded guard shape, expression closure) and
iterates over flat states, None or a tuple indexed by variable position;
SolveResult keeps them, and builds {variable: element} views only if read.
"""

from __future__ import annotations

from . import abstract, concrete
from .cfg import CFG, AssignAction, Edge, weak_topological_order
from .hardware import HardwareSpec
from .record import MutableRecord, Record
from .syntax import Const, LiteralRangeError, ParseError, walk_exprs


class EquationSystem(Record):
    __slots__ = ("cfg", "preds")  # preds: incoming edges per node

    @property
    def variables(self) -> tuple[str, ...]:
        return self.cfg.variables


def build_equations(cfg: CFG) -> EquationSystem:
    """One equation per node: the join over incoming edges' transfers."""
    return EquationSystem(cfg, tuple(tuple(p) for p in cfg.preds()))


def _check_literals(cfg: CFG, minint: int, maxint: int) -> None:
    """Raise LiteralRangeError for an edge constant outside [minint,maxint].

    Guards are checked as written, before `x <. c` became `x <=. c-1`, so
    the message names the source literal; edges come in source order, so it
    is the program's first literal out of range. This is the only literal
    check: the CLI prints its message.
    """
    for edge in cfg.edges:
        action = edge.action
        root = (action.value if isinstance(action, AssignAction)
                else action.source or action.cond)
        for node in walk_exprs(root):
            if isinstance(node, Const) and not minint <= node.value <= maxint:
                raise LiteralRangeError(f"line {node.line}: literal "
                                        f"{node.value} outside [{minint},{maxint}]")


class SolveResult(MutableRecord):
    """flat_states and each flat_trace snapshot (one per committing pass;
    None without keep_trace) list the flat state of each node; states and
    trace view them as {node: {variable: element}} dicts, built when first
    read and kept, so that a change made to a view stays."""
    __slots__ = ("flat_states", "iterations", "converged", "warnings",
                 "flat_trace", "variables", "domain", "_views")
    _defaults = {"_views": None}
    _loose = ("_views",)

    def __post_init__(self) -> None:
        self._views = {}  # a copy made by replace builds its own

    def _elements(self, flat: list) -> dict[int, dict]:
        elements = (abstract if self.domain == "abstract"
                    else concrete).elements
        return {n: elements(s, self.variables) for n, s in enumerate(flat)}

    @property
    def states(self) -> dict[int, dict]:
        if "states" not in self._views:
            self._views["states"] = self._elements(self.flat_states)
        return self._views["states"]

    @property
    def trace(self) -> list[dict[int, dict]] | None:
        if "trace" not in self._views and self.flat_trace is not None:
            self._views["trace"] = list(map(self._elements, self.flat_trace))
        return self._views.get("trace")


def solve(system: EquationSystem, spec: HardwareSpec, domain: str = "abstract",
          widening: tuple[int, ...] | None = None, max_iters: int = 20,
          keep_trace: bool = False) -> SolveResult:
    """Iterate the equation system to a practical fixpoint.

    domain is "concrete" or "abstract". widening, when given, is the sorted
    threshold tuple (abstract domain only), spanning exactly the spec's
    machine range; it applies at loop-head nodes. max_iters bounds committing
    passes and running into it clears the converged flag; iterations counts
    the committing passes. The concrete domain raises OracleBlowup when an
    edge's operand tuples outnumber concrete.TUPLE_CAP. Literals outside the
    spec's machine range raise LiteralRangeError, and an expression too deep
    to compile or evaluate raises ParseError, as the parser does for deep
    nesting.
    """
    if domain not in ("concrete", "abstract"):
        raise ValueError(f"unknown domain {domain!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if widening is not None and domain == "concrete":
        raise ValueError("widening applies to the abstract domain only")
    if widening is not None and (min(widening, default=None) != spec.minint
                                 or max(widening, default=None) != spec.maxint):
        raise ValueError(f"widening thresholds must contain {spec.minint} "
                         f"and {spec.maxint} and nothing outside them")
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
    variables = system.variables
    index = {v: i for i, v in enumerate(variables)}
    warnings: list[str] = []
    shared: dict = {}  # what the two edges of one guard compile in common

    def compiled(edge: Edge) -> tuple:
        action = edge.action
        if isinstance(action, AssignAction):
            return edge.src, dom.compile_assign(action.target, action.value,
                                                index, spec, warnings)
        return edge.src, dom.compile_guard(action.cond, index, spec, warnings,
                                           action.source, shared)

    incoming = [[compiled(e) for e in preds] for preds in system.preds]
    # without variables there is one state, and every node holds it
    states: list = [None if variables else ()] * cfg.node_count
    states[cfg.entry] = dom.entry_state(variables, spec)
    order, heads = weak_topological_order(cfg)
    widen_nodes = heads if widening is not None else set()
    trace: list[list] | None = [] if keep_trace else None

    def recompute(node: int):
        out = None
        for src, edge in incoming[node]:
            out = dom.join_states(out, dom.sp_assign(states[src], edge))
        return out

    def try_commit(node: int) -> bool:
        new = recompute(node)
        if node in widen_nodes:
            cur = states[node]
            widened = abstract.widen_states(cur, new, widening)
            if widened == cur:
                return False
            states[node] = widened
            return True
        if dom.value_part(new) == dom.value_part(states[node]):
            return False
        states[node] = new
        return True

    targets = [n for n in order if n != cfg.entry]
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
    return SolveResult(states, iterations, converged, warnings, trace,
                       variables, domain)

