"""Concrete domain: finite value sets.

A variable's cell is the finite set of values it may hold, ordered by
inclusion; the join unions, and a union that adds nothing to one side
returns that side. A compiled edge keeps the sets it built and replaces one
only when new tuples add values to it, so together with that join an
unchanged set stays the same object, and edges tell unchanged sets by
identity. A state is None when no environment is reachable, and otherwise
a tuple of frozensets indexed by variable position; no set inside a state
is empty. The module computes values only: engine.py charges each set's
probability.

The strongest-postcondition transfers run over edges compiled once per solve
and enumerate tuples of operand values, so they are exact but only viable on
small sets; TUPLE_CAP bounds the full tuple product on every call and the
machine range's values at entry, and OracleBlowup reports runs that exceed it.

An edge evaluates a column at a time (as in MonetDB/X100; Boncz, Zukowski
and Nes 2005): its operand tuples become one list per operand position, and
each operator maps over its operand columns once and clamps the result with
one min/max test. A row whose divisor is 0 is dropped from every column at
that operator, as a tuple-at-a-time loop would stop at it, and is reported.
Each operator notes its first offending row, and the notes are warned in
the order of their rows, then of the operators' evaluation order, so the
warnings come out as from that loop.

A compiled edge is incremental (semi-naive evaluation, as in Bancilhon and
Ramakrishnan 1986). It keeps the operand sets it last evaluated and what it
built from their tuples: an assignment's image, or for each edge of a guard
the values per variable of the tuples taking it. A solve iterates monotone
transfers up from bottom, so it only grows the sets, and the next call
evaluates just the tuples with some component outside the kept sets, in the
order of the full product; with _warn's de-duplication the warnings come out
as if every tuple were visited. Operand sets that are the very objects of
the last call cost no scan.

This module also holds what both domains share: the comparison table, the
warning helper, the state operations built from a domain's per-cell join and
order, and the one call that applies a compiled edge.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable
from functools import partial

from .hardware import HardwareSpec, c_div, c_mod
from .syntax import BinOp, Cmp, Const, Expr, Var, walk_exprs

TUPLE_CAP = 10**6  # read on every call, so a test can lower it


class OracleBlowup(Exception):
    """An sp transfer's tuple product or the entry range exceeds TUPLE_CAP."""


State = tuple[frozenset[int], ...] | None


def _join(s: frozenset, t: frozenset) -> frozenset:
    # a side that holds the union is returned
    return s if s is t or t <= s else t if s <= t else s | t


def state_operations(join: Callable,
                     leq: Callable) -> tuple[Callable, Callable]:
    """A domain's join_states and leq_states, from its cell join and
    order."""
    def join_states(a, b):
        if a is None or b is None:
            return a if b is None else b
        return tuple(map(join, a, b))

    def leq_states(a, b) -> bool:
        return a is None or b is not None and all(map(leq, a, b))

    return join_states, leq_states


join_states, leq_states = state_operations(_join, operator.le)


def width(values: frozenset) -> int:
    return 1  # each value of a set carries the set's probability


COMPARE = {"lt": operator.lt, "le": operator.le, "gt": operator.gt,
           "ge": operator.ge, "eq": operator.eq, "ne": operator.ne}
ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
         "div": c_div, "mod": c_mod}


def _warn(warnings: list[str], message: str) -> None:
    if message not in warnings:
        warnings.append(message)


def entry_state(variables: tuple[str, ...], spec: HardwareSpec) -> State:
    if spec.maxint - spec.minint >= TUPLE_CAP:  # before any set is built
        raise OracleBlowup(f"machine range [{spec.minint},{spec.maxint}] "
                           f"holds more than {TUPLE_CAP} values")
    full = frozenset(range(spec.minint, spec.maxint + 1))
    return (full,) * len(variables)


def compile_operand(e: Expr, position: Callable[[str], object],
                    constant: Callable[[int], object],
                    operation: Callable) -> tuple[bool, bool, object]:
    """How a domain's compiled closure reads e, so that a leaf costs no call:
    (is_var, is_const, x), with x = position(name) for a variable,
    constant(value) for a literal, or else operation(e, left, right), the
    closure for e's operator given its operands compiled the same way.

    Both domains compile through it, at one frame per operator.
    """
    if isinstance(e, Var):
        return True, False, position(e.name)
    if isinstance(e, Const):
        return False, True, constant(e.value)
    return False, False, operation(
        e, compile_operand(e.lhs, position, constant, operation),
        compile_operand(e.rhs, position, constant, operation))


def _fresh_tuples(sets: list, seen: list) -> Iterable[tuple[int, ...]]:
    """The tuples of product(*sets) with some component outside seen.

    sets[k] is a sorted list and seen[k] a subset of it; the tuples come in
    the lexicographic order of the full product. A component that is new
    completes with every tail; an old one only with the tails that are new
    themselves.
    """
    first, old, rest = sets[0], seen[0], sets[1:]
    if not rest:
        return [(v,) for v in first if v not in old]
    tails = None
    parts = []
    for v in first:
        if v not in old:
            parts.append(itertools.product((v,), *rest))
            continue
        if tails is None:
            tails = list(_fresh_tuples(rest, seen[1:]))
        parts.append(map((v,).__add__, tails))
    return itertools.chain.from_iterable(parts)


def _fresh_columns(sets: list[frozenset[int]],
                   seen: list | None) -> tuple[list, int]:
    """The operand tuples over sets that an edge has not evaluated yet,
    given the sets it evaluated before (seen, None before the first call),
    each a subset of its current set: a solve only grows the sets.

    Returns (columns, n): the n tuples to evaluate, in the product's order,
    as one column per operand position. A one-variable edge's column is its
    sorted new values, and no tuple is built.
    """
    if len(sets) == 1:
        column = sorted(sets[0] if seen is None else sets[0] - seen[0])
        return [column], len(column)
    if seen is None:
        rows = list(itertools.product(*map(sorted, sets)))
    else:
        rows = list(_fresh_tuples(list(map(sorted, sets)), seen))
    return list(zip(*rows)) or [()] * len(sets), len(rows)


def _column_step(spec: HardwareSpec, steps: list, e: BinOp, left: tuple,
                 right: tuple) -> None:
    """compile_operand's operation for the column evaluator: append e's
    step, so that steps come in postorder and a compound operand's column
    is on the evaluator's stack when its step reads it."""
    zero = None
    if e.op in ("div", "mod") and not (right[1] and right[2]):
        zero = (f"line {e.line}: {'division' if e.op == 'div' else 'modulo'}"
                f" by zero")
    steps.append((left, right, ARITH[e.op], zero,
                  f"line {e.line}: arithmetic overflow clamped to "
                  f"[{spec.minint},{spec.maxint}]"))


def _evaluate(steps: list, top: tuple, spec: HardwareSpec,
              warnings: list[str], unreachable: bool, columns: list,
              n: int) -> tuple[list, list]:
    """Run steps over n operand rows, given as one column per operand
    position.

    Each step maps its operator over its two operand columns at once and
    clamps the result with one min/max test. A step whose divisor column
    holds 0 first drops those rows from every column, as a tuple-at-a-time
    loop stops a tuple at its first zero divisor. The warnings come as from
    that loop too: each step notes its first offending row, and the notes
    are warned in the order of their rows, then of their steps. Returns
    top's column and the operand columns of the rows that reach it.
    """
    minint, maxint = spec.minint, spec.maxint
    stack, rows, events = [], range(n), []
    for i, (left, right, apply, zero, overflow) in enumerate(steps):
        rvar, rconst, rx = right
        b = columns[rx] if rvar else [rx] * n if rconst else stack.pop()
        lvar, lconst, lx = left
        a = columns[lx] if lvar else [lx] * n if lconst else stack.pop()
        if zero is not None and 0 in b:
            keep = list(map(bool, b))
            events.append((rows[keep.index(False)], i,
                           f"{zero} (offending operand tuple excluded)"))
            if unreachable:  # the one empty tuple: nothing gets past,
                events.append((rows[0], i + 0.5,  # warned right after
                               f"{zero} (constant guard unreachable)"))
            rows = list(itertools.compress(rows, keep))
            n = len(rows)
            stack = [list(itertools.compress(c, keep)) for c in stack]
            columns = [list(itertools.compress(c, keep)) for c in columns]
            a, b = (list(itertools.compress(c, keep)) for c in (a, b))
        column = list(map(apply, a, b))
        if overflow is not None and column and (min(column) < minint
                                                or max(column) > maxint):
            j = next(j for j, v in enumerate(column)
                     if v < minint or v > maxint)
            events.append((rows[j], i, overflow))
            column = [minint if v < minint else maxint if v > maxint else v
                      for v in column]
        stack.append(column)
    for *_, message in sorted(events):
        _warn(warnings, message)
    var, const, x = top
    return columns[x] if var else [x] * n if const else stack.pop(), columns


def _scanner(sides: tuple[Expr, ...], index: dict[str, int],
             spec: HardwareSpec, warnings: list[str],
             compare: Callable | None = None) -> tuple[Callable, tuple]:
    """An edge's column evaluation of its expression, or of its guard's
    two sides and compare, over the operand tuples it has not evaluated.

    The operands are the sides' distinct variables, sorted by name. Returns
    (scan, reads), reads holding the operands' state positions in that
    order. scan(state) is None when no tuple is new, and otherwise
    _evaluate's result over the new tuples. Every operand set the same
    object as on the last call means no tuple is new, at no cost.
    """
    names = tuple(sorted({node.name for side in sides
                          for node in walk_exprs(side)
                          if isinstance(node, Var)}))
    reads = tuple(index[v] for v in names)
    steps = []
    tops = [compile_operand(side, names.index, int,
                            partial(_column_step, spec, steps))
            for side in sides]
    if compare is not None:
        steps.append((*tops, compare, None, None))
        tops = [(False, False, None)]
    unreachable = compare is not None and not reads
    seen = None  # the operand sets evaluated so far, None before the first

    def scan(state: tuple[frozenset, ...]) -> tuple | None:
        nonlocal seen
        sets = [state[i] for i in reads]
        if seen is not None and all(map(operator.is_, seen, sets)):
            return None  # the product was checked against the cap before
        if math.prod(map(len, sets)) > TUPLE_CAP:
            raise OracleBlowup(f"tuple product over {names} exceeds cap "
                               f"{TUPLE_CAP}")
        columns, n = _fresh_columns(sets, seen)
        seen = sets
        if not n:
            return None
        return _evaluate(steps, tops[0], spec, warnings, unreachable, columns,
                         n)

    return scan, reads


def compile_assign(target: str, expr: Expr, index: dict[str, int],
                   spec: HardwareSpec,
                   warnings: list[str]) -> Callable[[tuple], State]:
    """Strongest postcondition of `target =. expr`, for one edge.

    The result set is the image of expr over every tuple of operand values.
    Tuples that divide by zero produce no value and are reported; if every
    tuple does, the state has no reachable environment and becomes bottom.
    """
    position = index[target]
    scan, _ = _scanner((expr,), index, spec, warnings)
    image = frozenset()  # what the tuples evaluated so far evaluate to

    def transfer(state: tuple[frozenset, ...]) -> State:
        nonlocal image
        scanned = scan(state)
        if scanned is not None and not image.issuperset(scanned[0]):
            image = image.union(scanned[0])
        if not image:  # every tuple evaluated so far, at least one, divided
            _warn(warnings, f"every operand tuple of `{target} =. ...` "
                            f"divides by zero; state is unreachable")
            return None
        out = list(state)
        out[position] = image
        return tuple(out)

    return transfer


def compile_guard(guard: Cmp, index: dict[str, int], spec: HardwareSpec,
                  warnings: list[str]) -> tuple[Callable, Callable]:
    """Strongest postconditions of a comparison guard holding and failing:
    the transfers of its true and false edges.

    On each edge every guard variable keeps only the values that occur in
    some tuple taking it. An edge no tuple takes bottoms the whole state; a
    guard over constants alone is decided outright. One scan serves both
    edges: they read the same source node, whose state only grows.
    """
    scan, reads = _scanner((guard.lhs, guard.rhs), index, spec, warnings,
                           COMPARE[guard.op])
    kept: list = [None, None]  # per edge, None until a tuple takes it

    def transfer(edge: int, state: tuple[frozenset, ...]) -> State:
        scanned = scan(state)
        if scanned is not None:
            hits, columns = scanned
            for side, taken in enumerate((hits, [not h for h in hits])):
                if any(taken):
                    old = kept[side] or [frozenset()] * len(reads)
                    new = (list(itertools.compress(c, taken)) for c in columns)
                    kept[side] = [s if s.issuperset(v) else s.union(v)
                                  for s, v in zip(old, new)]
        if kept[edge] is None:
            return None
        out = list(state)
        for i, values in zip(reads, kept[edge]):
            out[i] = values
        return tuple(out)

    return partial(transfer, 0), partial(transfer, 1)


def sp_assign(state, edge):
    """Apply a compiled edge of either domain; bottom stays bottom."""
    return None if state is None else edge(state)


# the solver applies every edge through sp_assign; this alias stays only
# because the benchmark's tracer wraps both names
sp_guard = sp_assign
