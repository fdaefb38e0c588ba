"""Concrete probabilistic domain: finite value sets with a correctness bound.

An element <S, p> records that a variable's value is drawn from the finite set
S and is correct (untouched by any hardware fault so far) with probability at
least p. Elements are ordered by

    <S1, p1>  <=  <S2, p2>   iff   S1 is a subset of S2  and  p1 >= p2

so "up" means less information: more candidate values, weaker guarantee. The
least element is <{}, 1> and the greatest <full range, 0>. The least upper
bound unions the sets and keeps the smaller probability; the greatest lower
bound intersects and keeps the larger one (an empty intersection keeps
max(p1, p2), which is exactly the greatest lower bound under the order above).
A join of two sides that hold the same set object returns that object, so a
set that no edge changed reaches later edges as the same object.

The solver's state is None when no environment is reachable, and otherwise a
tuple of flat (values, prob) pairs, a frozenset and a float, indexed by
variable position; no pair inside a state has an empty set. ValueSet wraps
the same pair and validates it. It is built only for a SolveResult's element
views (`elements`), never by the CLI; join and leq are written over pairs.

The strongest-postcondition transfers run over edges compiled once per solve
and enumerate tuples of operand values, so they are exact but only viable on
small sets; TUPLE_CAP bounds the full tuple product on every call and
OracleBlowup reports programs that exceed it.

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
built from their tuples: an assignment's image and whether a tuple divided by
zero, a guard's kept values per variable and whether a tuple satisfied it. A
solve only grows the sets, so the next call evaluates just the tuples with
some component outside the kept sets, in the order of the full product; with
_warn's de-duplication the warnings come out as if every tuple were visited.
Operand sets that are the very objects of the last call cost no scan. When
some operand set lost a value, the edge drops what it kept and evaluates the
whole product again. Probabilities come from the current state on every call.

This module also holds what both domains share: the per-edge reliability
charges, the comparison table, the warning helper, the state operations
built from a domain's per-element join and order, and the one call that
applies a compiled edge.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable
from functools import partial

from .hardware import HardwareSpec, c_div, c_mod
from .record import Record, set_field
from .syntax import BinOp, Cmp, Const, Expr, Var, walk_exprs

TUPLE_CAP = 10**6  # read on every call, so a test can lower it


class OracleBlowup(Exception):
    """The tuple product of an sp transfer would exceed TUPLE_CAP."""


class ValueSet(Record):
    __slots__ = ("values", "prob")  # values: frozenset[int]

    def __init__(self, values: frozenset[int], prob: float) -> None:
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"probability out of [0,1]: {prob}")
        set_field(self, "values", values)
        set_field(self, "prob", prob)

    @classmethod
    def bottom(cls) -> ValueSet:
        return cls(frozenset(), 1.0)


Pair = tuple[frozenset[int], float]
State = tuple[Pair, ...] | None


def _leq(a: Pair, b: Pair) -> bool:
    return a[0] <= b[0] and a[1] >= b[1] - 1e-12


def _join(a: Pair, b: Pair) -> Pair:
    # min(p, q), without the call; a shared set is kept, not unioned
    return (a[0] if a[0] is b[0] else a[0] | b[0],
            b[1] if b[1] < a[1] else a[1])


def state_operations(join: Callable, leq: Callable, element: type,
                     values: Callable) -> tuple[Callable, ...]:
    """A domain's join_states, leq_states, elements (the reported form,
    variable -> validated element) and value_part (the probability-free
    projection that detects value changes), from its per-element join and
    order, its element class and the value part of one element."""
    def join_states(a, b):
        if a is None or b is None:
            return a if b is None else b
        return tuple(map(join, a, b))

    def leq_states(a, b) -> bool:
        return a is None or b is not None and all(map(leq, a, b))

    def elements(state, variables: tuple[str, ...]) -> dict:
        if state is None:
            return {v: element.bottom() for v in variables}
        return {v: element(*e) for v, e in zip(variables, state)}

    def value_part(state) -> tuple:
        return () if state is None else tuple(map(values, state))

    return join_states, leq_states, elements, value_part


join_states, leq_states, elements, value_part = state_operations(
    _join, _leq, ValueSet, operator.itemgetter(0))


COMPARE = {"lt": operator.lt, "le": operator.le, "gt": operator.gt,
           "ge": operator.ge, "eq": operator.eq, "ne": operator.ne}
ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
         "div": c_div, "mod": c_mod}


def _warn(warnings: list[str], message: str) -> None:
    if message not in warnings:
        warnings.append(message)


def _walk(e: Expr, spec: HardwareSpec) -> tuple[set[str], float]:
    """e's variables and the product of its arithmetic ops' reliabilities,
    taken in preorder, from one walk."""
    names = set()
    rel = 1.0
    for node in walk_exprs(e):
        if isinstance(node, BinOp):
            rel *= spec.rel(node.op)
        elif isinstance(node, Var):
            names.add(node.name)
    return names, rel


def assign_charge(expr: Expr,
                  spec: HardwareSpec) -> tuple[tuple[str, ...], float]:
    """The distinct variables of `x =. expr`, sorted by name, and its
    reliability: one write, one read per distinct variable and one factor
    per arithmetic op."""
    names, ops = _walk(expr, spec)
    return (tuple(sorted(names)),
            spec.rel("write") * spec.rel("read") ** len(names) * ops)


def guard_factor(guard: Cmp,
                 spec: HardwareSpec) -> tuple[tuple[str, ...], float]:
    """The distinct variables of a guard, sorted by name, and the
    reliability of evaluating it: one read per distinct variable, the
    comparison, and one factor per arithmetic op on either side."""
    lhs_names, lhs_ops = _walk(guard.lhs, spec)
    rhs_names, rhs_ops = _walk(guard.rhs, spec)
    names = tuple(sorted(lhs_names | rhs_names))
    return names, (spec.rel("read") ** len(names) * spec.rel(guard.op)
                   * lhs_ops * rhs_ops)


def once(shared: dict | None, key, compute: Callable):
    """compute(), or with shared what it gave for this key object before."""
    if shared is None:
        return compute()
    if id(key) not in shared:
        shared[id(key)] = compute()
    return shared[id(key)]


def entry_state(variables: tuple[str, ...], spec: HardwareSpec) -> State:
    full = frozenset(range(spec.minint, spec.maxint + 1))
    return ((full, 1.0),) * len(variables)


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
                   seen: list | None) -> tuple[bool, list, int]:
    """The operand tuples over sets that an edge has not evaluated yet,
    given the sets it evaluated before (seen, None before the first call).

    Returns (restart, columns, n): whether evaluation starts over, because
    it is the first call or some set lost a value, and the n tuples to
    evaluate, in the product's order, as one column per operand position.
    A one-variable edge's column is its sorted new values, and no tuple is
    built.
    """
    if len(sets) == 1:
        if seen is not None:
            new = sets[0] - seen[0]
            # |S - T| == |S| - |T| iff T <= S: one pass finds both
            if len(new) == len(sets[0]) - len(seen[0]):
                return False, [sorted(new)], len(new)
        column = sorted(sets[0])
        return True, [column], len(column)
    if seen is not None and not all(map(operator.le, seen, sets)):
        seen = None
    if seen is None:
        rows = list(itertools.product(*map(sorted, sets)))
    else:
        rows = list(_fresh_tuples(list(map(sorted, sets)), seen))
    return seen is None, list(zip(*rows)) or [()] * len(sets), len(rows)


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
              n: int) -> tuple[list, list, bool]:
    """Run steps over n operand rows, given as one column per operand
    position.

    Each step maps its operator over its two operand columns at once and
    clamps the result with one min/max test. A step whose divisor column
    holds 0 first drops those rows from every column, as a tuple-at-a-time
    loop stops a tuple at its first zero divisor. The warnings come as from
    that loop too: each step notes its first offending row, and the notes
    are warned in the order of their rows, then of their steps. Returns
    top's column, the operand columns of the rows that reach it, and
    whether some row divided by zero.
    """
    minint, maxint = spec.minint, spec.maxint
    stack, rows, events, whole = [], range(n), [], n
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
    return (columns[x] if var else [x] * n if const else stack.pop(),
            columns, n < whole)


def _scanner(sides: tuple[Expr, ...], names: tuple[str, ...],
             reads: tuple[int, ...], spec: HardwareSpec, warnings: list[str],
             compare: Callable | None = None) -> Callable:
    """An edge's column evaluation of its expression, or of its guard's
    two sides and compare, over the operand tuples it has not evaluated.

    scan(state) is None when no tuple is new; otherwise (restart, column,
    columns, divided): whether what the edge kept must be dropped first,
    then _evaluate's result over the new tuples. Every operand set the same
    object as on the last call means no tuple is new, at no cost.
    """
    steps = []
    tops = [compile_operand(side, names.index, int,
                            partial(_column_step, spec, steps))
            for side in sides]
    if compare is not None:
        steps.append((*tops, compare, None, None))
        tops = [(False, False, None)]
    unreachable = compare is not None and not reads
    seen = None  # the operand sets evaluated so far, None before the first

    def scan(state: tuple[Pair, ...]) -> tuple | None:
        nonlocal seen
        sets = [state[i][0] for i in reads]
        if seen is not None and all(map(operator.is_, seen, sets)):
            return None  # the product was checked against the cap before
        if math.prod(map(len, sets)) > TUPLE_CAP:
            raise OracleBlowup(f"tuple product over {names} exceeds cap "
                               f"{TUPLE_CAP}")
        restart, columns, n = _fresh_columns(sets, seen)
        seen = sets
        if not n:
            return None
        return (restart, *_evaluate(steps, tops[0], spec, warnings,
                                    unreachable, columns, n))

    return scan


def compile_assign(target: str, expr: Expr, index: dict[str, int],
                   spec: HardwareSpec,
                   warnings: list[str]) -> Callable[[tuple], State]:
    """Strongest postcondition of `target =. expr`, for one edge.

    The result set is the image of expr over every tuple of operand values;
    the probability charges one write, one read per distinct variable, each
    variable's own probability, and one factor per arithmetic op. Tuples that
    divide by zero produce no value and are reported; if every tuple does, the
    state has no reachable environment and becomes bottom.
    """
    position = index[target]
    names, charge = assign_charge(expr, spec)
    reads = tuple(index[v] for v in names)
    scan = _scanner((expr,), names, reads, spec, warnings)
    image = frozenset()  # what the tuples evaluated so far evaluate to
    had_eval_error = False

    def transfer(state: tuple[Pair, ...]) -> State:
        nonlocal image, had_eval_error
        scanned = scan(state)
        if scanned is not None:
            restart, values, _, divided = scanned
            if restart:
                image, had_eval_error = frozenset(), False
            had_eval_error = had_eval_error or divided
            if not image.issuperset(values):
                image = image.union(values)
        if not image:
            if had_eval_error:
                _warn(warnings, f"every operand tuple of `{target} =. ...` "
                                f"divides by zero; state is unreachable")
            return None
        prob = charge
        for i in reads:
            prob *= state[i][1]
        out = list(state)
        out[position] = (image, prob)
        return tuple(out)

    return transfer


def compile_guard(guard: Cmp, index: dict[str, int], spec: HardwareSpec,
                  warnings: list[str], source: Cmp | None = None,
                  shared: dict | None = None) -> Callable[[tuple], State]:
    """Strongest postcondition of passing a comparison guard, for one edge.

    Each guard variable keeps only the values that occur in some satisfying
    tuple; every variable's probability (guard-related or not) picks up one
    read per distinct guard variable, the comparison's factor, and a factor
    per arithmetic op inside the guard. The comparison charged is the one
    the program executes: source's, the guard as written before rewriting
    or negation (guard's own when None). An unsatisfiable guard bottoms the
    whole state; a guard over constants alone is decided outright. With
    shared, a dict kept for one solve, both edges of a guard share its factor.
    """
    source = source or guard
    names, factor = once(shared, source, lambda: guard_factor(source, spec))
    reads = tuple(index[v] for v in names)
    scan = _scanner((guard.lhs, guard.rhs), names, reads, spec, warnings,
                    COMPARE[guard.op])
    kept = [frozenset()] * len(reads)  # per guard variable, satisfying values
    satisfiable = False

    def transfer(state: tuple[Pair, ...]) -> State:
        nonlocal kept, satisfiable
        scanned = scan(state)
        if scanned is not None:
            restart, hits, columns, _ = scanned
            if restart:
                kept, satisfiable = [frozenset()] * len(reads), False
            if any(hits):
                satisfiable = True
                new = (list(itertools.compress(c, hits)) for c in columns)
                kept = [old if old.issuperset(v) else old.union(v)
                        for old, v in zip(kept, new)]
        if not satisfiable:
            return None
        out = [(values, prob * factor) for values, prob in state]
        for i, values in zip(reads, kept):
            out[i] = (values, out[i][1])
        return tuple(out)

    return transfer


def sp_assign(state, edge):
    """Apply a compiled edge of either domain; bottom stays bottom."""
    return None if state is None else edge(state)


# the solver applies every edge through sp_assign; this alias stays only
# because the benchmark's tracer wraps both names
sp_guard = sp_assign
