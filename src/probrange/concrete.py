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

The solver's state is None when no environment is reachable, and otherwise a
tuple of flat (values, prob) pairs, a frozenset and a float, indexed by
variable position; no pair inside a state has an empty set. ValueSet wraps
the same pair and validates it. It is built only at reporting, for the
solve's result and trace snapshots (`elements`); join and leq are written
over pairs.

The strongest-postcondition transfers run over edges compiled once per solve
and enumerate tuples of operand values, so they are exact but only viable on
small sets; `cap` bounds the full tuple product on every call and
OracleBlowup reports programs that exceed it.

A compiled edge is incremental (semi-naive evaluation, as in Bancilhon and
Ramakrishnan 1986). It keeps the operand sets it last enumerated and what it
built from their tuples: an assignment's image and whether a tuple divided by
zero, a guard's kept values per variable and whether a tuple satisfied it. A
solve only grows the sets, so the next call enumerates just the tuples with
some component outside the kept sets, in the order of the full product; with
_warn's de-duplication the warnings come out as if every tuple were visited.
When some operand set lost a value, the edge drops what it kept and
enumerates the whole product again. Probabilities come from the current state
on every call.

This module also holds what both domains share: the per-edge reliability
charges, the comparison table and the warning helper.
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

DEFAULT_TUPLE_CAP = 10**6


class OracleBlowup(Exception):
    """The tuple product of an sp transfer would exceed the configured cap."""


class EvalError(Exception):
    """Division or modulo by zero while evaluating one operand tuple."""


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

    @property
    def is_bottom(self) -> bool:
        return not self.values and self.prob == 1.0


Pair = tuple[frozenset[int], float]
State = tuple[Pair, ...] | None


def _leq(a: Pair, b: Pair) -> bool:
    return a[0] <= b[0] and a[1] >= b[1] - 1e-12


def _join(a: Pair, b: Pair) -> Pair:
    return a[0] | b[0], min(a[1], b[1])


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


def entry_state(variables: tuple[str, ...], spec: HardwareSpec) -> State:
    full = frozenset(range(spec.minint, spec.maxint + 1))
    return ((full, 1.0),) * len(variables)


def elements(state: State, variables: tuple[str, ...]) -> dict[str, ValueSet]:
    """The reported form of a state: variable -> validated element."""
    if state is None:
        return {v: ValueSet.bottom() for v in variables}
    return {v: ValueSet(*e) for v, e in zip(variables, state)}


def join_states(a: State, b: State) -> State:
    if a is None:
        return b
    if b is None:
        return a
    return tuple(map(_join, a, b))


def leq_states(a: State, b: State) -> bool:
    if a is None:
        return True
    if b is None:
        return False
    return all(map(_leq, a, b))


def value_part(state: State) -> tuple:
    """The probability-free projection used to detect value changes."""
    if state is None:
        return ()
    return tuple([e[0] for e in state])


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


def _operand(e: Expr, names: tuple[str, ...], spec: HardwareSpec,
             warnings: list[str]) -> tuple[bool, bool, object]:
    """How a closure reads e on one operand tuple ordered like names."""
    # int maps a literal to itself
    return compile_operand(e, names.index, int,
                           partial(_operation, spec, warnings))


def _operation(spec: HardwareSpec, warnings: list[str], e: BinOp,
               left: tuple, right: tuple) -> Callable[[tuple[int, ...]], int]:
    lvar, lconst, lhs = left
    rvar, rconst, rhs = right
    apply = ARITH[e.op]
    minint, maxint = spec.minint, spec.maxint
    overflow = (f"line {e.line}: arithmetic overflow clamped to "
                f"[{minint},{maxint}]")
    zero = (f"line {e.line}: {'division' if e.op == 'div' else 'modulo'} "
            f"by zero" if e.op in ("div", "mod") else None)

    def evaluate(operands: tuple[int, ...]) -> int:
        a = operands[lhs] if lvar else lhs if lconst else lhs(operands)
        b = operands[rhs] if rvar else rhs if rconst else rhs(operands)
        if zero is not None and b == 0:
            raise EvalError(zero)
        raw = apply(a, b)
        if minint <= raw <= maxint:
            return raw
        _warn(warnings, overflow)
        return minint if raw < minint else maxint

    return evaluate


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


def _operand_sets(state: tuple[Pair, ...], reads: tuple[int, ...],
                  names: tuple[str, ...], cap: int) -> list[frozenset[int]]:
    sets = [state[i][0] for i in reads]
    if math.prod(map(len, sets)) > cap:
        raise OracleBlowup(f"tuple product over {names} exceeds cap {cap}")
    return sets


def _shrunk(seen: list | None, sets: list[frozenset[int]]) -> bool:
    """Whether some operand set lost a value since the edge enumerated seen."""
    return seen is not None and not all(map(operator.le, seen, sets))


def _unseen(sets: list[frozenset[int]],
            seen: list | None) -> Iterable[tuple[int, ...]]:
    """The operand tuples not enumerated yet, given seen[k] <= sets[k]: all
    of them before the first call, then those that _fresh_tuples yields."""
    if seen is None:
        return itertools.product(*map(sorted, sets))
    if list(map(len, seen)) == list(map(len, sets)):
        return ()
    return _fresh_tuples(list(map(sorted, sets)), seen)


def compile_assign(target: str, expr: Expr, index: dict[str, int],
                   spec: HardwareSpec, warnings: list[str],
                   cap: int = DEFAULT_TUPLE_CAP) -> Callable[[tuple], State]:
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
    is_var, is_const, x = _operand(expr, names, spec, warnings)
    evaluate = (operator.itemgetter(x) if is_var
                else (lambda operands: x) if is_const else x)
    seen = None  # the operand sets enumerated so far, None before the first
    image = frozenset()  # what their tuples evaluate to
    had_eval_error = False

    def transfer(state: tuple[Pair, ...]) -> State:
        nonlocal seen, image, had_eval_error
        sets = _operand_sets(state, reads, names, cap)
        if _shrunk(seen, sets):
            seen, image, had_eval_error = None, frozenset(), False
        values = set()
        for operands in _unseen(sets, seen):
            try:
                values.add(evaluate(operands))
            except EvalError as exc:
                had_eval_error = True
                _warn(warnings, f"{exc} (offending operand tuple excluded)")
        seen = sets
        if not values <= image:
            image |= values
        if not image:
            if had_eval_error:
                _warn(warnings, f"every operand tuple of `{target} =. ...` "
                                f"divides by zero; state is unreachable")
            return None
        prob = charge
        for i in reads:
            prob *= state[i][1]
        out = list(state)
        out[position] = (image, min(1.0, prob))
        return tuple(out)

    return transfer


def sp_assign(state, edge):
    """Apply a compiled assignment edge of either domain; bottom stays bottom."""
    return None if state is None else edge(state)


def compile_guard(guard: Cmp, index: dict[str, int], spec: HardwareSpec,
                  warnings: list[str],
                  cap: int = DEFAULT_TUPLE_CAP) -> Callable[[tuple], State]:
    """Strongest postcondition of passing a comparison guard, for one edge.

    Each guard variable keeps only the values that occur in some satisfying
    tuple; every variable's probability (guard-related or not) picks up one
    read per distinct guard variable, the comparison's factor, and a factor
    per arithmetic op inside the guard. An unsatisfiable guard bottoms the
    whole state; a guard over constants alone is decided outright.
    """
    names, factor = guard_factor(guard, spec)
    reads = tuple(index[v] for v in names)
    lvar, lconst, lhs = _operand(guard.lhs, names, spec, warnings)
    rvar, rconst, rhs = _operand(guard.rhs, names, spec, warnings)
    compare = COMPARE[guard.op]
    seen = None  # the operand sets enumerated so far, None before the first
    kept = [frozenset()] * len(reads)  # per guard variable, satisfying values
    satisfiable = False

    def transfer(state: tuple[Pair, ...]) -> State:
        nonlocal seen, kept, satisfiable
        sets = _operand_sets(state, reads, names, cap)
        if _shrunk(seen, sets):
            seen, kept, satisfiable = None, [frozenset()] * len(reads), False
        hits = []
        for operands in _unseen(sets, seen):
            try:
                a = operands[lhs] if lvar else lhs if lconst else lhs(operands)
                b = operands[rhs] if rvar else rhs if rconst else rhs(operands)
                if compare(a, b):
                    hits.append(operands)
            except EvalError as exc:
                _warn(warnings, f"{exc} (offending operand tuple excluded)")
                if not reads:  # the one empty tuple: nothing gets past
                    _warn(warnings, f"{exc} (constant guard unreachable)")
        seen = sets
        if hits:
            satisfiable = True
            kept = [old.union(new) for old, new in zip(kept, zip(*hits))]
        if not satisfiable:
            return None
        out = [(values, min(1.0, prob * factor)) for values, prob in state]
        for i, values in zip(reads, kept):
            out[i] = (values, out[i][1])
        return tuple(out)

    return transfer


def sp_guard(state, edge):
    """Apply a compiled guard edge of either domain; bottom stays bottom."""
    return None if state is None else edge(state)
