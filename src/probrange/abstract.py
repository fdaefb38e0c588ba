"""Interval domain with a correctness bound, and threshold widening.

An element <[a,b], p> says the variable's value lies in [a,b] and that the
whole interval carries correctness probability p, spread uniformly: each value
is correct with density pmf = p / (b-a+1). Elements are ordered by interval
containment together with density:

    <[a,b], p>  <=  <[c,d], q>   iff  [a,b] within [c,d]  and  pmf >= pmf'

(the density comparison uses a small absolute tolerance so that chained joins
of equal densities stay reflexive). The least element is the empty interval
with probability 1; the greatest is the full machine range with probability 0.

Joins take the hull and the smaller density, capped at the uniform density of
the hull. The meet and the Galois maps to the concrete domain (abstraction
takes <S, p> to the hull of S at mass min(1, p * hull width), concretization
takes <[a,b], p> to every value in it at density p / (b-a+1)) take no part in
an analysis; the tests define them and check the lattice and Galois laws
against this module.

Transfers mirror the concrete ones on interval endpoints, each operator's
endpoint rule chosen once per edge. Division or modulo by an interval
containing zero widens the target to the full machine range and reports it
rather than failing. Comparison guards refine the tested variable's interval
when one side is a lone variable (or `var %. k` against a constant) and the
other side folds, as the machine computes it, to one value (`5 +. 5` folds
to 7 on [-8,7], with an overflow warning). The congruence guards narrow in
closed form: the values passing `x %. k ==. c` are the residue class of c mod
k on c's side of zero, so x's new endpoints are the class's first and last
members in its interval; the values failing `x %. k !=. c` are such a class,
whose members lie k apart, so for k >= 2 each endpoint moves inward by one at
most (for k = 1 the class is every value or none).

The solver's state is None when no environment is reachable, and otherwise a
tuple of (lo, hi, prob) triples, never empty, indexed by variable position.
ValueRange wraps the same triple for a SolveResult's element views and
validates it; join, leq and widen are written over triples, and the state
operations are built from them as in the concrete domain.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from operator import itemgetter

from .hardware import HardwareSpec, c_div, c_mod
from .record import Record, set_field
from .syntax import BinOp, Cmp, Const, Expr, Var, walk_exprs
# the edge call and the state operations are shared by both domains; the
# solver looks them up here when it runs in this domain
from .concrete import (ARITH, COMPARE, _warn, assign_charge, compile_operand,
                       guard_factor, once, sp_assign, sp_guard,
                       state_operations)

PMF_TOLERANCE = 1e-12


class ValueRange(Record):
    __slots__ = ("lo", "hi", "prob")

    def __init__(self, lo: int, hi: int, prob: float) -> None:
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"probability out of [0,1]: {prob}")
        if lo > hi and (lo, hi, prob) != (0, -1, 1.0):
            raise ValueError("empty interval must be the canonical bottom <[0,-1], 1>")
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "prob", prob)

    @classmethod
    def bottom(cls) -> ValueRange:
        return cls(0, -1, 1.0)

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi


Triple = tuple[int, int, float]


def _leq(a: Triple, b: Triple) -> bool:
    alo, ahi, ap = a
    blo, bhi, bp = b
    return (blo <= alo and ahi <= bhi
            and ap / (ahi - alo + 1) >= bp / (bhi - blo + 1) - PMF_TOLERANCE)


def _join(a: Triple, b: Triple) -> Triple:
    # min and max written out: on the hot path a builtin call per bound costs
    # more than the comparison itself
    alo, ahi, ap = a
    blo, bhi, bp = b
    lo = alo if alo < blo else blo
    hi = ahi if ahi > bhi else bhi
    w = hi - lo + 1
    p = ap / (ahi - alo + 1)
    q = bp / (bhi - blo + 1)
    if q < p:
        p = q
    if 1.0 / w < p:
        p = 1.0 / w
    p *= w
    return lo, hi, p if p < 1.0 else 1.0


def _widen(a: Triple, b: Triple, thresholds: tuple[int, ...]) -> Triple:
    if _leq(b, a):
        return a
    alo, ahi, ap = a
    blo, bhi, bp = b
    lo = min(alo, blo)
    hi = max(ahi, bhi)
    wlo = max(t for t in thresholds if t <= lo)
    whi = min(t for t in thresholds if t >= hi)
    w = whi - wlo + 1
    p = w * min(max(ap / (ahi - alo + 1), bp / (bhi - blo + 1)), 1.0 / w)
    return wlo, whi, min(1.0, p)


State = tuple[Triple, ...] | None


def entry_state(variables: tuple[str, ...], spec: HardwareSpec) -> State:
    return ((spec.minint, spec.maxint, 1.0),) * len(variables)


join_states, leq_states, elements, value_part = state_operations(
    _join, _leq, ValueRange, itemgetter(0, 1))


def widen_states(a: State, b: State, thresholds: tuple[int, ...]) -> State:
    if a is None:
        return b
    if b is None:
        return a
    return tuple([_widen(x, y, thresholds) for x, y in zip(a, b)])


def interval_evaluator(e: Expr, index: dict[str, int], spec: HardwareSpec,
                       warnings: list[str]) -> Callable[[tuple], tuple[int, int]]:
    """Closure giving e's endpoints on a state, variables at index positions."""
    is_var, is_const, x = compile_operand(e, index.__getitem__,
                                          lambda value: (value, value),
                                          partial(_interval_op, spec, warnings))
    if is_var:
        return lambda state: state[x][:2]
    if is_const:
        return lambda state: x
    return x


def _interval_op(spec: HardwareSpec, warnings: list[str], e: BinOp,
                 left: tuple, right: tuple) -> Callable[[tuple], tuple[int, int]]:
    """The closure for one operator, given how it reads its operands.

    The endpoint rule and the zero-divisor test are chosen here, once per
    edge; a variable operand is its triple in the state and a constant its
    (value, value) pair, both read in place.
    """
    lvar, lconst, lhs = left
    rvar, rconst, rhs = right
    op, line = e.op, e.line
    endpoints = _ENDPOINTS[op]
    divides = op in ("div", "mod")
    minint, maxint = spec.minint, spec.maxint
    overflow = (f"line {line}: interval arithmetic overflow clamped to "
                f"[{minint},{maxint}]")

    def evaluate(state: tuple) -> tuple[int, int]:
        x = state[lhs] if lvar else lhs if lconst else lhs(state)
        y = state[rhs] if rvar else rhs if rconst else rhs(state)
        c, d = y[0], y[1]
        if divides and c <= 0 <= d:
            _warn(warnings, f"line {line}: "
                            f"{'divisor' if op == 'div' else 'modulus'} "
                            f"interval [{c},{d}] contains zero; result "
                            f"widened to full range")
            return minint, maxint
        lo, hi = endpoints(x[0], x[1], c, d)
        if minint <= lo and hi <= maxint:
            return lo, hi
        # clamp each endpoint into the range: saturation maps every value of
        # an interval lying wholly outside onto the nearer bound, never to
        # nothing
        _warn(warnings, overflow)
        return min(max(lo, minint), maxint), min(max(hi, minint), maxint)

    return evaluate


def _corners(f: Callable[[int, int], int]) -> Callable:
    """The endpoint rule of x op y for an op whose extremes over [a,b] and
    [c,d] lie at the corners: multiplication, and division without zero."""
    def endpoints(a: int, b: int, c: int, d: int) -> tuple[int, int]:
        corners = (f(a, c), f(a, d), f(b, c), f(b, d))
        return min(corners), max(corners)
    return endpoints


def _mod_interval(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Endpoints of x %. y for x in [a,b] and y in [c,d], zero excluded."""
    if c == d:
        k = abs(c)
        if b - a + 1 >= k:
            return (-(k - 1), k - 1) if a < 0 else (0, k - 1)
        residues = [c_mod(v, k) for v in range(a, b + 1)]
        return min(residues), max(residues)
    k = max(abs(c), abs(d))
    lo = 0 if a >= 0 else max(a, -(k - 1))
    hi = 0 if b <= 0 else min(b, k - 1)
    return lo, hi


_ENDPOINTS = {"add": lambda a, b, c, d: (a + c, b + d),
              "sub": lambda a, b, c, d: (a - d, b - c),
              "mul": _corners(ARITH["mul"]), "div": _corners(c_div),
              "mod": _mod_interval}


def compile_assign(target: str, expr: Expr, index: dict[str, int],
                   spec: HardwareSpec,
                   warnings: list[str]) -> Callable[[tuple], State]:
    """Interval counterpart of the assignment transfer, for one edge.

    The result interval comes from endpoint evaluation; its mass charges one
    write, one read per distinct variable, each operand's density, a factor
    per arithmetic op, and the result width (density times width is mass).
    """
    position = index[target]
    names, charge = assign_charge(expr, spec)
    reads = tuple(index[v] for v in names)
    evaluate = interval_evaluator(expr, index, spec, warnings)

    def transfer(state: tuple) -> State:
        lo, hi = evaluate(state)
        prob = charge
        for i in reads:
            elo, ehi, ep = state[i]
            prob *= ep / (ehi - elo + 1)
        prob *= hi - lo + 1
        out = list(state)
        out[position] = (lo, hi, min(1.0, prob))
        return tuple(out)

    return transfer


def _fold(e: Expr, spec: HardwareSpec, notes: list[str],
          shared: dict | None) -> int | None:
    """e's value as the machine computes it, saturating each operator into
    the range, or None if e reads a variable or divides by zero. The
    overflow warnings of a fold that succeeds go to notes."""
    if isinstance(e, Const):
        return e.value
    value, warned = once(shared, e, lambda: _fold_operators(e, spec))
    notes += warned
    return value


def _fold_operators(e: Expr, spec: HardwareSpec) -> tuple[int | None, list]:
    warned: list[str] = []
    if any(isinstance(node, Var) for node in walk_exprs(e)):
        return None, warned
    value, _ = interval_evaluator(e, {}, spec, warned)(())
    if any("contains zero" in message for message in warned):
        return None, []
    return value, warned


_FLIP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq", "ne": "ne"}


def compile_guard(guard: Cmp, index: dict[str, int], spec: HardwareSpec,
                  warnings: list[str], source: Cmp | None = None,
                  shared: dict | None = None) -> Callable[[tuple], State]:
    """Interval counterpart of the guard transfer, for one edge.

    Refinable shapes, after putting the variable on the left of a side that
    folds, as the machine computes it, to one value c: `x <op> c` truncates
    x's interval at c, and `x %. k ==. c` (or !=.) shrinks x's endpoints to
    the nearest values satisfying the congruence. The refined variable's
    probability scales by the width ratio; every variable's probability then
    picks up the guard's read, comparison, and arithmetic factors, the
    comparison charged being source's (see the concrete guard). Anything
    else leaves all intervals unchanged. An unsatisfiable guard bottoms the
    whole state. A fold's overflow warnings are raised whenever the edge is
    applied, as the concrete guard raises them. With shared, both edges of
    a guard share its factor and the folds of the sides they have in common.
    """
    source = source or guard
    factor = once(shared, source, lambda: guard_factor(source, spec))[1]
    op, lhs, rhs = guard.op, guard.lhs, guard.rhs
    notes: list[str] = []
    lhs_const = _fold(lhs, spec, notes, shared)
    rhs_const = _fold(rhs, spec, notes, shared)
    if lhs_const is not None and rhs_const is None:
        lhs, rhs, op = rhs, lhs, _FLIP[op]
        lhs_const, rhs_const = None, lhs_const
    k = (_fold(lhs.rhs, spec, notes, shared)
         if rhs_const is not None and op in ("eq", "ne")
         and isinstance(lhs, BinOp) and lhs.op == "mod"
         and isinstance(lhs.lhs, Var) else None)

    if lhs_const is not None:  # both sides fold
        holds = COMPARE[op](lhs_const, rhs_const)
        transfer = partial(_scale_all, factor) if holds else lambda state: None
    elif rhs_const is not None and isinstance(lhs, Var):
        c, low, high = rhs_const, spec.minint, spec.maxint
        cut = {"lt": (low, c - 1), "le": (low, c), "gt": (c + 1, high),
               "ge": (c, high), "eq": (c, c), "ne": (low, high)}[op]
        transfer = partial(_refine_compare, factor, index[lhs.name], *cut,
                           c if op == "ne" else None)
    elif k:
        transfer = partial(_refine_congruence, factor, index[lhs.lhs.name],
                           abs(k), rhs_const, op == "eq")
    else:
        if k == 0:
            notes.append(f"line {guard.line}: congruence guard has zero "
                         f"modulus; no refinement applied")
        transfer = partial(_scale_all, factor)
    if not notes:
        return transfer

    def warned(state: tuple) -> State:
        for message in notes:
            _warn(warnings, message)
        return transfer(state)

    return warned


# A guard only scales probabilities down: a probability and the factor (a
# product of reliabilities) lie in [0,1], so their rounded product does too.

def _scale_all(factor: float, state: tuple) -> State:
    return tuple([(lo, hi, p * factor) for lo, hi, p in state])


def _narrowed(factor: float, state: tuple, i: int, lo: int, hi: int) -> State:
    elo, ehi, p = state[i]
    out = [(a, b, q * factor) for a, b, q in state]
    ratio = (hi - lo + 1) / (ehi - elo + 1)
    out[i] = (lo, hi, p * ratio * factor)
    return tuple(out)


def _refine_compare(factor: float, i: int, low: int, high: int,
                    skip: int | None, state: tuple) -> State:
    # x within [low, high] and x != skip: an endpoint at skip moves inward
    lo, hi, _ = state[i]
    lo = max(lo, low)
    hi = min(hi, high)
    lo += lo == skip
    hi -= hi == skip
    if lo > hi:
        return None
    return _narrowed(factor, state, i, lo, hi)


def _refine_congruence(factor: float, i: int, k: int, c: int,
                       keep_equal: bool, state: tuple) -> State:
    elo, ehi, _ = state[i]
    if keep_equal:
        # c_mod(v, k) == c holds on v's residue class c mod k, restricted to
        # the sign c_mod gives c: v > 0 for c > 0 and v < 0 for c < 0
        if not -k < c < k:
            return None
        lo = max(elo, 1) if c > 0 else elo
        hi = min(ehi, -1) if c < 0 else ehi
        lo += (c - lo) % k
        hi -= (hi - c) % k
    elif k == 1 and c == 0:  # every value has residue 0
        return None
    else:
        # the values failing the guard form one residue class, whose members
        # lie k >= 2 apart, so each endpoint moves inward by one at most
        lo = elo + (c_mod(elo, k) == c)
        hi = ehi - (c_mod(ehi, k) == c)
    if lo > hi:
        return None
    return _narrowed(factor, state, i, lo, hi)
