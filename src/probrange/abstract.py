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
the hull; meets intersect and take the larger density, capped at total mass 1.
The cap in the meet cannot fire for elements whose mass is at most 1, so when
it does fire the event is reported through `warnings.warn`.

The connection to the concrete domain: abstraction maps <S, p> to the hull of
S carrying mass min(1, p * hull width); concretization maps <[a,b], p> back to
the full value set at density p / (b-a+1). Abstraction after concretization is
the identity.

Transfers mirror the concrete ones on interval endpoints. Division or modulo
by an interval containing zero widens the target to the full machine range
and reports it rather than failing; comparison guards refine the tested
variable's interval when one side is a lone variable (or `var %. k` against a
constant) and the other side folds to a constant.

The solver's state is None when no environment is reachable, and otherwise a
tuple of (lo, hi, prob) triples, never empty, indexed by variable position.
ValueRange wraps the same triple for reporting and validates it; join, leq and
widen are each written once, over triples, and its methods call them.
"""

from __future__ import annotations

import warnings as _warnings
from collections.abc import Callable
from functools import partial
from operator import attrgetter

from .hardware import HardwareSpec, c_div, c_mod
from .record import Record, set_field
from .syntax import BinOp, Cmp, Const, Expr, Var
# sp_assign and sp_guard apply a compiled edge the same way in both domains;
# the solver looks them up here when it runs in this domain
from .concrete import (ARITH, COMPARE, ValueSet, _warn, assign_charge,
                       guard_factor, sp_assign, sp_guard)

PMF_TOLERANCE = 1e-12


class BottomArgument(Exception):
    """The density of the empty interval was requested."""


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

    @classmethod
    def top(cls, minint: int, maxint: int) -> ValueRange:
        return cls(minint, maxint, 0.0)

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def width(self) -> int:
        return 0 if self.is_bottom else self.hi - self.lo + 1

    def pmf(self) -> float:
        if self.is_bottom:
            raise BottomArgument("empty interval has no density")
        return self.prob / self.width

    def leq(self, other: ValueRange) -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return _leq(self.triple, other.triple)

    def join(self, other: ValueRange) -> ValueRange:
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return ValueRange(*_join(self.triple, other.triple))

    def meet(self, other: ValueRange) -> ValueRange:
        if self.is_bottom or other.is_bottom:
            return ValueRange.bottom()
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return ValueRange.bottom()
        w = hi - lo + 1
        p = w * max(self.pmf(), other.pmf())
        if p > 1.0:
            _warnings.warn(
                f"meet of <[{self.lo},{self.hi}],{self.prob}> and "
                f"<[{other.lo},{other.hi}],{other.prob}> capped at mass 1",
                RuntimeWarning, stacklevel=2)
            p = 1.0
        return ValueRange(lo, hi, p)

    def widen(self, other: ValueRange, thresholds: tuple[int, ...]) -> ValueRange:
        """Jump both endpoints outward to thresholds bracketing the hull.

        Identity on a bottom side; returns self unchanged when other leq self.
        The result's mass is the hull width times the larger of the two
        densities, capped at 1.
        """
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return ValueRange(*_widen(self.triple, other.triple, thresholds))

    triple = property(attrgetter("lo", "hi", "prob"))


Triple = tuple[int, int, float]


def _leq(a: Triple, b: Triple) -> bool:
    alo, ahi, ap = a
    blo, bhi, bp = b
    return (blo <= alo and ahi <= bhi
            and ap / (ahi - alo + 1) >= bp / (bhi - blo + 1) - PMF_TOLERANCE)


def _join(a: Triple, b: Triple) -> Triple:
    alo, ahi, ap = a
    blo, bhi, bp = b
    lo = min(alo, blo)
    hi = max(ahi, bhi)
    w = hi - lo + 1
    p = w * min(ap / (ahi - alo + 1), bp / (bhi - blo + 1), 1.0 / w)
    return lo, hi, min(1.0, p)


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


def alpha(c: ValueSet) -> ValueRange:
    if not c.values:
        return ValueRange.bottom()
    lo, hi = min(c.values), max(c.values)
    return ValueRange(lo, hi, min(1.0, c.prob * (hi - lo + 1)))


def gamma(m: ValueRange) -> ValueSet:
    if m.is_bottom:
        return ValueSet.bottom()
    return ValueSet(frozenset(range(m.lo, m.hi + 1)), m.pmf())


State = tuple[Triple, ...] | None


def entry_state(variables: tuple[str, ...], spec: HardwareSpec) -> State:
    return ((spec.minint, spec.maxint, 1.0),) * len(variables)


def elements(state: State, variables: tuple[str, ...]) -> dict[str, ValueRange]:
    """The reported form of a state: variable -> validated element."""
    if state is None:
        return {v: ValueRange.bottom() for v in variables}
    return {v: ValueRange(*e) for v, e in zip(variables, state)}


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


def widen_states(a: State, b: State, thresholds: tuple[int, ...]) -> State:
    if a is None:
        return b
    if b is None:
        return a
    return tuple([_widen(x, y, thresholds) for x, y in zip(a, b)])


def value_part(state: State) -> tuple:
    if state is None:
        return ()
    return tuple([e[:2] for e in state])


def interval_evaluator(e: Expr, index: dict[str, int], spec: HardwareSpec,
                       warnings: list[str]) -> Callable[[tuple], tuple[int, int]]:
    """Closure giving e's endpoints on a state, variables at index positions."""
    if isinstance(e, Const):
        pair = (e.value, e.value)
        return lambda state: pair
    if isinstance(e, Var):
        i = index[e.name]
        return lambda state: state[i][:2]
    lhs = interval_evaluator(e.lhs, index, spec, warnings)
    rhs = interval_evaluator(e.rhs, index, spec, warnings)
    op, line = e.op, e.line
    minint, maxint = spec.minint, spec.maxint
    overflow = (f"line {line}: interval arithmetic overflow clamped to "
                f"[{minint},{maxint}]")

    def evaluate(state: tuple) -> tuple[int, int]:
        a, b = lhs(state)
        c, d = rhs(state)
        if op in ("div", "mod") and c <= 0 <= d:
            _warn(warnings, f"line {line}: "
                            f"{'divisor' if op == 'div' else 'modulus'} "
                            f"interval [{c},{d}] contains zero; result "
                            f"widened to full range")
            return minint, maxint
        if op == "add":
            lo, hi = a + c, b + d
        elif op == "sub":
            lo, hi = a - d, b - c
        elif op == "mul":
            corners = (a * c, a * d, b * c, b * d)
            lo, hi = min(corners), max(corners)
        elif op == "div":
            corners = (c_div(a, c), c_div(a, d), c_div(b, c), c_div(b, d))
            lo, hi = min(corners), max(corners)
        else:
            lo, hi = _mod_interval(a, b, c, d)
        # clamp each endpoint into the range: saturation maps every value of
        # an interval lying wholly outside onto the nearer bound, never to
        # nothing
        clo = min(max(lo, minint), maxint)
        chi = min(max(hi, minint), maxint)
        if (clo, chi) != (lo, hi):
            _warn(warnings, overflow)
        return clo, chi

    return evaluate


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


def compile_assign(target: str, expr: Expr, index: dict[str, int],
                   spec: HardwareSpec, warnings: list[str],
                   cap: int | None = None) -> Callable[[tuple], State]:
    """Interval counterpart of the assignment transfer, for one edge.

    The result interval comes from endpoint evaluation; its mass charges one
    write, one read per distinct variable, each operand's density, a factor
    per arithmetic op, and the result width (density times width is mass).
    cap bounds the concrete domain's enumeration; intervals need none.
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


def _fold_const(e: Expr) -> int | None:
    """Evaluate a variable-free expression, or None if variables occur.

    Division by a zero constant yields None so the caller falls back to the
    non-refining transfer.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return None
    lhs = _fold_const(e.lhs)
    rhs = _fold_const(e.rhs)
    if lhs is None or rhs is None or (rhs == 0 and e.op in ("div", "mod")):
        return None
    return ARITH[e.op](lhs, rhs)


_FLIP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq", "ne": "ne"}


def compile_guard(guard: Cmp, index: dict[str, int], spec: HardwareSpec,
                  warnings: list[str],
                  cap: int | None = None) -> Callable[[tuple], State]:
    """Interval counterpart of the guard transfer, for one edge.

    Refinable shapes, after constant folding and putting the variable on the
    left: `x <op> c` truncates x's interval at c, and `x %. k ==. c` (or !=.)
    shrinks x's endpoints to the nearest values satisfying the congruence. The
    refined variable's probability scales by the width ratio; every variable's
    probability then picks up the guard's read, comparison, and arithmetic
    factors. Anything else leaves all intervals unchanged. An unsatisfiable
    guard bottoms the whole state. cap bounds the concrete domain only.
    """
    factor = guard_factor(guard, spec)[1]
    op, lhs, rhs = guard.op, guard.lhs, guard.rhs
    lhs_const = _fold_const(lhs)
    rhs_const = _fold_const(rhs)

    if lhs_const is not None and rhs_const is not None:
        if COMPARE[op](lhs_const, rhs_const):
            return partial(_scale_all, factor)
        return lambda state: None

    if lhs_const is not None and rhs_const is None:
        lhs, rhs = rhs, lhs
        lhs_const, rhs_const = rhs_const, lhs_const
        op = _FLIP[op]

    if rhs_const is not None and isinstance(lhs, Var):
        return partial(_refine_compare, factor, index[lhs.name], op, rhs_const)

    if (rhs_const is not None and op in ("eq", "ne")
            and isinstance(lhs, BinOp) and lhs.op == "mod"
            and isinstance(lhs.lhs, Var)):
        k = _fold_const(lhs.rhs)
        if k is not None and k != 0:
            return partial(_refine_congruence, factor, index[lhs.lhs.name],
                           abs(k), rhs_const, op == "eq")
        if k == 0:
            message = (f"line {guard.line}: congruence guard has zero "
                       f"modulus; no refinement applied")

            def warned(state: tuple) -> State:
                _warn(warnings, message)
                return _scale_all(factor, state)

            return warned

    return partial(_scale_all, factor)


def _scale_all(factor: float, state: tuple) -> State:
    return tuple([(lo, hi, min(1.0, p * factor)) for lo, hi, p in state])


def _narrowed(factor: float, state: tuple, i: int, lo: int, hi: int) -> State:
    elo, ehi, p = state[i]
    out = list(_scale_all(factor, state))
    ratio = (hi - lo + 1) / (ehi - elo + 1)
    out[i] = (lo, hi, min(1.0, p * ratio * factor))
    return tuple(out)


def _refine_compare(factor: float, i: int, op: str, c: int,
                    state: tuple) -> State:
    lo, hi, _ = state[i]
    if op == "lt":
        hi = min(hi, c - 1)
    elif op == "le":
        hi = min(hi, c)
    elif op == "gt":
        lo = max(lo, c + 1)
    elif op == "ge":
        lo = max(lo, c)
    elif op == "eq":
        lo, hi = max(lo, c), min(hi, c)
    else:
        if lo == hi == c:
            return None
        if lo == c:
            lo += 1
        if hi == c:
            hi -= 1
    if lo > hi:
        return None
    return _narrowed(factor, state, i, lo, hi)


def _refine_congruence(factor: float, i: int, k: int, c: int,
                       keep_equal: bool, state: tuple) -> State:
    elo, ehi, _ = state[i]

    def first(start: int, stop: int, step: int) -> int | None:
        for v in range(start, stop, step):
            if (c_mod(v, k) == c) == keep_equal:
                return v
        return None

    # Residues of truncating % repeat with period k only within one sign; a
    # single bounded scan from an endpoint can miss the other sign's values,
    # so scan from each sign segment's boundary.
    ups = [first(s, min(s + k, ehi + 1), 1)
           for s in [elo] + ([0] if elo < 0 <= ehi else [])]
    if ups == [None] * len(ups):
        return None
    downs = [first(s, max(s - k, elo - 1), -1)
             for s in [ehi] + ([-1] if elo <= -1 < ehi else [])]
    return _narrowed(factor, state, i, min(v for v in ups if v is not None),
                     max(v for v in downs if v is not None))
