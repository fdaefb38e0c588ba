"""Interval domain and threshold widening.

A variable's cell is an interval (lo, hi) of the values it may hold. Cells
are ordered by containment; the least element is the empty interval, None in
a state, and the greatest the full machine range. The join takes the hull,
and widening at a loop head jumps each endpoint of the hull outward to the
nearest threshold, unless the new interval lies inside the stored one, which
is kept. The meet and the Galois maps to the concrete domain take no part in
an analysis; the tests define them and check the lattice and Galois laws
against this module. The module computes values only: engine.py charges
each interval's probability, spread evenly over its width, and orders, joins
and widens the densities.

Transfers mirror the concrete ones on interval endpoints, each operator's
endpoint rule chosen once per edge. Division or modulo by an interval
containing zero widens the result to the full machine range and reports it
rather than failing, in a guard's sides as in an assignment, whether or not
the guard refines anything. Comparison guards refine the tested variable's
interval when one side is a lone variable (or `var %. k` against a
constant) and the other side folds, as the machine computes it, to one
value (`5 +. 5` folds to 7 on [-8,7], with an overflow warning). The
congruence guards narrow in closed form: the values passing `x %. k ==. c`
are the residue class of c mod k on c's side of zero, so x's new endpoints
are the class's first and last members in its interval; the values failing
`x %. k !=. c` are such a class, whose members lie k apart, so for k >= 2
each endpoint moves inward by one at most (for k = 1 the class is every
value or none).

A state is None when no environment is reachable, and otherwise a tuple of
(lo, hi) pairs, never empty (lo <= hi), indexed by variable position. join,
leq and widen are written over pairs, and the state operations are built
from them as in the concrete domain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from functools import partial

from .hardware import HardwareSpec, c_div, c_mod
from .syntax import NEGATED, BinOp, Cmp, Expr, Var, walk_exprs
# the edge call and the state operations are shared by both domains; the
# solver looks them up here when it runs in this domain
from .concrete import (ARITH, COMPARE, _warn, compile_operand, sp_assign,
                       sp_guard, state_operations)

Interval = tuple[int, int]


def _leq(a: Interval, b: Interval) -> bool:
    return b[0] <= a[0] and a[1] <= b[1]


def _join(a: Interval, b: Interval) -> Interval:
    # a side that holds the hull is returned; min and max written out, as a
    # builtin call per bound costs more than the comparison on the hot path
    alo, ahi = a
    blo, bhi = b
    if alo <= blo and bhi <= ahi:
        return a
    if blo <= alo and ahi <= bhi:
        return b
    return alo if alo < blo else blo, ahi if ahi > bhi else bhi


def _widen(a: Interval, b: Interval,
           thresholds: tuple[int, ...]) -> Interval:
    if _leq(b, a):
        return a
    return (thresholds[bisect_right(thresholds, min(a[0], b[0])) - 1],
            thresholds[bisect_left(thresholds, max(a[1], b[1]))])


State = tuple[Interval, ...] | None


def entry_state(variables: tuple[str, ...], spec: HardwareSpec) -> State:
    return ((spec.minint, spec.maxint),) * len(variables)


join_states, leq_states = state_operations(_join, _leq)


def width(cell: Interval) -> int:
    """The number of values an interval's probability spreads over."""
    return cell[1] - cell[0] + 1


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
        return lambda state: state[x]
    if is_const:
        return lambda state: x
    return x


def _interval_op(spec: HardwareSpec, warnings: list[str], e: BinOp,
                 left: tuple, right: tuple) -> Callable[[tuple], tuple[int, int]]:
    """The closure for one operator, given how it reads its operands.

    The endpoint rule and the zero-divisor test are chosen here, once per
    edge; a variable operand is its interval in the state and a constant its
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
    """Interval counterpart of the assignment transfer, for one edge: the
    result interval comes from endpoint evaluation."""
    position = index[target]
    evaluate = interval_evaluator(expr, index, spec, warnings)

    def transfer(state: tuple) -> State:
        out = list(state)
        out[position] = evaluate(state)
        return tuple(out)

    return transfer


def _fold(e: Expr, spec: HardwareSpec, notes: list[str]) -> int | None:
    """e's value as the machine computes it, saturating each operator into
    the range, or None if e reads a variable or divides by zero. The
    overflow warnings of a fold that succeeds go to notes."""
    if any(isinstance(node, Var) for node in walk_exprs(e)):
        return None
    warned: list[str] = []
    value, _ = interval_evaluator(e, {}, spec, warned)(())
    if any("contains zero" in message for message in warned):
        return None
    notes += warned
    return value


_FLIP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq", "ne": "ne"}


def compile_guard(guard: Cmp, index: dict[str, int], spec: HardwareSpec,
                  warnings: list[str]) -> tuple[Callable, Callable]:
    """Interval counterparts of a guard holding and failing: the transfers
    of its true and false edges, the false one testing the negated op.

    Refinable shapes, after putting the variable on the left of a side that
    folds, as the machine computes it, to one value c: `x <op> c` truncates
    x's interval at c, and `x %. k ==. c` (or !=.) shrinks x's endpoints to
    the nearest values satisfying the congruence. Anything else leaves the
    state unchanged, but still evaluates each arithmetic side for its
    warnings.
    An unsatisfiable guard bottoms the whole state. A fold's overflow
    warnings are raised whenever an edge is applied, as the concrete guard
    raises them.
    """
    lhs, rhs, op = guard.lhs, guard.rhs, guard.op
    notes: list[str] = []
    lhs_const = _fold(lhs, spec, notes)
    rhs_const = _fold(rhs, spec, notes)
    if lhs_const is not None and rhs_const is None:
        lhs, rhs, op = rhs, lhs, _FLIP[op]
        lhs_const, rhs_const = None, lhs_const
    ops = (op, NEGATED[op])
    k = (_fold(lhs.rhs, spec, notes)
         if rhs_const is not None and op in ("eq", "ne")
         and isinstance(lhs, BinOp) and lhs.op == "mod"
         and isinstance(lhs.lhs, Var) else None)

    if lhs_const is not None:  # both sides fold
        transfers = [(lambda state: state) if COMPARE[o](lhs_const, rhs_const)
                     else lambda state: None for o in ops]
    elif rhs_const is not None and isinstance(lhs, Var):
        c, low, high = rhs_const, spec.minint, spec.maxint
        cut = {"lt": (low, c - 1), "le": (low, c), "gt": (c + 1, high),
               "ge": (c, high), "eq": (c, c), "ne": (low, high)}
        transfers = [partial(_refine_compare, index[lhs.name], *cut[o],
                             c if o == "ne" else None) for o in ops]
    elif k:
        transfers = [partial(_refine_congruence, index[lhs.lhs.name], abs(k),
                             rhs_const, o == "eq") for o in ops]
    else:
        if k == 0:
            notes.append(f"line {guard.line}: congruence guard has zero "
                         f"modulus; no refinement applied")
        sides = [interval_evaluator(side, index, spec, warnings)
                 for side in (guard.lhs, guard.rhs) if isinstance(side, BinOp)]

        def transfer(state: tuple) -> State:
            for side in sides:
                side(state)
            return state
        transfers = [transfer, transfer]
    if not notes:
        return tuple(transfers)

    def warned(transfer: Callable, state: tuple) -> State:
        for message in notes:
            _warn(warnings, message)
        return transfer(state)

    return tuple(partial(warned, t) for t in transfers)


def _narrowed(state: tuple, i: int, lo: int, hi: int) -> State:
    return (*state[:i], (lo, hi), *state[i + 1:])


def _refine_compare(i: int, low: int, high: int, skip: int | None,
                    state: tuple) -> State:
    # x within [low, high] and x != skip: an endpoint at skip moves inward
    lo, hi = state[i]
    lo = max(lo, low)
    hi = min(hi, high)
    lo += lo == skip
    hi -= hi == skip
    if lo > hi:
        return None
    return _narrowed(state, i, lo, hi)


def _refine_congruence(i: int, k: int, c: int, keep_equal: bool,
                       state: tuple) -> State:
    elo, ehi = state[i]
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
    return _narrowed(state, i, lo, hi)
