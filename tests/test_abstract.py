import math
import warnings
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probrange import abstract, concrete
from probrange.hardware import HardwareSpec, c_div, c_mod
from probrange.syntax import NEGATED, Cmp, parse_program

from helpers import (XYZ, BottomArgument, alpha, apply_assign, apply_guard,
                     clamp, compile_flat_guard, flat_entry, gamma, join,
                     join_states, leq, leq_states, meet, pmf, range_top,
                     reference_refine_congruence, value_part, widen,
                     widen_states, width)

# transfers on flat states over x, y, z, each edge compiled per call
sp_assign, sp_guard = partial(apply_assign, abstract), partial(apply_guard,
                                                               abstract)
conc_assign, conc_guard = (partial(apply_assign, concrete),
                           partial(apply_guard, concrete))

SPEC = HardwareSpec.uniform(0.9999)
TINY = HardwareSpec.uniform(0.9, minint=-8, maxint=8)


def rhs_of(source: str):
    return parse_program(source).body.stmts[0].value


def eval_interval(expr, state, spec, warnings) -> tuple[int, int]:
    return abstract.interval_evaluator(expr, XYZ, spec, warnings)(state)


@st.composite
def ranges(draw, lo_min=-8, hi_max=8, max_width=6):
    lo = draw(st.integers(lo_min, hi_max))
    hi = draw(st.integers(lo, min(hi_max, lo + max_width - 1)))
    prob = draw(st.floats(0, 1, allow_nan=False))
    return lo, hi, prob


maybe_bottom = st.one_of(st.none(), ranges())

# canonical concrete elements only: the one empty element is None, <{}, 1>.
# An empty set paired with a smaller probability sits strictly above it, and
# abstraction cannot tell them apart, so extensivity holds only for these.
value_sets = st.one_of(
    st.none(),
    st.tuples(st.frozensets(st.integers(-8, 8), min_size=1, max_size=6),
              st.floats(0, 1, allow_nan=False)))


# --- element basics ---

def test_density_pinned():
    assert pmf((0, 12, 1.0)) == 1 / 13
    assert math.isclose(pmf((10, 12, 0.23073461689056984)),
                        0.07691153896, rel_tol=1e-9)
    assert pmf((5, 5, 0.7)) == 0.7
    with pytest.raises(BottomArgument):
        pmf(None)


def test_top_and_width():
    assert range_top(-8, 8) == (-8, 8, 0.0)
    assert width(range_top(-8, 8)) == 17
    assert width((2, 5, 0.5)) == 4
    assert width(None) == 0


def test_order_pinned():
    assert leq((2, 3, 0.5), (0, 12, 1.0))
    assert not leq((0, 3, 0.2), (0, 12, 1.0))
    assert not leq((0, 13, 1.0), (0, 12, 1.0))
    assert leq(None, (0, 0, 1.0))
    assert not leq((0, 0, 1.0), None)


def test_join_pinned():
    assert join((0, 0, 1.0), (3, 3, 1.0)) == (0, 3, 1.0)
    lo, hi, p = join((0, 1, 0.2), (4, 5, 0.4))
    assert (lo, hi) == (0, 5)
    assert math.isclose(p, 0.6, rel_tol=1e-12)
    e = (1, 4, 0.3)
    assert join(e, None) == e
    assert join(None, e) == e


def test_join_caps_at_hull_density():
    # two adjacent certain singletons: mass 2 * 1/2 capped by 1/w = 1/2
    assert join((0, 0, 1.0), (1, 1, 1.0)) == (0, 1, 1.0)


def test_meet_pinned():
    lo, hi, p = meet((0, 5, 0.6), (3, 8, 0.6))
    assert (lo, hi) == (3, 5)
    assert math.isclose(p, 0.3, rel_tol=1e-12)
    assert meet((0, 2, 0.5), (4, 6, 0.5)) is None
    assert meet(None, (0, 5, 1.0)) is None


@given(ranges(), ranges())
def test_meet_cap_never_fires_for_well_formed(a, b):
    # mass w_meet * pmf stays under each argument's own mass, so under 1;
    # rounding is monotone, so not even an ulp can push it over
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = meet(a, b)
    assert m is None or m[2] <= 1.0


# --- lattice laws ---

@given(maybe_bottom, maybe_bottom)
def test_join_is_upper_bound(a, b):
    j = join(a, b)
    assert leq(a, j) and leq(b, j)


@given(maybe_bottom, maybe_bottom, maybe_bottom)
def test_join_least_among_upper_bounds(a, b, c):
    if leq(a, c) and leq(b, c):
        assert leq(join(a, b), c)


@given(maybe_bottom, maybe_bottom)
def test_meet_is_lower_bound(a, b):
    m = meet(a, b)
    assert leq(m, a) and leq(m, b)


@given(maybe_bottom, maybe_bottom, maybe_bottom)
def test_meet_greatest_among_lower_bounds(a, b, c):
    if leq(c, a) and leq(c, b):
        assert leq(c, meet(a, b))


@given(maybe_bottom, maybe_bottom)
def test_join_meet_commute(a, b):
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)


@given(maybe_bottom)
def test_order_reflexive(a):
    assert leq(a, a)


grid_ranges = st.builds(
    lambda lo, w, k: (lo, lo + w - 1, k / 16),
    st.integers(-8, 4), st.integers(1, 4), st.integers(0, 16))


@given(grid_ranges, grid_ranges, grid_ranges)
def test_order_transitive(a, b, c):
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


# --- Galois connection ---

def test_alpha_pinned():
    lo, hi, p = alpha((frozenset({0, 3, 6, 9, 12}), 0.07))
    assert (lo, hi) == (0, 12)
    assert math.isclose(p, 0.91, rel_tol=1e-12)
    assert alpha((frozenset({5}), 0.3)) == (5, 5, 0.3)
    assert alpha(None) is None
    assert alpha((frozenset(range(0, 13)), 0.5))[2] == 1.0


def test_gamma_pinned():
    values, p = gamma((10, 12, 0.3))
    assert values == frozenset({10, 11, 12})
    assert math.isclose(p, 0.1, rel_tol=1e-12)
    assert gamma(None) is None
    assert gamma((4, 4, 0.9)) == (frozenset({4}), 0.9)


@given(maybe_bottom)
def test_alpha_after_gamma_is_identity(m):
    back = alpha(gamma(m))
    if m is None:
        assert back is None
    else:
        assert back[:2] == m[:2]
        assert abs(back[2] - m[2]) <= 1e-12


@given(value_sets)
def test_gamma_after_alpha_is_extensive(c):
    assert leq(c, gamma(alpha(c)))


@given(st.frozensets(st.integers(-8, 8), max_size=6),
       st.frozensets(st.integers(-8, 8), max_size=4),
       st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False))
def test_alpha_monotone(values, extra, p, q):
    lower = (values, max(p, q))
    upper = (values | extra, min(p, q))
    assert leq(lower, upper)
    assert leq(alpha(lower), alpha(upper))


@given(maybe_bottom, maybe_bottom)
def test_gamma_monotone(a, b):
    if leq(a, b):
        assert leq(gamma(a), gamma(b))


# --- interval arithmetic ---

OPS = {"add": "+.", "sub": "-.", "mul": "*.", "div": "/.", "mod": "%."}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(OPS)), ranges(-6, 6, 5), ranges(-6, 6, 5))
def test_interval_ops_contain_every_outcome(op, x, y):
    expr = rhs_of(f"z =. x {OPS[op]} y;")
    lo, hi = eval_interval(expr, (x, y), TINY, [])
    for a in range(x[0], x[1] + 1):
        for b in range(y[0], y[1] + 1):
            if op in ("div", "mod") and b == 0:
                continue
            if op == "add":
                v = a + b
            elif op == "sub":
                v = a - b
            elif op == "mul":
                v = a * b
            elif op == "div":
                v = c_div(a, b)
            else:
                v = c_mod(a, b)
            v = clamp(TINY, v)
            assert lo <= v <= hi, (op, x, y, a, b, v, lo, hi)


def test_mod_by_constant_narrow_interval_is_exact():
    expr = rhs_of("z =. x %. 5;")
    assert eval_interval(expr, ((-3, 0, 1.0),), SPEC, []) == (-3, 0)
    assert eval_interval(expr, ((6, 8, 1.0),), SPEC, []) == (1, 3)


def test_entirely_out_of_range_interval_saturates():
    expr = rhs_of("z =. x *. x;")
    warns = []
    assert eval_interval(expr, ((4, 6, 1.0),), TINY, warns) == (8, 8)
    assert any("overflow" in w for w in warns)


def test_mod_by_constant_wide_interval():
    expr = rhs_of("z =. x %. 3;")
    assert eval_interval(expr, ((0, 9, 1.0),), SPEC, []) == (0, 2)
    assert eval_interval(expr, ((-7, 9, 1.0),), SPEC, []) == (-2, 2)


def test_mod_by_interval():
    expr = rhs_of("z =. x %. y;")
    state = ((5, 20, 1.0), (2, 3, 1.0))
    assert eval_interval(expr, state, SPEC, []) == (0, 2)


def test_division_by_interval_containing_zero_widens():
    expr = rhs_of("z =. x /. y;")
    state = ((1, 2, 1.0), (-1, 2, 1.0))
    warns = []
    assert eval_interval(expr, state, TINY, warns) == (-8, 8)
    assert any("contains zero" in w for w in warns)


def test_modulus_interval_containing_zero_widens():
    expr = rhs_of("z =. x %. y;")
    state = ((1, 2, 1.0), (0, 2, 1.0))
    warns = []
    assert eval_interval(expr, state, TINY, warns) == (-8, 8)
    assert any("contains zero" in w for w in warns)


def test_overflow_clamps_and_warns():
    expr = rhs_of("z =. x *. x;")
    warns = []
    assert eval_interval(expr, ((2, 4, 1.0),), TINY, warns) == (4, 8)
    assert any("overflow" in w for w in warns)


# --- assignment transfer ---

def test_assign_constant():
    state = flat_entry(abstract, ("x",), SPEC)
    out = sp_assign(state, "x =. 0;", SPEC)
    assert out == ((0, 0, SPEC.rel("write")),)


def test_assign_increment():
    (lo, hi, p), = sp_assign(((0, 9, 0.5),), "x =. x +. 3;", SPEC)
    assert (lo, hi) == (3, 12)
    want = 0.5 * SPEC.rel("read") * SPEC.rel("add") * SPEC.rel("write")
    assert math.isclose(p, want, rel_tol=1e-12)


def test_assign_mass_shrinks_with_width():
    # [0,9] / 100 collapses to [0,0]: only a tenth of the mass can remain
    (lo, hi, p), = sp_assign(((0, 9, 0.9),), "x =. x /. 100;", SPEC)
    assert (lo, hi) == (0, 0)
    want = (0.9 / 10) * SPEC.rel("read") * SPEC.rel("div") * SPEC.rel("write")
    assert math.isclose(p, want, rel_tol=1e-12)


def test_assign_two_variables():
    state = ((0, 1, 0.8), (10, 20, 0.55), (7, 7, 0.3))
    out = sp_assign(state, "z =. x +. y;", SPEC)
    assert out[2][:2] == (10, 21)
    want = (SPEC.rel("write") * SPEC.rel("read") ** 2 * SPEC.rel("add")
            * (0.8 / 2) * (0.55 / 11) * 12)
    assert math.isclose(out[2][2], want, rel_tol=1e-12)
    assert out[:2] == state[:2]


def test_assign_bottom_state_unchanged():
    assert sp_assign(None, "x =. 1;", SPEC) is None


assign_exprs = st.sampled_from([
    "x =. x +. y;", "x =. x *. y;", "x =. y -. x;", "x =. x /. y;",
    "x =. x %. y;", "x =. y %. 3;", "x =. x *. x +. y;", "x =. 2;",
])


def assert_covers(conc_out, abs_out):
    """alpha of each variable's pair lies below its triple."""
    if conc_out is None:
        return
    assert abs_out is not None, conc_out
    for c, m in zip(conc_out, abs_out):
        assert leq(alpha(c), m), (c, m)


@settings(max_examples=200, deadline=None)
@given(ranges(-6, 6, 5), ranges(-6, 6, 5), assign_exprs)
def test_assign_locally_sound(x, y, source):
    abs_out = sp_assign((x, y), source, TINY)
    conc_out = conc_assign((gamma(x), gamma(y)), source, TINY)
    assert_covers(conc_out, abs_out)


# --- guard transfer ---

def test_guard_le_pinned():
    (lo, hi, p), = sp_guard(((0, 12, 1.0),), "while (x <=. 9) { x =. 0; }",
                            SPEC)
    assert (lo, hi) == (0, 9)
    want = (10 / 13) * SPEC.rel("read") * SPEC.rel("le")
    assert math.isclose(p, want, rel_tol=1e-12)


def test_guard_ge_pinned():
    (lo, hi, p), = sp_guard(((0, 12, 1.0),), "while (x >=. 10) { x =. 0; }",
                            SPEC)
    assert (lo, hi) == (10, 12)
    assert math.isclose(p, 0.23073461689056984, rel_tol=1e-12)


def test_guard_congruence_trims_endpoints():
    (lo, hi, p), = sp_guard(((2, 32767, 0.9),),
                            "while (x %. 2 ==. 0) { x =. 0; }", SPEC)
    assert (lo, hi) == (2, 32766)
    want = (0.9 * (32765 / 32766) * SPEC.rel("read") * SPEC.rel("eq")
            * SPEC.rel("mod"))
    assert math.isclose(p, want, rel_tol=1e-12)


def test_guard_congruence_spans_sign_change():
    out = sp_guard(((-32768, 5, 1.0),), "while (x %. 10 ==. 3) { x =. 0; }",
                   SPEC)
    assert out[0][:2] == (3, 3)


def test_guard_congruence_negative_remainder():
    out = sp_guard(((-10, 10, 1.0),), "while (x %. 3 ==. -2) { x =. 0; }",
                   SPEC)
    assert out[0][:2] == (-8, -2)


def test_guard_congruence_ne():
    out = sp_guard(((0, 6, 1.0),), "while (x %. 3 !=. 0) { x =. 0; }", SPEC)
    assert out[0][:2] == (1, 5)


def test_guard_congruence_unsatisfiable():
    state = ((0, 5, 1.0), (1, 1, 1.0))
    assert sp_guard(state, "while (x %. 2 ==. 7) { x =. 0; }", SPEC) is None


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 12), st.integers(-13, 13), st.booleans(),
       st.integers(-40, 20), st.integers(0, 40))
def test_congruence_bounds_match_the_scan(k, c, keep_equal, lo, width):
    # the closed-form narrowing of `x %. k ==. c` (keep_equal) or `!=. c`
    # against the scan of up to 2k values it replaced; about half of the
    # intervals cross zero, where c_mod's residues change sign
    state = ((0, 5), (lo, lo + width), (7, 7))
    assert abstract._refine_congruence(1, k, c, keep_equal, state) == \
        reference_refine_congruence(1, k, c, keep_equal, state)


def test_guard_zero_modulus_scales_without_refining():
    warns = []
    out = sp_guard(((0, 5, 1.0),), "while (x %. 0 ==. 1) { x =. 0; }", SPEC,
                   warns)
    assert out[0][:2] == (0, 5)
    assert any("zero" in w for w in warns)


def test_guard_constant_side_flipped():
    (lo, hi, p), = sp_guard(((0, 12, 1.0),), "while (10 >=. x) { x =. 0; }",
                            SPEC)
    assert (lo, hi) == (0, 10)
    want = (11 / 13) * SPEC.rel("read") * SPEC.rel("ge")
    assert math.isclose(p, want, rel_tol=1e-12)


def test_guard_constant_guard_true():
    (lo, hi, p), = sp_guard(((3, 4, 0.8),), "while (1 <=. 2) { x =. 0; }",
                            SPEC)
    assert (lo, hi) == (3, 4)
    assert math.isclose(p, 0.8 * SPEC.rel("le"), rel_tol=1e-12)


def test_guard_constant_guard_false():
    assert sp_guard(((3, 4, 0.8),), "while (1 >. 2) { x =. 0; }",
                    SPEC) is None


def test_guard_not_refinable_scales_all():
    out = sp_guard(((0, 5, 0.9), (2, 3, 0.7)), "while (x <. y) { x =. 0; }",
                   SPEC)
    factor = SPEC.rel("read") ** 2 * SPEC.rel("lt")
    (xlo, xhi, xp), (ylo, yhi, yp) = out
    assert (xlo, xhi) == (0, 5)
    assert (ylo, yhi) == (2, 3)
    assert math.isclose(xp, 0.9 * factor, rel_tol=1e-12)
    assert math.isclose(yp, 0.7 * factor, rel_tol=1e-12)


def test_guard_unsatisfiable_compare_bottoms_state():
    state = ((0, 5, 1.0), (0, 0, 1.0))
    assert sp_guard(state, "while (x >=. 10) { x =. 0; }", SPEC) is None


def test_guard_eq_pinned():
    state = ((0, 12, 1.0),)
    (lo, hi, p), = sp_guard(state, "while (x ==. 5) { x =. 0; }", SPEC)
    assert (lo, hi) == (5, 5)
    want = (1 / 13) * SPEC.rel("read") * SPEC.rel("eq")
    assert math.isclose(p, want, rel_tol=1e-12)
    assert sp_guard(state, "while (x ==. 20) { x =. 0; }", SPEC) is None


def test_guard_ne_trims_endpoints_only():
    ne3 = "while (x !=. 3) { x =. 0; }"
    assert sp_guard(((3, 4, 1.0),), ne3, SPEC)[0][:2] == (4, 4)
    assert sp_guard(((1, 5, 1.0),), ne3, SPEC)[0][:2] == (1, 5)
    assert sp_guard(((3, 3, 1.0),), ne3, SPEC) is None


def test_guard_bottom_state_unchanged():
    assert sp_guard(None, "while (x >. 0) { x =. 0; }", SPEC) is None


guard_sources = st.sampled_from([
    "while (x <=. 2) { x =. 0; }", "while (x >. y) { x =. 0; }",
    "while (x %. 2 ==. 0) { x =. 0; }", "while (3 <=. x) { x =. 0; }",
    "while (x !=. 0) { x =. 0; }", "while (x <. y +. 1) { x =. 0; }",
    "while (x %. 3 !=. 1) { x =. 0; }", "while (x ==. y) { x =. 0; }",
])


@settings(max_examples=200, deadline=None)
@given(ranges(-6, 6, 5), ranges(-6, 6, 5), guard_sources)
def test_guard_locally_sound(x, y, source):
    abs_out = sp_guard((x, y), source, TINY)
    conc_out = conc_guard((gamma(x), gamma(y)), source, TINY)
    assert_covers(conc_out, abs_out)


# one guard of each shape: a variable against a constant side and flipped,
# both congruences and a zero modulus, sides that both fold (one with an
# overflow note), and the fallback, whose sides warn
guard_shapes = st.sampled_from([
    "while (x <=. 2) { x =. 0; }", "while (x >. 7 -. 9) { x =. 0; }",
    "while (3 <=. x) { x =. 0; }", "while (5 +. 5 >. x) { x =. 0; }",
    "while (x %. 3 ==. 1) { x =. 0; }", "while (x %. 2 !=. 0) { x =. 0; }",
    "while (x %. 0 ==. 1) { x =. 0; }", "while (1 <=. 2) { x =. 0; }",
    "while (8 +. 1 ==. 8) { x =. 0; }", "while (x <. y +. 1) { x =. 0; }",
    "while (x /. y !=. 0) { x =. 0; }",
])


@settings(max_examples=300, deadline=None)
@given(ranges(-6, 6, 5), ranges(-6, 6, 5), guard_shapes)
def test_false_edge_is_the_negated_guards_true_edge(x, y, source):
    # a uniform spec charges the guard's comparison and its negation alike
    guard = parse_program(source).body.stmts[0].cond
    negated = Cmp(NEGATED[guard.op], guard.lhs, guard.rhs, guard.line)
    warnings, negated_warnings = [], []
    fails = compile_flat_guard(abstract, guard, XYZ, TINY, warnings)[1]
    holds = compile_flat_guard(abstract, negated, XYZ, TINY,
                               negated_warnings)[0]
    assert fails((x, y)) == holds((x, y))
    assert warnings == negated_warnings


# --- widening ---

T = (-32768, 0, 3, 9, 10, 32767)


def test_widen_jumps_to_thresholds():
    assert widen((0, 3, 1.0), (0, 6, 1.0), T) == (0, 9, 1.0)


def test_widen_identities():
    e = (1, 4, 0.5)
    assert widen(e, None, T) == e
    assert widen(None, e, T) == e
    assert widen(e, (2, 3, 0.9), T) == e  # contained, denser
    # contained, sparser: the stored triple stays, whatever the densities
    assert widen((1, 2, 0.9), (1, 2, 0.1), T) == (1, 2, 0.9)


def test_widen_takes_larger_density_capped():
    lo, hi, p = widen((0, 3, 0.2), (0, 6, 0.7), T)
    assert (lo, hi) == (0, 9)
    assert math.isclose(p, 10 * 0.1, rel_tol=1e-12)


@given(ranges(), ranges(), st.frozensets(st.integers(-8, 8), max_size=5))
def test_widen_covers_both_arguments(a, b, mids):
    thresholds = tuple(sorted({-100, 100} | mids))
    lo, hi, _ = widen(a, b, thresholds)
    assert lo <= min(a[0], b[0]) and max(a[1], b[1]) <= hi


@given(ranges(), ranges(), st.frozensets(st.integers(-8, 8), max_size=5))
def test_widen_lands_on_thresholds(a, b, mids):
    thresholds = tuple(sorted({-100, 100} | mids))
    if a[0] <= b[0] and b[1] <= a[1]:
        return
    lo, hi, _ = widen(a, b, thresholds)
    # the nearest thresholds enclosing the hull
    assert lo == max(t for t in thresholds if t <= min(a[0], b[0]))
    assert hi == min(t for t in thresholds if t >= max(a[1], b[1]))


@settings(max_examples=50, deadline=None)
@given(st.lists(ranges(), min_size=40, max_size=40))
def test_widen_chains_stabilize(chain):
    thresholds = (-100, -3, 0, 5, 100)
    cur = None
    changes = 0
    for e in chain:
        nxt = widen(cur, join(cur, e), thresholds)
        if nxt != cur:
            cur = nxt
            changes += 1
    # the first element, then widenings only: a recomputation inside the
    # stored interval keeps it, so each change moves an endpoint outward
    # across at least one threshold
    assert changes <= 2 * len(thresholds) + 1


flat_state = st.one_of(
    st.none(), st.lists(ranges(max_width=17), min_size=3, max_size=3).map(
        tuple))


@settings(max_examples=300)
@given(flat_state, flat_state, st.frozensets(st.integers(-8, 8), max_size=5))
def test_widen_states_idempotent(cur, new, mids):
    # the solver does not revisit a widened loop head: recomputing it from
    # unchanged sources yields `new` again, which must commit nothing
    thresholds = tuple(sorted({-32768, 32767} | mids))
    w = widen_states(cur, new, thresholds)
    assert widen_states(w, new, thresholds) == w


# --- state helpers ---

def test_state_helpers():
    a = ((0, 1, 0.9), (2, 2, 0.8))
    b = ((3, 4, 0.9), (2, 2, 0.6))
    j = join_states(a, b)
    assert j[0][:2] == (0, 4)
    assert leq_states(a, j) and leq_states(b, j)
    assert leq_states(None, a)
    assert not leq_states(a, None)
    assert value_part(a) == value_part(((0, 1, 0.1), (2, 2, 0.2)))
    assert value_part(a) != value_part(b) and value_part(a) != value_part(j)
    assert value_part(a) != value_part(((0, 2, 0.9), (2, 2, 0.8)))
    w = widen_states(a, b, T)
    assert w[0][0] <= 0 and w[0][1] >= 4


def test_entry_state_is_full_and_certain():
    assert abstract.entry_state(("x",), TINY) == ((-8, 8),)
    assert flat_entry(abstract, ("x",), TINY) == ((-8, 8, 1.0),)
