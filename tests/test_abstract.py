import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probrange import abstract
from probrange.abstract import ValueRange
from probrange.concrete import ValueSet
from probrange.hardware import HardwareSpec, c_div, c_mod

from helpers import (ABSTRACT, CONCRETE, BottomArgument, alpha, clamp, gamma,
                     join, leq, meet, pmf, range_top,
                     reference_refine_congruence, triple, widen, width)

# dict-state transfers and helpers, compiled per call
bottom_state, entry_state = ABSTRACT.bottom_state, ABSTRACT.entry_state
eval_interval = ABSTRACT.eval_interval
sp_assign, sp_guard = ABSTRACT.sp_assign, ABSTRACT.sp_guard
join_states, leq_states = ABSTRACT.join_states, ABSTRACT.leq_states
state_is_bottom, widen_states = ABSTRACT.state_is_bottom, ABSTRACT.widen_states
value_part = ABSTRACT.value_part
conc_assign, conc_guard = CONCRETE.sp_assign, CONCRETE.sp_guard

SPEC = HardwareSpec.uniform(0.9999)
TINY = HardwareSpec.uniform(0.9, minint=-8, maxint=8)


def rhs_of(source: str):
    from probrange.syntax import parse_program
    return parse_program(source).body.stmts[0].value


def guard_of(source: str):
    from probrange.syntax import parse_program
    return parse_program(source).body.stmts[0].cond


@st.composite
def ranges(draw, lo_min=-8, hi_max=8, max_width=6):
    lo = draw(st.integers(lo_min, hi_max))
    hi = draw(st.integers(lo, min(hi_max, lo + max_width - 1)))
    prob = draw(st.floats(0, 1, allow_nan=False))
    return ValueRange(lo, hi, prob)


maybe_bottom = st.one_of(st.just(ValueRange.bottom()), ranges())

# canonical concrete elements only: the one empty element is <{}, 1>. An
# empty set paired with a smaller probability sits strictly above it, and
# abstraction cannot tell them apart, so extensivity holds only for these.
value_sets = st.one_of(
    st.just(ValueSet.bottom()),
    st.builds(ValueSet,
              st.frozensets(st.integers(-8, 8), min_size=1, max_size=6),
              st.floats(0, 1, allow_nan=False)))


# --- element basics ---

def test_density_pinned():
    assert pmf(ValueRange(0, 12, 1.0)) == 1 / 13
    assert math.isclose(pmf(ValueRange(10, 12, 0.23073461689056984)),
                        0.07691153896, rel_tol=1e-9)
    assert pmf(ValueRange(5, 5, 0.7)) == 0.7
    with pytest.raises(BottomArgument):
        pmf(ValueRange.bottom())


def test_canonical_bottom_enforced():
    assert ValueRange.bottom() == ValueRange(0, -1, 1.0)
    assert ValueRange.bottom().is_bottom
    assert width(ValueRange.bottom()) == 0
    with pytest.raises(ValueError):
        ValueRange(3, 1, 0.5)
    with pytest.raises(ValueError):
        ValueRange(0, 0, 1.5)


def test_top_and_width():
    top = range_top(-8, 8)
    assert (top.lo, top.hi, top.prob) == (-8, 8, 0.0)
    assert width(top) == 17
    assert width(ValueRange(2, 5, 0.5)) == 4


def test_order_pinned():
    assert leq(ValueRange(2, 3, 0.5), ValueRange(0, 12, 1.0))
    assert not leq(ValueRange(0, 3, 0.2), ValueRange(0, 12, 1.0))
    assert not leq(ValueRange(0, 13, 1.0), ValueRange(0, 12, 1.0))
    assert leq(ValueRange.bottom(), ValueRange(0, 0, 1.0))
    assert not leq(ValueRange(0, 0, 1.0), ValueRange.bottom())


def test_join_pinned():
    assert join(ValueRange(0, 0, 1.0), ValueRange(3, 3, 1.0)) == \
        ValueRange(0, 3, 1.0)
    j = join(ValueRange(0, 1, 0.2), ValueRange(4, 5, 0.4))
    assert (j.lo, j.hi) == (0, 5)
    assert math.isclose(j.prob, 0.6, rel_tol=1e-12)
    e = ValueRange(1, 4, 0.3)
    assert join(e, ValueRange.bottom()) == e
    assert join(ValueRange.bottom(), e) == e


def test_join_caps_at_hull_density():
    # two adjacent certain singletons: mass 2 * 1/2 capped by 1/w = 1/2
    assert join(ValueRange(0, 0, 1.0), ValueRange(1, 1, 1.0)) == \
        ValueRange(0, 1, 1.0)


def test_meet_pinned():
    m = meet(ValueRange(0, 5, 0.6), ValueRange(3, 8, 0.6))
    assert (m.lo, m.hi) == (3, 5)
    assert math.isclose(m.prob, 0.3, rel_tol=1e-12)
    assert meet(ValueRange(0, 2, 0.5), ValueRange(4, 6, 0.5)) == \
        ValueRange.bottom()
    assert meet(ValueRange.bottom(), ValueRange(0, 5, 1.0)) == \
        ValueRange.bottom()


@given(ranges(), ranges())
def test_meet_cap_never_fires_for_well_formed(a, b):
    # mass w_meet * pmf stays under each argument's own mass, so under 1;
    # rounding is monotone, so not even an ulp can push it over
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = meet(a, b)
    assert m.prob <= 1.0


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
    lambda lo, w, k: ValueRange(lo, lo + w - 1, k / 16),
    st.integers(-8, 4), st.integers(1, 4), st.integers(0, 16))


@given(grid_ranges, grid_ranges, grid_ranges)
def test_order_transitive(a, b, c):
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


# --- Galois connection ---

def test_alpha_pinned():
    a = alpha(ValueSet(frozenset({0, 3, 6, 9, 12}), 0.07))
    assert (a.lo, a.hi) == (0, 12)
    assert math.isclose(a.prob, 0.91, rel_tol=1e-12)
    assert alpha(ValueSet(frozenset({5}), 0.3)) == ValueRange(5, 5, 0.3)
    assert alpha(ValueSet.bottom()) == ValueRange.bottom()
    assert alpha(ValueSet(frozenset(range(0, 13)), 0.5)).prob == 1.0


def test_gamma_pinned():
    c = gamma(ValueRange(10, 12, 0.3))
    assert c.values == frozenset({10, 11, 12})
    assert math.isclose(c.prob, 0.1, rel_tol=1e-12)
    assert gamma(ValueRange.bottom()) == ValueSet.bottom()
    assert gamma(ValueRange(4, 4, 0.9)) == ValueSet(frozenset({4}), 0.9)


@given(maybe_bottom)
def test_alpha_after_gamma_is_identity(m):
    back = alpha(gamma(m))
    assert (back.lo, back.hi) == (m.lo, m.hi)
    assert abs(back.prob - m.prob) <= 1e-12


@given(value_sets)
def test_gamma_after_alpha_is_extensive(c):
    assert leq(c, gamma(alpha(c)))


@given(value_sets, st.frozensets(st.integers(-8, 8), max_size=4),
       st.floats(0, 1, allow_nan=False))
def test_alpha_monotone(c, extra, q):
    lower = ValueSet(c.values, max(c.prob, q))
    upper = ValueSet(c.values | extra, min(c.prob, q))
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
    state = {"x": x, "y": y}
    lo, hi = eval_interval(expr, state, TINY, [])
    for a in range(x.lo, x.hi + 1):
        for b in range(y.lo, y.hi + 1):
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
    assert eval_interval(expr, {"x": ValueRange(-3, 0, 1.0)}, SPEC, []) == (-3, 0)
    assert eval_interval(expr, {"x": ValueRange(6, 8, 1.0)}, SPEC, []) == (1, 3)


def test_entirely_out_of_range_interval_saturates():
    expr = rhs_of("z =. x *. x;")
    warns = []
    assert eval_interval(expr, {"x": ValueRange(4, 6, 1.0)}, TINY, warns) == (8, 8)
    assert any("overflow" in w for w in warns)


def test_mod_by_constant_wide_interval():
    expr = rhs_of("z =. x %. 3;")
    assert eval_interval(expr, {"x": ValueRange(0, 9, 1.0)}, SPEC, []) == (0, 2)
    assert eval_interval(expr, {"x": ValueRange(-7, 9, 1.0)}, SPEC, []) == (-2, 2)


def test_mod_by_interval():
    expr = rhs_of("z =. x %. y;")
    state = {"x": ValueRange(5, 20, 1.0), "y": ValueRange(2, 3, 1.0)}
    assert eval_interval(expr, state, SPEC, []) == (0, 2)


def test_division_by_interval_containing_zero_widens():
    expr = rhs_of("z =. x /. y;")
    state = {"x": ValueRange(1, 2, 1.0), "y": ValueRange(-1, 2, 1.0)}
    warns = []
    assert eval_interval(expr, state, TINY, warns) == (-8, 8)
    assert any("contains zero" in w for w in warns)


def test_modulus_interval_containing_zero_widens():
    expr = rhs_of("z =. x %. y;")
    state = {"x": ValueRange(1, 2, 1.0), "y": ValueRange(0, 2, 1.0)}
    warns = []
    assert eval_interval(expr, state, TINY, warns) == (-8, 8)
    assert any("contains zero" in w for w in warns)


def test_overflow_clamps_and_warns():
    expr = rhs_of("z =. x *. x;")
    warns = []
    assert eval_interval(expr, {"x": ValueRange(2, 4, 1.0)}, TINY, warns) == (4, 8)
    assert any("overflow" in w for w in warns)


# --- assignment transfer ---

def test_assign_constant():
    state = entry_state(("x",), SPEC)
    out = sp_assign(state, "x", rhs_of("x =. 0;"), SPEC, [])
    assert out["x"] == ValueRange(0, 0, SPEC.rel("write"))


def test_assign_increment():
    state = {"x": ValueRange(0, 9, 0.5)}
    out = sp_assign(state, "x", rhs_of("x =. x +. 3;"), SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (3, 12)
    want = 0.5 * SPEC.rel("read") * SPEC.rel("add") * SPEC.rel("write")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_assign_mass_shrinks_with_width():
    # [0,9] / 100 collapses to [0,0]: only a tenth of the mass can remain
    state = {"x": ValueRange(0, 9, 0.9)}
    out = sp_assign(state, "x", rhs_of("x =. x /. 100;"), SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (0, 0)
    want = (0.9 / 10) * SPEC.rel("read") * SPEC.rel("div") * SPEC.rel("write")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_assign_two_variables():
    state = {"x": ValueRange(0, 1, 0.8), "y": ValueRange(10, 20, 0.55),
             "z": ValueRange(7, 7, 0.3)}
    out = sp_assign(state, "z", rhs_of("z =. x +. y;"), SPEC, [])
    assert (out["z"].lo, out["z"].hi) == (10, 21)
    want = (SPEC.rel("write") * SPEC.rel("read") ** 2 * SPEC.rel("add")
            * (0.8 / 2) * (0.55 / 11) * 12)
    assert math.isclose(out["z"].prob, want, rel_tol=1e-12)
    assert out["x"] == state["x"] and out["y"] == state["y"]


def test_assign_bottom_state_unchanged():
    state = bottom_state(("x", "y"))
    assert sp_assign(state, "x", rhs_of("x =. 1;"), SPEC, []) == state


assign_exprs = st.sampled_from([
    "x =. x +. y;", "x =. x *. y;", "x =. y -. x;", "x =. x /. y;",
    "x =. x %. y;", "x =. y %. 3;", "x =. x *. x +. y;", "x =. 2;",
])


@settings(max_examples=200, deadline=None)
@given(ranges(-6, 6, 5), ranges(-6, 6, 5), assign_exprs)
def test_assign_locally_sound(x, y, source):
    m_state = {"x": x, "y": y}
    c_state = {"x": gamma(x), "y": gamma(y)}
    expr = rhs_of(source)
    abs_out = sp_assign(m_state, "x", expr, TINY, [])
    conc_out = conc_assign(c_state, "x", expr, TINY, [])
    for v in ("x", "y"):
        assert leq(alpha(conc_out[v]), abs_out[v]), (v, conc_out[v], abs_out[v])


# --- guard transfer ---

def test_guard_le_pinned():
    state = {"x": ValueRange(0, 12, 1.0)}
    out = sp_guard(state, guard_of("while (x <=. 9) { x =. 0; }"), SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (0, 9)
    want = (10 / 13) * SPEC.rel("read") * SPEC.rel("le")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_guard_ge_pinned():
    state = {"x": ValueRange(0, 12, 1.0)}
    out = sp_guard(state, guard_of("while (x >=. 10) { x =. 0; }"), SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (10, 12)
    assert math.isclose(out["x"].prob, 0.23073461689056984, rel_tol=1e-12)


def test_guard_congruence_trims_endpoints():
    state = {"x": ValueRange(2, 32767, 0.9)}
    out = sp_guard(state, guard_of("while (x %. 2 ==. 0) { x =. 0; }"),
                   SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (2, 32766)
    want = (0.9 * (32765 / 32766) * SPEC.rel("read") * SPEC.rel("eq")
            * SPEC.rel("mod"))
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_guard_congruence_spans_sign_change():
    state = {"x": ValueRange(-32768, 5, 1.0)}
    out = sp_guard(state, guard_of("while (x %. 10 ==. 3) { x =. 0; }"),
                   SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (3, 3)


def test_guard_congruence_negative_remainder():
    state = {"x": ValueRange(-10, 10, 1.0)}
    out = sp_guard(state, guard_of("while (x %. 3 ==. -2) { x =. 0; }"),
                   SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (-8, -2)


def test_guard_congruence_ne():
    state = {"x": ValueRange(0, 6, 1.0)}
    out = sp_guard(state, guard_of("while (x %. 3 !=. 0) { x =. 0; }"),
                   SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (1, 5)


def test_guard_congruence_unsatisfiable():
    state = {"x": ValueRange(0, 5, 1.0), "y": ValueRange(1, 1, 1.0)}
    out = sp_guard(state, guard_of("while (x %. 2 ==. 7) { x =. 0; }"),
                   SPEC, [])
    assert out == bottom_state(("x", "y"))


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 12), st.integers(-13, 13), st.booleans(),
       st.integers(-40, 20), st.integers(0, 40), st.floats(0, 1))
def test_congruence_bounds_match_the_scan(k, c, keep_equal, lo, width, p):
    # the closed-form narrowing of `x %. k ==. c` (keep_equal) or `!=. c`
    # against the scan of up to 2k values it replaced; about half of the
    # intervals cross zero, where c_mod's residues change sign
    state = ((0, 5, 0.5), (lo, lo + width, p), (7, 7, 1.0))
    assert abstract._refine_congruence(0.99, 1, k, c, keep_equal, state) == \
        reference_refine_congruence(0.99, 1, k, c, keep_equal, state)


def test_guard_zero_modulus_scales_without_refining():
    state = {"x": ValueRange(0, 5, 1.0)}
    warns = []
    out = sp_guard(state, guard_of("while (x %. 0 ==. 1) { x =. 0; }"),
                   SPEC, warns)
    assert (out["x"].lo, out["x"].hi) == (0, 5)
    assert any("zero" in w for w in warns)


def test_guard_constant_side_flipped():
    state = {"x": ValueRange(0, 12, 1.0)}
    out = sp_guard(state, guard_of("while (10 >=. x) { x =. 0; }"), SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (0, 10)
    want = (11 / 13) * SPEC.rel("read") * SPEC.rel("ge")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_guard_constant_guard_true():
    state = {"x": ValueRange(3, 4, 0.8)}
    out = sp_guard(state, guard_of("while (1 <=. 2) { x =. 0; }"), SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (3, 4)
    assert math.isclose(out["x"].prob, 0.8 * SPEC.rel("le"), rel_tol=1e-12)


def test_guard_constant_guard_false():
    state = {"x": ValueRange(3, 4, 0.8)}
    out = sp_guard(state, guard_of("while (1 >. 2) { x =. 0; }"), SPEC, [])
    assert out == bottom_state(("x",))


def test_guard_not_refinable_scales_all():
    state = {"x": ValueRange(0, 5, 0.9), "y": ValueRange(2, 3, 0.7)}
    out = sp_guard(state, guard_of("while (x <. y) { x =. 0; }"), SPEC, [])
    factor = SPEC.rel("read") ** 2 * SPEC.rel("lt")
    assert (out["x"].lo, out["x"].hi) == (0, 5)
    assert (out["y"].lo, out["y"].hi) == (2, 3)
    assert math.isclose(out["x"].prob, 0.9 * factor, rel_tol=1e-12)
    assert math.isclose(out["y"].prob, 0.7 * factor, rel_tol=1e-12)


def test_guard_unsatisfiable_compare_bottoms_state():
    state = {"x": ValueRange(0, 5, 1.0), "y": ValueRange(0, 0, 1.0)}
    out = sp_guard(state, guard_of("while (x >=. 10) { x =. 0; }"), SPEC, [])
    assert out == bottom_state(("x", "y"))


def test_guard_eq_pinned():
    state = {"x": ValueRange(0, 12, 1.0)}
    inside = sp_guard(state, guard_of("while (x ==. 5) { x =. 0; }"), SPEC, [])
    assert (inside["x"].lo, inside["x"].hi) == (5, 5)
    want = (1 / 13) * SPEC.rel("read") * SPEC.rel("eq")
    assert math.isclose(inside["x"].prob, want, rel_tol=1e-12)
    outside = sp_guard(state, guard_of("while (x ==. 20) { x =. 0; }"),
                       SPEC, [])
    assert outside == bottom_state(("x",))


def test_guard_ne_trims_endpoints_only():
    state = {"x": ValueRange(3, 4, 1.0)}
    out = sp_guard(state, guard_of("while (x !=. 3) { x =. 0; }"), SPEC, [])
    assert (out["x"].lo, out["x"].hi) == (4, 4)
    mid = sp_guard({"x": ValueRange(1, 5, 1.0)},
                   guard_of("while (x !=. 3) { x =. 0; }"), SPEC, [])
    assert (mid["x"].lo, mid["x"].hi) == (1, 5)
    single = sp_guard({"x": ValueRange(3, 3, 1.0)},
                      guard_of("while (x !=. 3) { x =. 0; }"), SPEC, [])
    assert single == bottom_state(("x",))


def test_guard_bottom_state_unchanged():
    state = bottom_state(("x",))
    assert sp_guard(state, guard_of("while (x >. 0) { x =. 0; }"),
                    SPEC, []) == state


guard_sources = st.sampled_from([
    "while (x <=. 2) { x =. 0; }", "while (x >. y) { x =. 0; }",
    "while (x %. 2 ==. 0) { x =. 0; }", "while (3 <=. x) { x =. 0; }",
    "while (x !=. 0) { x =. 0; }", "while (x <. y +. 1) { x =. 0; }",
    "while (x %. 3 !=. 1) { x =. 0; }", "while (x ==. y) { x =. 0; }",
])


@settings(max_examples=200, deadline=None)
@given(ranges(-6, 6, 5), ranges(-6, 6, 5), guard_sources)
def test_guard_locally_sound(x, y, source):
    m_state = {"x": x, "y": y}
    c_state = {"x": gamma(x), "y": gamma(y)}
    guard = guard_of(source)
    abs_out = sp_guard(m_state, guard, TINY, [])
    conc_out = conc_guard(c_state, guard, TINY, [])
    for v in ("x", "y"):
        assert leq(alpha(conc_out[v]), abs_out[v]), (v, conc_out[v], abs_out[v])


# --- widening ---

T = (-32768, 0, 3, 9, 10, 32767)


def test_widen_jumps_to_thresholds():
    got = widen(ValueRange(0, 3, 1.0), ValueRange(0, 6, 1.0), T)
    assert got == ValueRange(0, 9, 1.0)


def test_widen_identities():
    e = ValueRange(1, 4, 0.5)
    assert widen(e, ValueRange.bottom(), T) == e
    assert widen(ValueRange.bottom(), e, T) == e
    assert widen(e, ValueRange(2, 3, 0.9), T) == e  # contained, denser


def test_widen_takes_larger_density_capped():
    got = widen(ValueRange(0, 3, 0.2), ValueRange(0, 6, 0.7), T)
    assert (got.lo, got.hi) == (0, 9)
    assert math.isclose(got.prob, 10 * 0.1, rel_tol=1e-12)


@given(ranges(), ranges(), st.frozensets(st.integers(-8, 8), max_size=5))
def test_widen_covers_both_arguments(a, b, mids):
    thresholds = tuple(sorted({-100, 100} | mids))
    w = widen(a, b, thresholds)
    assert w.lo <= min(a.lo, b.lo) and max(a.hi, b.hi) <= w.hi


@given(ranges(), ranges(), st.frozensets(st.integers(-8, 8), max_size=5))
def test_widen_lands_on_thresholds(a, b, mids):
    thresholds = tuple(sorted({-100, 100} | mids))
    if leq(b, a):
        return
    w = widen(a, b, thresholds)
    assert w.lo in thresholds and w.hi in thresholds


@settings(max_examples=50, deadline=None)
@given(st.lists(ranges(), min_size=40, max_size=40))
def test_widen_chains_stabilize(chain):
    thresholds = (-100, -3, 0, 5, 100)
    cur = ValueRange.bottom()
    changes = 0
    for e in chain:
        nxt = widen(cur, join(cur, e), thresholds)
        if nxt != cur:
            cur = nxt
            changes += 1
    # each endpoint can cross every threshold once, plus slack for the
    # one-off probability settling step after an interval move
    assert changes <= 3 * len(thresholds) + 3


flat_state = st.one_of(
    st.none(), st.lists(ranges(max_width=17), min_size=3, max_size=3).map(
        lambda elems: tuple(map(triple, elems))))


@settings(max_examples=300)
@given(flat_state, flat_state, st.frozensets(st.integers(-8, 8), max_size=5))
def test_widen_states_idempotent(cur, new, mids):
    # the solver does not revisit a widened loop head: recomputing it from
    # unchanged sources yields `new` again, which must commit nothing
    thresholds = tuple(sorted({-32768, 32767} | mids))
    w = abstract.widen_states(cur, new, thresholds)
    assert abstract.widen_states(w, new, thresholds) == w


# --- state helpers ---

def test_state_helpers():
    a = {"x": ValueRange(0, 1, 0.9), "y": ValueRange(2, 2, 0.8)}
    b = {"x": ValueRange(3, 4, 0.9), "y": ValueRange(2, 2, 0.6)}
    j = join_states(a, b)
    assert (j["x"].lo, j["x"].hi) == (0, 4)
    assert leq_states(a, j) and leq_states(b, j)
    assert leq_states(bottom_state(("x", "y")), a)
    assert not leq_states(a, bottom_state(("x", "y")))
    assert value_part(a) == ((0, 1), (2, 2))
    assert value_part(bottom_state(("x", "y"))) == ()
    assert state_is_bottom({"x": ValueRange.bottom(), "y": ValueRange(0, 1, 1.0)})
    w = widen_states(a, b, T)
    assert w["x"].lo <= 0 and w["x"].hi >= 4


def test_entry_state_is_full_and_certain():
    s = entry_state(("x",), TINY)
    assert s["x"] == ValueRange(-8, 8, 1.0)
