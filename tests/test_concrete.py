import math
import operator
import random
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (CORPUS, XYZ, analyze, apply_assign, apply_guard,
                     bounded_loop_program, compile_flat_assign,
                     compile_flat_guard, flat_entry, join, join_states, leq,
                     leq_states, loop_program, meet, product_sets,
                     random_program, reference_compile_assign,
                     reference_compile_guard, reliable, set_top, value_part)

from probrange import concrete
from probrange.cli import build_report, render_text
from probrange.concrete import OracleBlowup
from probrange.hardware import HardwareSpec
from probrange.syntax import (NEGATED, Assign, Cmp, LiteralRangeError,
                              parse_program)

SPEC = HardwareSpec.uniform(0.9999)
TINY = HardwareSpec.uniform(0.9, minint=-8, maxint=8)

# transfers on flat states over x, y, z, each edge compiled per call
sp_assign, sp_guard = (partial(apply_assign, concrete),
                       partial(apply_guard, concrete))


def pair(*values, prob=1.0):
    """A variable's (values, prob) pair, as a flat state holds it."""
    return frozenset(values), prob


def guard_of(source: str):
    return parse_program(source).body.stmts[0].cond


elements = st.one_of(st.none(), st.tuples(
    st.frozensets(st.integers(-8, 8), max_size=6),
    st.floats(0, 1, allow_nan=False)))


# --- lattice ---

def test_order_is_subset_and_higher_prob():
    assert leq(pair(0, 3, prob=0.9), pair(0, 3, 6, prob=0.8))
    assert leq(pair(0, 3, prob=0.9), pair(0, 3, prob=0.9))
    assert not leq(pair(0, 5, prob=0.9), pair(0, 3, 6, prob=0.8))
    assert not leq(pair(0, prob=0.5), pair(0, prob=0.9))


def test_join_unions_and_takes_min_prob():
    assert join(pair(0, prob=0.9), pair(3, prob=0.8)) == pair(0, 3, prob=0.8)
    assert join(pair(1, prob=0.5), pair(1, prob=0.7)) == pair(1, prob=0.5)


def test_join_bottom_is_identity():
    e = pair(2, 4, prob=0.6)
    assert join(e, None) == e
    assert join(None, e) == e


def test_meet_intersects_and_takes_max_prob():
    assert meet(pair(0, 3, prob=0.9), pair(3, 6, prob=0.8)) == pair(3, prob=0.9)


def test_meet_disjoint_keeps_max_prob():
    # the literal greatest-lower-bound formula: empty set, larger probability
    assert meet(pair(0, 3, prob=0.9), pair(6, prob=0.8)) == (frozenset(), 0.9)


def test_meet_top_is_identity():
    top = set_top(-8, 8)
    e = pair(1, 2, prob=0.4)
    assert meet(e, top) == e


def test_extremes():
    top = set_top(-8, 8)
    for e in (None, top, pair(0, prob=0.5), pair(-8, 8, prob=1.0)):
        assert leq(None, e)
        assert leq(e, top)


@given(elements, elements)
def test_join_is_upper_bound(a, b):
    j = join(a, b)
    assert leq(a, j) and leq(b, j)


@given(elements, elements, elements)
def test_join_least_among_upper_bounds(a, b, c):
    if leq(a, c) and leq(b, c):
        assert leq(join(a, b), c)


@given(elements, elements)
def test_meet_is_lower_bound_on_values(a, b):
    m = meet(a, b)
    if a is None or b is None:
        assert m is None
    else:
        assert m[0] <= a[0] and m[0] <= b[0]
        assert m[1] == max(a[1], b[1])


@given(elements, elements, elements)
def test_meet_greatest_among_lower_bounds(a, b, c):
    if leq(c, a) and leq(c, b):
        assert leq(c, meet(a, b))


@given(elements, elements)
def test_join_meet_commute(a, b):
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)


@given(elements, elements, elements)
def test_join_associative(a, b, c):
    assert join(join(a, b), c) == join(a, join(b, c))


@given(elements)
def test_order_reflexive(a):
    assert leq(a, a)


# grid probabilities: the 1e-12 comparison slack must not accumulate across
# the two hypotheses, which adversarial float triples could otherwise arrange
grid_elements = st.one_of(st.none(), st.tuples(
    st.frozensets(st.integers(-8, 8), max_size=6),
    st.integers(0, 16).map(lambda k: k / 16)))


@given(grid_elements, grid_elements, grid_elements)
def test_order_transitive(a, b, c):
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


# --- assignment transfer ---

def test_assign_constant():
    state = flat_entry(concrete, ("x",), SPEC)
    (values, p), = sp_assign(state, "x =. 0;", SPEC)
    assert values == frozenset({0})
    assert math.isclose(p, SPEC.rel("write"), rel_tol=1e-12)
    assert math.isclose(p, 0.99990000152, rel_tol=1e-9)


def test_assign_increment():
    (values, p), = sp_assign((pair(0, 3, 6, 9, prob=0.75),), "x =. x +. 3;",
                             SPEC)
    assert values == frozenset({3, 6, 9, 12})
    want = 0.75 * SPEC.rel("read") * SPEC.rel("add") * SPEC.rel("write")
    assert math.isclose(p, want, rel_tol=1e-12)


def test_assign_charges_each_distinct_variable_once():
    state = (pair(0, prob=1.0), pair(1, 2, prob=0.9))
    (values, p), _ = sp_assign(state, "x =. y +. y;", SPEC)
    # one tuple per y value: y + y is evaluated with both reads agreeing
    assert values == frozenset({2, 4})
    want = 0.9 * SPEC.rel("write") * SPEC.rel("read") * SPEC.rel("add")
    assert math.isclose(p, want, rel_tol=1e-12)


def test_assign_two_variables():
    state = (pair(0, 1, prob=0.8), pair(10, 20, prob=0.5), pair(7, prob=0.3))
    out = sp_assign(state, "z =. x +. y;", SPEC)
    values, p = out[2]
    assert values == frozenset({10, 11, 20, 21})
    want = (SPEC.rel("write") * SPEC.rel("read") ** 2 * 0.8 * 0.5
            * SPEC.rel("add"))
    assert math.isclose(p, want, rel_tol=1e-12)
    assert out[:2] == state[:2]


def test_assign_bottom_state_unchanged():
    assert sp_assign(None, "x =. 1;", SPEC) is None


def test_assign_division_by_zero_tuple_excluded():
    state = (pair(0, 1, 2, prob=1.0), pair(0, prob=1.0))
    warnings = []
    out = sp_assign(state, "y =. 10 /. x;", TINY, warnings)
    assert out[1][0] == frozenset({8, 5})  # 10/1 clamps to 8, 10/2 = 5
    assert any("division by zero" in w for w in warnings)


def test_assign_all_tuples_divide_by_zero_bottoms_state():
    state = (pair(0, prob=1.0), pair(5, prob=0.9))
    warnings = []
    assert sp_assign(state, "y =. 10 /. x;", TINY, warnings) is None
    assert any("unreachable" in w for w in warnings)


def test_assign_overflow_clamps_and_warns():
    warnings = []
    out = sp_assign((pair(7, prob=1.0),), "x =. x +. 7;", TINY, warnings)
    assert out[0][0] == frozenset({8})
    assert any("overflow" in w for w in warnings)


def test_assign_blowup_raises(monkeypatch):
    monkeypatch.setattr(concrete, "TUPLE_CAP", 100)
    state = (pair(*range(-8, 9), prob=1.0),) * 3
    with pytest.raises(OracleBlowup,
                       match=r"tuple product over \('x', 'y', 'z'\)"):
        sp_assign(state, "x =. x +. y *. z;", TINY)


def test_assign_blowup_names_operands_sorted(monkeypatch):
    # the message names the operands sorted, whatever order they appear in
    monkeypatch.setattr(concrete, "TUPLE_CAP", 100)
    state = (pair(*range(-8, 9), prob=1.0),) * 3
    with pytest.raises(OracleBlowup,
                       match=r"tuple product over \('x', 'y', 'z'\)"):
        sp_assign(state, "x =. z +. y *. x;", TINY)


def test_assign_nested_ops_each_charged():
    (values, p), = sp_assign((pair(2, prob=1.0),), "x =. x *. x +. 1;", TINY)
    assert values == frozenset({5})
    want = (TINY.rel("write") * TINY.rel("read") * TINY.rel("mul")
            * TINY.rel("add"))
    assert math.isclose(p, want, rel_tol=1e-12)


# --- guard transfer ---

def test_guard_le_filters_values():
    (values, p), = sp_guard((pair(0, 3, 6, 9, 12, prob=0.9),),
                            "while (x <=. 9) { x =. 0; }", SPEC)
    assert values == frozenset({0, 3, 6, 9})
    want = 0.9 * SPEC.rel("read") * SPEC.rel("le")
    assert math.isclose(p, want, rel_tol=1e-12)


def test_guard_ge_keeps_last_value():
    out = sp_guard((pair(0, 3, 6, 9, 12, prob=0.9),),
                   "while (x >=. 10) { x =. 0; }", SPEC)
    assert out[0][0] == frozenset({12})


def test_guard_scales_every_variable():
    state = (pair(0, 5, prob=1.0), pair(7, prob=1.0))
    _, (values, p) = sp_guard(state, "while (x >. 1) { x =. 0; }", SPEC)
    factor = SPEC.rel("read") * SPEC.rel("gt")
    assert math.isclose(p, factor, rel_tol=1e-12)
    assert values == frozenset({7})


def test_guard_unsatisfiable_bottoms_whole_state():
    state = (pair(0, 1, prob=0.9), pair(5, prob=0.8))
    assert sp_guard(state, "while (x >. 100) { x =. 0; }", SPEC) is None


def test_guard_relational_two_variables_projects_each():
    state = (pair(0, 1, 2, prob=1.0), pair(1, prob=1.0))
    (xs, _), (ys, _) = sp_guard(state, "while (x <. y) { x =. 0; }", SPEC)
    assert xs == frozenset({0})
    assert ys == frozenset({1})


def test_guard_arith_inside_charged():
    state = (pair(0, 1, prob=1.0), pair(2, prob=1.0))
    out = sp_guard(state, "while (x +. 1 <=. y) { x =. 0; }", SPEC)
    want = SPEC.rel("read") ** 2 * SPEC.rel("le") * SPEC.rel("add")
    assert math.isclose(out[0][1], want, rel_tol=1e-12)


def test_guard_congruence():
    (values, p), = sp_guard((pair(*range(0, 9), prob=1.0),),
                            "while (x %. 2 ==. 0) { x =. 0; }", TINY)
    assert values == frozenset({0, 2, 4, 6, 8})
    want = TINY.rel("read") * TINY.rel("eq") * TINY.rel("mod")
    assert math.isclose(p, want, rel_tol=1e-12)


def test_guard_constant_true_scales_only():
    (values, p), = sp_guard((pair(1, 2, prob=0.9),),
                            "while (1 <=. 2) { x =. 0; }", SPEC)
    assert values == frozenset({1, 2})
    assert math.isclose(p, 0.9 * SPEC.rel("le"), rel_tol=1e-12)


def test_guard_constant_false_bottoms_state():
    assert sp_guard((pair(1, 2, prob=0.9),), "while (1 >. 2) { x =. 0; }",
                    SPEC) is None


def test_guard_bottom_state_unchanged():
    assert sp_guard(None, "while (x >. 0) { x =. 0; }", SPEC) is None


def test_guard_division_by_zero_tuples_excluded():
    warnings = []
    out = sp_guard((pair(0, 1, prob=1.0),),
                   "while (10 /. x >. 0) { x =. 0; }", TINY, warnings)
    assert out[0][0] == frozenset({1})
    assert any("division by zero" in w for w in warnings)


# --- degeneracy and monotonicity ---

def test_fault_free_analysis_matches_product_oracle():
    # with every op at Pr=1 the probabilities degenerate to 1 and the value
    # sets must coincide with plain product semantics, computed independently
    rng = random.Random(4242)
    spec = reliable(minint=-8, maxint=8)
    for _ in range(25):
        source = random_program(rng)
        cfg, result = analyze(source, spec, domain="concrete")
        assert result.converged, source
        oracle = product_sets(cfg, -8, 8)
        for node, (state, probs) in enumerate(zip(result.values,
                                                  result.probs)):
            if state is None:
                assert not any(oracle[node].values()), \
                    f"node {node} of:\n{source}"
                continue
            for v, values, prob in zip(cfg.variables, state, probs):
                assert values == frozenset(oracle[node][v]), \
                    f"node {node} var {v} of:\n{source}"
                assert prob == 1.0


def test_reliable_hardware_keeps_probability_one():
    spec = reliable(minint=-8, maxint=8)
    state = flat_entry(concrete, ("x", "y"), spec)
    out = sp_assign(state, "x =. y +. 1;", spec)
    out = sp_guard(out, "while (x >. 0) { x =. 0; }", spec)
    (_, xp), (_, yp) = out
    assert xp == 1.0
    assert yp == 1.0


small_elements = st.tuples(
    st.frozensets(st.integers(-3, 3), min_size=1, max_size=4),
    st.floats(0.1, 1, allow_nan=False))

statements = st.sampled_from([
    "x =. x +. 1;", "x =. x *. y;", "x =. y -. x;", "x =. y /. x;",
    "x =. y %. 2;", "x =. 3;",
])

guards = st.sampled_from([
    "while (x <=. 0) { x =. 0; }", "while (x >. y) { x =. 0; }",
    "while (x ==. y) { x =. 0; }", "while (x %. 2 !=. 0) { x =. 0; }",
])


@settings(max_examples=150, deadline=None)
@given(small_elements, small_elements, small_elements, statements)
def test_sp_assign_monotone(a, b, y, stmt):
    x = meet(a, b) if meet(a, b)[0] else a
    lo, hi = (x, y), (join(x, b), y)
    assert leq_states(lo, hi)
    out_lo = sp_assign(lo, stmt, TINY)
    out_hi = sp_assign(hi, stmt, TINY)
    assert leq_states(out_lo, out_hi)


@settings(max_examples=150, deadline=None)
@given(small_elements, small_elements, small_elements, guards)
def test_sp_guard_monotone(a, b, y, src):
    x = meet(a, b) if meet(a, b)[0] else a
    lo, hi = (x, y), (join(x, b), y)
    out_lo = sp_guard(lo, src, TINY)
    out_hi = sp_guard(hi, src, TINY)
    assert leq_states(out_lo, out_hi)


# --- incremental edges ---

# a compiled edge enumerates only the operand tuples it has not seen; each
# action below reads 0-3 of x, y, z. Overflows on two lines make two
# warnings, whose order follows the order the new tuples are visited in
EDGE_ACTIONS = [
    "x =. 3;", "x =. 5 /. 0;", "x =. x +. 1;", "x =. y /. x;",
    "x =. y *. 4 -.\n  (x *. 4);",
    "y =. x %. y;", "x =. x *. y -. z;", "z =. (x +. y) /. (z -. 1);",
    "while (1 <=. 2) { x =. 0; }", "while (1 >. 2) { x =. 0; }",
    "while (1 /. 0 ==. 0) { x =. 0; }", "while (x <=. 0) { x =. 0; }",
    "while (x %. y ==. 0) { x =. 0; }", "while (x +. y <. z) { x =. 0; }",
    "while (x /. (y -. z) >=. 1) { x =. 0; }",
]


def compile_action(source: str, warnings: list):
    stmt = parse_program(source).body.stmts[0]
    if isinstance(stmt, Assign):
        return compile_flat_assign(concrete, stmt.target, stmt.value, XYZ,
                                   TINY, warnings)
    return compile_flat_guard(concrete, stmt.cond, XYZ, TINY, warnings)[0]


xyz_states = st.tuples(*[st.tuples(
    st.frozensets(st.integers(-6, 6), min_size=1, max_size=5),
    st.floats(0.1, 1, allow_nan=False))] * 3)
state_steps = st.lists(st.tuples(st.sampled_from(("grow", "grow", "bottom")),
                                 xyz_states),
                       min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EDGE_ACTIONS), state_steps)
def test_compiled_edge_matches_fresh_edge(source, steps):
    # states only grow, as in a solve, and each extends the enumeration; a
    # bottom step passes None and keeps the state for the next step. A fresh
    # edge per call, sharing one warnings list, is the reference
    warnings, fresh_warnings = [], []
    transfer = compile_action(source, warnings)
    state = None
    for kind, drawn in steps:
        if kind == "bottom":
            passed = None
        else:
            state = passed = join_states(state, drawn)
        fresh = compile_action(source, fresh_warnings)(passed)
        assert transfer(passed) == fresh
        assert warnings == fresh_warnings


def test_compiled_edge_visits_new_tuples_in_product_order():
    # (0, 3) overflows on line 1 and (3, 0) on line 2: the new tuples come
    # in the full product's order, so line 1 warns first, as a fresh edge does
    source = "x =. y *. 4 -.\n  (x *. 4);"
    warnings, fresh_warnings = [], []
    transfer = compile_action(source, warnings)
    for xs, ys in (((0,), (0,)), ((0, 3), (0, 3))):
        state = (pair(*xs), pair(*ys), pair(0))
        assert transfer(state) == compile_action(source, fresh_warnings)(state)
    assert warnings == fresh_warnings == [
        "line 1: arithmetic overflow clamped to [-8,8]",
        "line 2: arithmetic overflow clamped to [-8,8]"]


ARITH_TEXT = ("+.", "-.", "*.", "/.", "%.")


@st.composite
def expression_source(draw, ops: int) -> str:
    """An expression over x, y and literals in [-8,8] with ops operators,
    each operand on the operator's line or the next one."""
    if ops == 0:
        return draw(st.sampled_from(("x", "y")) | st.integers(-8, 8).map(str))
    left = draw(st.integers(0, ops - 1))
    return "({} {}{}{})".format(
        draw(expression_source(left)), draw(st.sampled_from(ARITH_TEXT)),
        draw(st.sampled_from((" ", "\n  "))),
        draw(expression_source(ops - 1 - left)))


@st.composite
def column_cases(draw):
    """An edge reading one or two of x, y with up to three operators, and
    the states it is applied to: operand sets that grow over several calls,
    each state given twice."""
    ops = draw(st.integers(0, 3))
    if draw(st.booleans()):
        read = draw(expression_source(ops))
        source = f"{draw(st.sampled_from(('x', 'y')))} =. {read};"
    else:
        left = draw(st.integers(0, ops))
        lhs = draw(expression_source(left))
        rhs = draw(expression_source(ops - left))
        compare = draw(st.sampled_from(("<.", "<=.", ">.", ">=.", "==.",
                                        "!=.")))
        source = f"while ({lhs} {compare} {rhs}) {{ x =. 0; }}"
        read = lhs + rhs
    assume("x" in read or "y" in read)
    sets = st.frozensets(st.integers(-8, 8), min_size=1, max_size=6)
    probs = st.floats(0.1, 1, allow_nan=False)
    state = draw(st.tuples(st.tuples(sets, probs), st.tuples(sets, probs)))
    states = [state]
    for grown in draw(st.lists(st.tuples(st.tuples(sets, probs),
                                         st.tuples(sets, probs)),
                               min_size=1, max_size=4)):
        state = join_states(state, grown)
        states.append(state)
    return source, [s for s in states for _ in range(2)]


@settings(max_examples=400, deadline=None)
@given(column_cases())
def test_column_edge_matches_tuple_at_a_time_reference(case):
    # on [-8,8] overflow is common and divisors can be 0: every call returns
    # the reference's state, and the warnings come in the reference's order
    source, states = case
    stmt = parse_program(source).body.stmts[0]
    index = {"x": 0, "y": 1}
    warnings, reference_warnings = [], []
    if isinstance(stmt, Assign):
        edge = compile_flat_assign(concrete, stmt.target, stmt.value, index,
                                   TINY, warnings)
        reference = reference_compile_assign(stmt.target, stmt.value, index,
                                             TINY, reference_warnings)
        for state in states:
            assert edge(state) == reference(state)
            assert warnings == reference_warnings
    else:
        assert_guard_edges_match_references(stmt.cond, index, states)


def negated(guard: Cmp) -> Cmp:
    return Cmp(NEGATED[guard.op], guard.lhs, guard.rhs, guard.line)


def assert_guard_edges_match_references(guard: Cmp, index: dict,
                                        states: list) -> list[str]:
    """Both edges of one compiled guard against the tuple-at-a-time guards
    testing its op and the negated op, on the same growing states; the
    warnings all three give. Which edge goes first changes every second
    state, as the column cases give each state twice; a uniform spec
    charges the two comparisons alike."""
    warnings, holds_warnings, fails_warnings = [], [], []
    edges = compile_flat_guard(concrete, guard, index, TINY, warnings)
    references = (reference_compile_guard(guard, index, TINY, holds_warnings),
                  reference_compile_guard(negated(guard), index, TINY,
                                          fails_warnings))
    for i, state in enumerate(states):
        for side in (0, 1) if i % 4 < 2 else (1, 0):
            assert edges[side](state) == references[side](state)
        assert warnings == holds_warnings == fails_warnings
    return warnings


@settings(max_examples=100, deadline=None)
@given(column_cases(), st.lists(st.sampled_from(((0,), (1,), (0, 1), (1, 0))),
                                min_size=10, max_size=10))
def test_one_scan_serves_both_guard_edges(case, calls):
    # either edge may skip a state, as when a solve recomputes only one
    # edge's target, and still sees every tuple of the grown state it is
    # called with: each call returns what a fresh edge returns
    source, states = case
    assume(source.startswith("while"))
    guard = parse_program(source).body.stmts[0].cond
    index = {"x": 0, "y": 1}
    edges = compile_flat_guard(concrete, guard, index, TINY, [])
    for state, sides in zip(states, calls):
        for side in sides:
            fresh = reference_compile_guard((guard, negated(guard))[side],
                                            index, TINY, [])
            assert edges[side](state) == fresh(state)


def test_column_warnings_follow_the_original_rows():
    # x /. x drops the row x = 0 before either x +. 5 overflows at x = 4:
    # line 1 overflows in an earlier step than line 4, at the same row
    guard = guard_of("while ((x +. 5) ==.\n (x /.\n x) *.\n (x +. 5)) "
                     "{ x =. 0; }")
    state = (pair(*range(-8, 9)), pair(0))
    assert assert_guard_edges_match_references(guard, {"x": 0, "y": 1},
                                               [state]) == [
        "line 2: division by zero (offending operand tuple excluded)",
        "line 1: arithmetic overflow clamped to [-8,8]",
        "line 4: arithmetic overflow clamped to [-8,8]"]


def test_join_keeps_a_shared_set():
    # a set both sides hold is returned as is, not unioned into a copy, and
    # so is a side that holds the union; a new union is the object that the
    # module's set table holds for its values
    shared = frozenset({1, 2})
    a = ((shared, 0.9), (frozenset({0}), 0.5))
    b = ((shared, 0.8), (frozenset({3}), 0.7))
    joined = join_states(a, b)
    assert joined[0][0] is shared and joined[0][1] == 0.8
    assert joined[1] == (frozenset({0, 3}), 0.5)
    wider = frozenset({0, 1, 2})
    c, d = ((wider, 0.9),), ((shared, 0.8),)
    assert join_states(c, d)[0] == (wider, 0.8)
    assert join_states(c, d)[0][0] is wider
    assert join_states(d, c)[0][0] is wider
    union = join_states(a, b)[1][0]
    again = ((shared, 0.8), (frozenset({3}), 0.7))
    assert join_states(a, again)[1][0] is union


def test_loops2_concrete_evaluates_each_guard_tuple_once_for_both_edges(
        monkeypatch):
    # every operand tuple that reaches an edge is evaluated once per solve,
    # a guard's once for both of its edges: 4,987 ops against 8,059 when
    # each guard edge scanned on its own, and 24,217 when each recomputation
    # enumerated the whole product
    calls = [0]

    def counted(op):
        def call(a, b):
            calls[0] += 1
            return op(a, b)
        return call

    for table in (concrete.ARITH, concrete.COMPARE):
        for name, op in list(table.items()):
            monkeypatch.setitem(table, name, counted(op))
    source = (Path(__file__).parent / "golden" / "loops2.up").read_text()
    spec = HardwareSpec.uniform(0.9999, minint=-64, maxint=63)
    _, result = analyze(source, spec, domain="concrete", max_iters=2000)
    assert result.converged and result.iterations == 7
    assert calls[0] == 4987


def test_loops2_concrete_holds_one_object_per_distinct_set():
    # the entry's range, images, kept sets and unions go through the module's
    # set table, so equal sets in the states and trace snapshots are one
    source = (Path(__file__).parent / "golden" / "loops2.up").read_text()
    spec = HardwareSpec.uniform(0.9999, minint=-64, maxint=63)
    _, result = analyze(source, spec, domain="concrete", max_iters=2000,
                        keep_trace=True)
    assert result.converged and len(result.trace) == 7
    snapshots = [result.values, *(values for values, _ in result.trace)]
    sets = [values for states in snapshots
            for state in states if state is not None for values in state]
    assert len(sets) == 2032
    assert len(set(map(id, sets))) == len(set(sets)) == 27


def test_loops2_concrete_solves_share_their_sets_and_reports():
    # the set table outlives a solve: while the first result is alive, a
    # second solve builds the very same set objects and the same report
    source = (Path(__file__).parent / "golden" / "loops2.up").read_text()
    spec = HardwareSpec.uniform(0.9999, minint=-64, maxint=63)
    results, reports = [], []
    for _ in range(2):
        cfg, result = analyze(source, spec, domain="concrete", max_iters=2000)
        results.append(result)
        reports.append(render_text(build_report(
            "loops2", "concrete", False, spec, cfg, result, result.warnings)))
    first, second = results
    assert first.values == second.values and first.probs == second.probs
    sets = [(a, b) for s, t in zip(first.values, second.values)
            if s is not None for a, b in zip(s, t)]
    assert sets and all(a is b for a, b in sets)
    assert reports[0] == reports[1]


def test_untraced_concrete_solve_frees_the_sets_it_replaced():
    # the set table holds its sets weakly: a 1000-trip count keeps a few
    # sets of up to 1001 values alive, not one per pass (about 44 MB when
    # the table held them all, 0.36 MB before there was a table)
    spec = HardwareSpec.uniform(0.9999, minint=0, maxint=1023)
    tracemalloc.start()
    try:
        _, result = analyze((CORPUS / "counter.up").read_text(), spec,
                            domain="concrete", max_iters=1100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged and result.iterations == 1001
    assert peak < 1_000_000


def test_solves_only_grow_the_operand_sets_an_edge_scans(monkeypatch):
    # a compiled edge extends what it kept and never starts over: within a
    # solve, every set an edge scanned before is a subset of its set now. A
    # guard's two edges share one scan, so the scans come to more than 9,000
    # only with 600 bounded-loop programs (400 gave 7,106)
    shrunk, calls = [], [0]
    fresh_columns = concrete._fresh_columns

    def checked(sets, seen):
        calls[0] += 1
        if seen is not None and not all(map(operator.le, seen, sets)):
            shrunk.append((seen, sets))
        return fresh_columns(sets, seen)

    monkeypatch.setattr(concrete, "_fresh_columns", checked)
    here = Path(__file__).parent
    programs = [(path.read_text(), lo, hi) for path in
                sorted([*CORPUS.glob("*.up"), *(here / "golden").glob("*.up")])
                for lo, hi in ((-64, 63), (-8, 8))]
    programs += [(loop_program(random.Random(seed)), -64, 63)
                 for seed in range(10)]
    programs += [(bounded_loop_program(random.Random(seed)), -8, 7)
                 for seed in range(600)]
    solved = 0
    for source, minint, maxint in programs:
        spec = HardwareSpec.uniform(0.999, minint=minint, maxint=maxint)
        try:  # as the CLI reports, a literal outside the range stops the
            # solve before any scan, and a product over the cap part way
            analyze(source, spec, domain="concrete", max_iters=2000)
        except (LiteralRangeError, OracleBlowup):
            continue
        solved += 1
    assert solved == 625 and calls[0] > 9000
    assert not shrunk, shrunk[:3]


def test_compiled_edge_blowup_on_grown_input(monkeypatch):
    # the cap bounds the full product on every call, not only the new tuples
    monkeypatch.setattr(concrete, "TUPLE_CAP", 10)
    warnings = []
    transfer = compile_action("x =. x +. y;", warnings)
    small = (pair(1, 2, 3), pair(0, 1, 2), pair(0))
    out = transfer(small)
    with pytest.raises(OracleBlowup):
        transfer((pair(1, 2, 3, 4), pair(0, 1, 2), pair(0)))
    assert transfer(small) == out


# --- state helpers ---

def test_state_join_and_value_part():
    a = (pair(0, prob=0.9), pair(1, prob=0.8))
    b = (pair(3, prob=0.7), pair(1, prob=0.95))
    j = join_states(a, b)
    assert j[0] == pair(0, 3, prob=0.7)
    assert j[1] == pair(1, prob=0.8)
    assert value_part(a) != value_part(b)
    assert value_part(j) == value_part((pair(0, 3, prob=0.1),
                                        pair(1, prob=0.2)))


def test_bottom_state_is_join_identity():
    a = (pair(0, prob=0.9),)
    assert join_states(None, a) == a
    assert value_part(None) == value_part(None)
    assert value_part(None) != value_part(a)
