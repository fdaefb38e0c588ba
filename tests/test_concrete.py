import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (CONCRETE, analyze, join, leq, meet, product_sets,
                     random_program, reference_compile_assign,
                     reference_compile_guard, reliable, set_top)

from probrange import concrete
from probrange.concrete import OracleBlowup, ValueSet
from probrange.hardware import HardwareSpec
from probrange.syntax import Assign, parse_program

SPEC = HardwareSpec.uniform(0.9999)
TINY = HardwareSpec.uniform(0.9, minint=-8, maxint=8)

# dict-state transfers and helpers, compiled per call
bottom_state, entry_state = CONCRETE.bottom_state, CONCRETE.entry_state
sp_assign, sp_guard = CONCRETE.sp_assign, CONCRETE.sp_guard
join_states, leq_states = CONCRETE.join_states, CONCRETE.leq_states
state_is_bottom, value_part = CONCRETE.state_is_bottom, CONCRETE.value_part


def elem(*values, prob=1.0):
    return ValueSet(frozenset(values), prob)


def pair(*values, prob=1.0):
    """The solver's flat form of elem(*values, prob=prob)."""
    return frozenset(values), prob


def rhs_of(source: str):
    return parse_program(source).body.stmts[0].value


def guard_of(source: str):
    return parse_program(source).body.stmts[0].cond


elements = st.builds(
    ValueSet,
    st.frozensets(st.integers(-8, 8), max_size=6),
    st.floats(0, 1, allow_nan=False))


# --- lattice ---

def test_order_is_subset_and_higher_prob():
    assert leq(elem(0, 3, prob=0.9), elem(0, 3, 6, prob=0.8))
    assert leq(elem(0, 3, prob=0.9), elem(0, 3, prob=0.9))
    assert not leq(elem(0, 5, prob=0.9), elem(0, 3, 6, prob=0.8))
    assert not leq(elem(0, prob=0.5), elem(0, prob=0.9))


def test_join_unions_and_takes_min_prob():
    assert join(elem(0, prob=0.9), elem(3, prob=0.8)) == elem(0, 3, prob=0.8)
    assert join(elem(1, prob=0.5), elem(1, prob=0.7)) == elem(1, prob=0.5)


def test_join_bottom_is_identity():
    e = elem(2, 4, prob=0.6)
    assert join(e, ValueSet.bottom()) == e
    assert join(ValueSet.bottom(), e) == e


def test_meet_intersects_and_takes_max_prob():
    assert meet(elem(0, 3, prob=0.9), elem(3, 6, prob=0.8)) == elem(3, prob=0.9)


def test_meet_disjoint_keeps_max_prob():
    # the literal greatest-lower-bound formula: empty set, larger probability
    assert meet(elem(0, 3, prob=0.9), elem(6, prob=0.8)) == \
        ValueSet(frozenset(), 0.9)


def test_meet_top_is_identity():
    top = set_top(-8, 8)
    e = elem(1, 2, prob=0.4)
    assert meet(e, top) == e


def test_extremes():
    bot, top = ValueSet.bottom(), set_top(-8, 8)
    for e in (bot, top, elem(0, prob=0.5), elem(-8, 8, prob=1.0)):
        assert leq(bot, e)
        assert leq(e, top)


def test_probability_validated():
    with pytest.raises(ValueError):
        ValueSet(frozenset({1}), 1.5)


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
    assert m.values <= a.values and m.values <= b.values
    assert m.prob == max(a.prob, b.prob)


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
grid_elements = st.builds(
    ValueSet,
    st.frozensets(st.integers(-8, 8), max_size=6),
    st.integers(0, 16).map(lambda k: k / 16))


@given(grid_elements, grid_elements, grid_elements)
def test_order_transitive(a, b, c):
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


# --- assignment transfer ---

def test_assign_constant():
    state = entry_state(("x",), SPEC)
    out = sp_assign(state, "x", rhs_of("x =. 0;"), SPEC, [])
    assert out["x"].values == frozenset({0})
    assert math.isclose(out["x"].prob, SPEC.rel("write"), rel_tol=1e-12)
    assert math.isclose(out["x"].prob, 0.99990000152, rel_tol=1e-9)


def test_assign_increment():
    state = {"x": elem(0, 3, 6, 9, prob=0.75)}
    out = sp_assign(state, "x", rhs_of("x =. x +. 3;"), SPEC, [])
    assert out["x"].values == frozenset({3, 6, 9, 12})
    want = 0.75 * SPEC.rel("read") * SPEC.rel("add") * SPEC.rel("write")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_assign_charges_each_distinct_variable_once():
    state = {"y": elem(1, 2, prob=0.9), "x": elem(0, prob=1.0)}
    out = sp_assign(state, "x", rhs_of("x =. y +. y;"), SPEC, [])
    # one tuple per y value: y + y is evaluated with both reads agreeing
    assert out["x"].values == frozenset({2, 4})
    want = 0.9 * SPEC.rel("write") * SPEC.rel("read") * SPEC.rel("add")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_assign_two_variables():
    state = {"x": elem(0, 1, prob=0.8), "y": elem(10, 20, prob=0.5),
             "z": elem(7, prob=0.3)}
    out = sp_assign(state, "z", rhs_of("z =. x +. y;"), SPEC, [])
    assert out["z"].values == frozenset({10, 11, 20, 21})
    want = (SPEC.rel("write") * SPEC.rel("read") ** 2 * 0.8 * 0.5
            * SPEC.rel("add"))
    assert math.isclose(out["z"].prob, want, rel_tol=1e-12)
    assert out["x"] == state["x"] and out["y"] == state["y"]


def test_assign_bottom_state_unchanged():
    state = bottom_state(("x", "y"))
    out = sp_assign(state, "x", rhs_of("x =. 1;"), SPEC, [])
    assert out == state


def test_assign_division_by_zero_tuple_excluded():
    state = {"x": elem(0, 1, 2, prob=1.0), "y": elem(0, prob=1.0)}
    warnings = []
    out = sp_assign(state, "y", rhs_of("y =. 10 /. x;"), TINY, warnings)
    assert out["y"].values == frozenset({8, 5})  # 10/1 clamps to 8, 10/2 = 5
    assert any("division by zero" in w for w in warnings)


def test_assign_all_tuples_divide_by_zero_bottoms_state():
    state = {"x": elem(0, prob=1.0), "y": elem(5, prob=0.9)}
    warnings = []
    out = sp_assign(state, "y", rhs_of("y =. 10 /. x;"), TINY, warnings)
    assert state_is_bottom(out)
    assert out == bottom_state(("x", "y"))
    assert any("unreachable" in w for w in warnings)


def test_assign_overflow_clamps_and_warns():
    state = {"x": elem(7, prob=1.0)}
    warnings = []
    out = sp_assign(state, "x", rhs_of("x =. x +. 7;"), TINY, warnings)
    assert out["x"].values == frozenset({8})
    assert any("overflow" in w for w in warnings)


def test_assign_blowup_raises(monkeypatch):
    monkeypatch.setattr(concrete, "TUPLE_CAP", 100)
    state = {v: elem(*range(-8, 9), prob=1.0) for v in ("x", "y", "z")}
    with pytest.raises(OracleBlowup):
        sp_assign(state, "x", rhs_of("x =. x +. y *. z;"), TINY, [])


def test_assign_nested_ops_each_charged():
    state = {"x": elem(2, prob=1.0)}
    out = sp_assign(state, "x", rhs_of("x =. x *. x +. 1;"), TINY, [])
    assert out["x"].values == frozenset({5})
    want = (TINY.rel("write") * TINY.rel("read") * TINY.rel("mul")
            * TINY.rel("add"))
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


# --- guard transfer ---

def test_guard_le_filters_values():
    state = {"x": elem(0, 3, 6, 9, 12, prob=0.9)}
    out = sp_guard(state, guard_of("while (x <=. 9) { x =. 0; }"), SPEC, [])
    assert out["x"].values == frozenset({0, 3, 6, 9})
    want = 0.9 * SPEC.rel("read") * SPEC.rel("le")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_guard_ge_keeps_last_value():
    state = {"x": elem(0, 3, 6, 9, 12, prob=0.9)}
    out = sp_guard(state, guard_of("while (x >=. 10) { x =. 0; }"), SPEC, [])
    assert out["x"].values == frozenset({12})


def test_guard_scales_every_variable():
    state = {"x": elem(0, 5, prob=1.0), "y": elem(7, prob=1.0)}
    out = sp_guard(state, guard_of("while (x >. 1) { x =. 0; }"), SPEC, [])
    factor = SPEC.rel("read") * SPEC.rel("gt")
    assert math.isclose(out["y"].prob, factor, rel_tol=1e-12)
    assert out["y"].values == frozenset({7})


def test_guard_unsatisfiable_bottoms_whole_state():
    state = {"x": elem(0, 1, prob=0.9), "y": elem(5, prob=0.8)}
    out = sp_guard(state, guard_of("while (x >. 100) { x =. 0; }"), SPEC, [])
    assert out == bottom_state(("x", "y"))


def test_guard_relational_two_variables_projects_each():
    state = {"x": elem(0, 1, 2, prob=1.0), "y": elem(1, prob=1.0)}
    out = sp_guard(state, guard_of("while (x <. y) { x =. 0; }"), SPEC, [])
    assert out["x"].values == frozenset({0})
    assert out["y"].values == frozenset({1})


def test_guard_arith_inside_charged():
    state = {"x": elem(0, 1, prob=1.0), "y": elem(2, prob=1.0)}
    out = sp_guard(state, guard_of("while (x +. 1 <=. y) { x =. 0; }"),
                   SPEC, [])
    want = SPEC.rel("read") ** 2 * SPEC.rel("le") * SPEC.rel("add")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_guard_congruence():
    state = {"x": elem(*range(0, 9), prob=1.0)}
    out = sp_guard(state, guard_of("while (x %. 2 ==. 0) { x =. 0; }"),
                   TINY, [])
    assert out["x"].values == frozenset({0, 2, 4, 6, 8})
    want = TINY.rel("read") * TINY.rel("eq") * TINY.rel("mod")
    assert math.isclose(out["x"].prob, want, rel_tol=1e-12)


def test_guard_constant_true_scales_only():
    state = {"x": elem(1, 2, prob=0.9)}
    out = sp_guard(state, guard_of("while (1 <=. 2) { x =. 0; }"), SPEC, [])
    assert out["x"].values == frozenset({1, 2})
    assert math.isclose(out["x"].prob, 0.9 * SPEC.rel("le"), rel_tol=1e-12)


def test_guard_constant_false_bottoms_state():
    state = {"x": elem(1, 2, prob=0.9)}
    out = sp_guard(state, guard_of("while (1 >. 2) { x =. 0; }"), SPEC, [])
    assert out == bottom_state(("x",))


def test_guard_bottom_state_unchanged():
    state = bottom_state(("x",))
    out = sp_guard(state, guard_of("while (x >. 0) { x =. 0; }"), SPEC, [])
    assert out == state


def test_guard_division_by_zero_tuples_excluded():
    state = {"x": elem(0, 1, prob=1.0)}
    warnings = []
    out = sp_guard(state, guard_of("while (10 /. x >. 0) { x =. 0; }"),
                   TINY, warnings)
    assert out["x"].values == frozenset({1})
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
        for node in range(cfg.node_count):
            for v in cfg.variables:
                got = result.states[node][v]
                assert got.values == frozenset(oracle[node][v]), \
                    f"node {node} var {v} of:\n{source}"
                assert got.prob == 1.0


def test_reliable_hardware_keeps_probability_one():
    spec = reliable(minint=-8, maxint=8)
    state = entry_state(("x", "y"), spec)
    out = sp_assign(state, "x", rhs_of("x =. y +. 1;"), spec, [])
    out = sp_guard(out, guard_of("while (x >. 0) { x =. 0; }"), spec, [])
    assert out["x"].prob == 1.0
    assert out["y"].prob == 1.0


small_elements = st.builds(
    ValueSet,
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
    lo = {"x": meet(a, b) if meet(a, b).values else a, "y": y}
    hi = {"x": join(lo["x"], b), "y": y}
    assert leq_states(lo, hi)
    out_lo = sp_assign(lo, "x", rhs_of(stmt), TINY, [])
    out_hi = sp_assign(hi, "x", rhs_of(stmt), TINY, [])
    assert leq_states(out_lo, out_hi)


@settings(max_examples=150, deadline=None)
@given(small_elements, small_elements, small_elements, guards)
def test_sp_guard_monotone(a, b, y, src):
    lo = {"x": meet(a, b) if meet(a, b).values else a, "y": y}
    hi = {"x": join(lo["x"], b), "y": y}
    out_lo = sp_guard(lo, guard_of(src), TINY, [])
    out_hi = sp_guard(hi, guard_of(src), TINY, [])
    assert leq_states(out_lo, out_hi)


# --- incremental edges ---

# a compiled edge enumerates only the operand tuples it has not seen; each
# action below reads 0-3 of x, y, z. Overflows on two lines make two
# warnings, whose order follows the order the new tuples are visited in
INDEX = {"x": 0, "y": 1, "z": 2}
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
        edge = concrete.compile_assign(stmt.target, stmt.value, INDEX, TINY,
                                       warnings)
        return lambda state: concrete.sp_assign(state, edge)
    edge = concrete.compile_guard(stmt.cond, INDEX, TINY, warnings)
    return lambda state: concrete.sp_guard(state, edge)


flat_states = st.tuples(*[st.tuples(
    st.frozensets(st.integers(-6, 6), min_size=1, max_size=5),
    st.floats(0.1, 1, allow_nan=False))] * 3)
state_steps = st.lists(st.tuples(st.sampled_from(("grow", "grow", "fresh",
                                                  "bottom")), flat_states),
                       min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EDGE_ACTIONS), state_steps)
def test_compiled_edge_matches_fresh_edge(source, steps):
    # growing states extend the enumeration; a shrunk one starts it over. A
    # fresh edge per call, sharing one warnings list, is the reference
    warnings, fresh_warnings = [], []
    transfer = compile_action(source, warnings)
    state = None
    for kind, drawn in steps:
        if kind == "bottom":
            state = None
        elif kind == "fresh" or state is None:
            state = drawn
        else:
            state = concrete.join_states(state, drawn)
        fresh = compile_action(source, fresh_warnings)(state)
        assert transfer(state) == fresh
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
    each state given twice, and then shrink once."""
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
        state = concrete.join_states(state, grown)
        states.append(state)
    shrunk = tuple((frozenset(draw(st.lists(st.sampled_from(sorted(values)),
                                            min_size=1, max_size=3))), p)
                   for values, p in state)
    return source, [s for s in states + [shrunk] for _ in range(2)]


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
        edge = concrete.compile_assign(stmt.target, stmt.value, index, TINY,
                                       warnings)
        reference = reference_compile_assign(stmt.target, stmt.value, index,
                                             TINY, reference_warnings)
    else:
        edge = concrete.compile_guard(stmt.cond, index, TINY, warnings)
        reference = reference_compile_guard(stmt.cond, index, TINY,
                                            reference_warnings)
    for state in states:
        assert edge(state) == reference(state)
        assert warnings == reference_warnings


def test_column_warnings_follow_the_original_rows():
    # x /. x drops the row x = 0 before either x +. 5 overflows at x = 4:
    # line 1 overflows in an earlier step than line 4, at the same row
    guard = guard_of("while ((x +. 5) ==.\n (x /.\n x) *.\n (x +. 5)) "
                     "{ x =. 0; }")
    state = (pair(*range(-8, 9)), pair(0))
    warnings, reference_warnings = [], []
    edge = concrete.compile_guard(guard, {"x": 0, "y": 1}, TINY, warnings)
    reference = reference_compile_guard(guard, {"x": 0, "y": 1}, TINY,
                                        reference_warnings)
    assert edge(state) == reference(state)
    assert warnings == reference_warnings == [
        "line 2: division by zero (offending operand tuple excluded)",
        "line 1: arithmetic overflow clamped to [-8,8]",
        "line 4: arithmetic overflow clamped to [-8,8]"]


def test_join_keeps_a_shared_set():
    # a set both sides hold is returned as is, not unioned into a copy
    shared = frozenset({1, 2})
    a = ((shared, 0.9), (frozenset({0}), 0.5))
    b = ((shared, 0.8), (frozenset({3}), 0.7))
    joined = concrete.join_states(a, b)
    assert joined[0][0] is shared and joined[0][1] == 0.8
    assert joined[1] == (frozenset({0, 3}), 0.5)


def test_loops2_concrete_evaluates_each_edge_tuple_once(monkeypatch):
    # every operand tuple that reaches an edge is evaluated once per solve:
    # 8,059 ops against 24,217 when each recomputation enumerated the whole
    # product
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
    assert calls[0] == 8059


def test_loops2_concrete_builds_value_sets_only_for_the_result(monkeypatch):
    # inside solve a state is flat (set, prob) pairs; an element is built,
    # and validated, once per node and variable of the result, when the
    # result's states are first read
    built = [0]
    init = ValueSet.__init__

    def counted(self, values, prob):
        built[0] += 1
        init(self, values, prob)

    monkeypatch.setattr(ValueSet, "__init__", counted)
    source = (Path(__file__).parent / "golden" / "loops2.up").read_text()
    spec = HardwareSpec.uniform(0.9999, minint=-64, maxint=63)
    cfg, result = analyze(source, spec, domain="concrete", max_iters=2000)
    assert result.converged
    assert built[0] == 0
    assert result.states is result.states
    assert built[0] == cfg.node_count * len(cfg.variables) == 344


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
    a = {"x": elem(0, prob=0.9), "y": elem(1, prob=0.8)}
    b = {"x": elem(3, prob=0.7), "y": elem(1, prob=0.95)}
    j = join_states(a, b)
    assert j["x"] == elem(0, 3, prob=0.7)
    assert j["y"] == elem(1, prob=0.8)
    assert value_part(a) != value_part(b)
    assert value_part(j) == value_part(
        {"x": elem(0, 3, prob=0.1), "y": elem(1, prob=0.2)})


def test_bottom_state_is_join_identity():
    a = {"x": elem(0, prob=0.9)}
    assert join_states(bottom_state(("x",)), a) == a
    assert state_is_bottom(bottom_state(("x",)))
    assert not state_is_bottom(a)
    assert value_part(bottom_state(("x",))) == ()
