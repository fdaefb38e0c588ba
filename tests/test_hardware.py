import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probrange.hardware import (ALL_OPS, ARITH_OPS, BOOL_OPS, UNCHARGED_OPS,
                                HardwareSpec, SpecError, c_div, c_mod,
                                parse_spec)

from helpers import clamp, reliable


def test_cdiv_truncates_toward_zero():
    assert c_div(7, 2) == 3
    assert c_div(-7, 2) == -3
    assert c_div(7, -2) == -3
    assert c_div(-7, -2) == 3


def test_cmod_sign_follows_dividend():
    assert c_mod(7, 2) == 1
    assert c_mod(-7, 2) == -1
    assert c_mod(7, -2) == 1
    assert c_mod(-7, -2) == -1


@given(st.integers(-1000, 1000), st.integers(-50, 50).filter(lambda b: b != 0))
def test_cdiv_cmod_identity(a, b):
    assert c_div(a, b) * b + c_mod(a, b) == a
    assert abs(c_mod(a, b)) < abs(b)


magnitudes = st.integers(-2**40, 2**40)


@given(magnitudes, magnitudes.filter(lambda b: b != 0))
def test_cmod_matches_remainder_of_cdiv(a, b):
    # c_mod no longer goes through c_div; the definition it replaced is the
    # reference
    assert c_mod(a, b) == a - c_div(a, b) * b


def test_rel_arithmetic_uses_range_size():
    spec = HardwareSpec.uniform(0.9999)
    assert spec.rel("add") == 0.9999 + 0.0001 / 65536
    assert spec.rel("read") == 0.9999 + 0.0001 / 65536


def test_rel_boolean_uses_two_outcomes():
    spec = HardwareSpec.uniform(0.9999)
    assert spec.rel("lt") == 0.9999 + 0.0001 / 2
    assert spec.rel("ne") == 0.99995


def test_rel_positive_even_at_zero_success_probability():
    spec = HardwareSpec.uniform(0.0, minint=-8, maxint=8)
    for op in ALL_OPS:
        assert spec.rel(op) > 0


def test_reliable_spec_is_exactly_one():
    spec = reliable()
    assert all(spec.rel(op) == 1.0 for op in ALL_OPS)


def test_clamp():
    spec = reliable(minint=-8, maxint=8)
    assert clamp(spec, 9) == 8
    assert clamp(spec, -9) == -8
    assert clamp(spec, 5) == 5


def test_width():
    assert reliable().width == 65536
    assert reliable(minint=-8, maxint=8).width == 17


def test_validation_rejects_bad_probability():
    with pytest.raises(SpecError):
        HardwareSpec({"add": 1.5})
    with pytest.raises(SpecError):
        HardwareSpec({"add": -0.1})


def test_validation_rejects_unknown_op():
    with pytest.raises(SpecError):
        HardwareSpec({"xor": 0.5})


def test_validation_rejects_bad_range():
    with pytest.raises(SpecError):
        HardwareSpec({}, minint=5, maxint=5)
    with pytest.raises(SpecError):
        HardwareSpec({}, minint=1, maxint=9)  # zero must be representable


def test_default_probabilities_are_not_shared():
    a, b = HardwareSpec(), HardwareSpec(minint=-8, maxint=8)
    assert a.probs == {} and a.probs is not b.probs


@pytest.mark.parametrize("changes", [
    {"minint": 5, "maxint": 5},
    {"minint": 1},
    {"probs": {"add": 2.0}},
    {"probs": {"xor": 0.5}},
])
def test_replace_validates_like_construction(changes):
    spec = HardwareSpec.uniform(0.9, minint=-8, maxint=8)
    with pytest.raises(SpecError):
        spec.replace(**changes)


def test_replace_keeps_unchanged_fields():
    spec = HardwareSpec.uniform(0.9, minint=-8, maxint=8)
    wider = spec.replace(maxint=100)
    assert (wider.minint, wider.maxint, wider.probs) == (-8, 100, spec.probs)
    assert (spec.minint, spec.maxint) == (-8, 8)


def test_parse_spec_full_file():
    lines = [f"{op} = 0.5" for op in ALL_OPS]
    lines += ["minint = -8", "maxint = 8", "# trailing comment"]
    spec, warnings = parse_spec("\n".join(lines))
    assert warnings == []
    assert spec.minint == -8 and spec.maxint == 8
    assert all(spec.prob(op) == 0.5 for op in ALL_OPS)


def test_parse_spec_comments_and_blank_lines():
    spec, _ = parse_spec("# header\n\nadd = 0.25   # inline\n\nmul=0.75\n")
    assert spec.prob("add") == 0.25
    assert spec.prob("mul") == 0.75


def test_parse_spec_missing_ops_warn_and_default():
    spec, warnings = parse_spec("add = 0.5")
    assert spec.prob("sub") == 1.0
    missing = set(ALL_OPS) - {"add"}
    assert len(warnings) == len(missing)
    assert any("sub" in w for w in warnings)


def test_parse_spec_accepts_and_ignores_logical_ops():
    # older spec files list and/or/not; no guard can use them
    spec, warnings = parse_spec("and = 0.1\nor = zero\nnot = 0.3\nnot = 2")
    assert spec.probs == {}
    assert [w.split("'")[1] for w in warnings] == list(ALL_OPS)


def test_parse_spec_duplicate_key():
    with pytest.raises(SpecError):
        parse_spec("add = 0.5\nadd = 0.6")


def test_parse_spec_unknown_key():
    with pytest.raises(SpecError):
        parse_spec("quux = 0.5")


def test_parse_spec_malformed_lines():
    with pytest.raises(SpecError):
        parse_spec("add 0.5")
    with pytest.raises(SpecError):
        parse_spec("add = zero point five")
    with pytest.raises(SpecError):
        parse_spec("minint = -8.5")


@given(st.floats(0, 1), st.sampled_from(ALL_OPS))
def test_rel_bounds(p, op):
    spec = HardwareSpec.uniform(p, minint=-8, maxint=8)
    space = 17 if op in ARITH_OPS else 2
    assert math.isclose(spec.rel(op), p + (1 - p) / space)
    assert 0 < spec.rel(op) <= 1


def test_op_partition():
    assert set(ARITH_OPS) & set(BOOL_OPS) == set()
    assert set(ALL_OPS) & set(UNCHARGED_OPS) == set()
    assert len(ALL_OPS) == 13
