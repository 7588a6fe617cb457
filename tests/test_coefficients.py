import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobibands import (
    LengthMismatch,
    NonFiniteEntry,
    NonPositiveOffDiagonal,
    new_periodic,
    parse_operator,
    scalar_summary,
)
from jacobibands.coefficients import load_operator, offdiag_product


def test_new_periodic_accepts_valid_input():
    c = new_periodic([1, 1], [0, 2])
    assert c.p == 2
    assert c.a == (1.0, 1.0)
    assert c.b == (0.0, 2.0)


def test_new_periodic_rejects_zero_offdiagonal():
    with pytest.raises(NonPositiveOffDiagonal):
        new_periodic([1, 0], [0, 0])
    with pytest.raises(NonPositiveOffDiagonal):
        new_periodic([-1.0], [0.0])


def test_new_periodic_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        new_periodic([2, 3, 5], [1, 1])
    with pytest.raises(LengthMismatch):
        new_periodic([], [])


def test_new_periodic_rejects_non_finite():
    with pytest.raises(NonFiniteEntry):
        new_periodic([1.0, math.nan], [0.0, 0.0])
    with pytest.raises(NonFiniteEntry):
        new_periodic([1.0], [math.inf])


def test_scalar_summary_worked_example():
    s = scalar_summary(new_periodic([1, 1], [0, 2]))
    assert s.geom_mean_a == pytest.approx(1.0, abs=1e-15)
    assert s.diag_spread == 2.0
    # rows: 0 -/+ 2 and 2 -/+ 2
    assert s.gershgorin_lo == -2.0
    assert s.gershgorin_hi == 4.0
    assert s.gershgorin_spread == 4.0


def test_scalar_summary_constant_case():
    s = scalar_summary(new_periodic([3.5] * 4, [0.0] * 4))
    assert s.geom_mean_a == pytest.approx(3.5, rel=1e-15)
    assert s.diag_spread == 0.0
    assert s.gershgorin_lo == pytest.approx(-7.0)
    assert s.gershgorin_hi == pytest.approx(7.0)


def test_geometric_mean_sqrt_case():
    s = scalar_summary(new_periodic([1, 4], [0, 0]))
    assert s.geom_mean_a == pytest.approx(2.0, rel=1e-14)


def test_geometric_mean_extreme_period_no_overflow():
    c = new_periodic([1e8] * 400, [0.0] * 400)
    assert scalar_summary(c).geom_mean_a == pytest.approx(1e8, rel=1e-12)


def test_summary_ordering_invariant():
    s = scalar_summary(new_periodic([0.3, 2.0, 5.0], [1.0, -1.0, 0.0]))
    assert s.min_a <= s.geom_mean_a <= s.max_a
    assert s.diag_spread >= 0.0
    assert s.gershgorin_lo <= s.gershgorin_hi


coeff_lists = st.integers(1, 8).flatmap(
    lambda p: st.tuples(
        st.lists(st.floats(0.01, 100.0), min_size=p, max_size=p),
        st.lists(st.floats(-50.0, 50.0), min_size=p, max_size=p),
    )
)


@settings(deadline=None, max_examples=60)
@given(coeff_lists, st.integers(0, 7))
def test_cyclic_shift_leaves_summary_unchanged(ab, k):
    a, b = ab
    c = new_periodic(a, b)
    s0 = scalar_summary(c)
    s1 = scalar_summary(c.rotated(k))
    assert s1.geom_mean_a == pytest.approx(s0.geom_mean_a, rel=1e-12)
    assert s1.diag_spread == pytest.approx(s0.diag_spread, abs=1e-12)
    assert s1.gershgorin_lo == pytest.approx(s0.gershgorin_lo, abs=1e-12)
    assert s1.gershgorin_hi == pytest.approx(s0.gershgorin_hi, abs=1e-12)
    assert s1.gershgorin_spread == pytest.approx(s0.gershgorin_spread, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(coeff_lists, st.floats(0.01, 50.0))
def test_scaling_scales_every_summary_field(ab, factor):
    a, b = ab
    s0 = scalar_summary(new_periodic(a, b))
    s1 = scalar_summary(new_periodic(a, b).scaled(factor))
    scale = max(1.0, abs(s0.gershgorin_hi), abs(s0.gershgorin_lo)) * factor
    assert s1.geom_mean_a == pytest.approx(factor * s0.geom_mean_a, rel=1e-12)
    assert s1.diag_spread == pytest.approx(factor * s0.diag_spread, abs=1e-12 * scale)
    assert s1.gershgorin_lo == pytest.approx(factor * s0.gershgorin_lo, abs=1e-12 * scale)
    assert s1.gershgorin_hi == pytest.approx(factor * s0.gershgorin_hi, abs=1e-12 * scale)
    assert s1.gershgorin_spread == pytest.approx(factor * s0.gershgorin_spread, abs=1e-12 * scale)


@settings(deadline=None, max_examples=60)
@given(coeff_lists, st.floats(-20.0, 20.0))
def test_diagonal_shift_translates_gershgorin_only(ab, t):
    a, b = ab
    s0 = scalar_summary(new_periodic(a, b))
    s1 = scalar_summary(new_periodic(a, b).shifted(t))
    scale = max(1.0, abs(s0.gershgorin_hi), abs(s0.gershgorin_lo), abs(t))
    assert s1.geom_mean_a == pytest.approx(s0.geom_mean_a, rel=1e-13)
    assert s1.diag_spread == pytest.approx(s0.diag_spread, abs=1e-12 * scale)
    assert s1.gershgorin_lo == pytest.approx(s0.gershgorin_lo + t, abs=1e-12 * scale)
    assert s1.gershgorin_hi == pytest.approx(s0.gershgorin_hi + t, abs=1e-12 * scale)


def test_offdiag_product():
    assert offdiag_product(new_periodic([2, 3], [0, 0])) == pytest.approx(6.0, rel=1e-14)


def test_operator_json_roundtrip(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"a": [1.0, 2.5], "b": [-1.0, 3.0]}))
    c = load_operator(path)
    assert c.a == (1.0, 2.5)
    assert c.b == (-1.0, 3.0)


def test_parse_operator_requires_keys():
    with pytest.raises(LengthMismatch):
        parse_operator({"a": [1.0]})
    with pytest.raises(LengthMismatch):
        parse_operator([1, 2, 3])
    with pytest.raises(LengthMismatch):
        parse_operator({"a": "12", "b": "34"})
    with pytest.raises(LengthMismatch):
        parse_operator({"a": 5, "b": 3})
    with pytest.raises(NonFiniteEntry, match=r"a\[0\]"):
        parse_operator({"a": [True], "b": [1]})
    with pytest.raises(NonFiniteEntry, match=r"a\[0\]"):
        parse_operator({"a": ["x"], "b": [1]})


def test_integer_beyond_float_range_is_non_finite():
    with pytest.raises(NonFiniteEntry):
        parse_operator({"a": [10**400], "b": [0]})
    with pytest.raises(NonFiniteEntry):
        new_periodic([1.0], [-(10**400)])
