import math
import random
from fractions import Fraction

import pytest

from jacobibands import (
    IndexOutOfRange,
    Poly,
    PropertyViolation,
    build_discriminant,
    eval_discriminant_exact,
    eval_discriminant_stable,
    new_periodic,
    transfer_matrix,
)
from jacobibands import discriminant as discriminant_mod
from jacobibands.discriminant import (
    chebyshev_scale,
    eval_discriminant_bounded,
    eval_discriminant_slope,
    offdiag_product_exact,
    scaled_trace_exact,
    search_interval,
    trace_ratio,
    trace_side,
)
from jacobibands.ensemble import EnsembleConfig, sample_operator

from conftest import free_operator, period2_operator


def free_case_trace(p, t):
    """2*cos(p*arccos(t/2)), continued by cosh outside [-2, 2]."""
    h = t / 2.0
    if -1.0 <= h <= 1.0:
        return 2.0 * math.cos(p * math.acos(h))
    if h > 1.0:
        return 2.0 * math.cosh(p * math.acosh(h))
    return (-1.0) ** p * 2.0 * math.cosh(p * math.acosh(-h))


def test_transfer_matrix_unit_coefficients():
    m = transfer_matrix(new_periodic([1.0], [0.0]), 1).entries
    assert m[0][0] == Poly([0.0, 1.0])
    assert m[0][1] == Poly([-1.0])
    assert m[1][0] == Poly([1.0])
    assert m[1][1] == Poly([0.0])


def test_transfer_matrix_second_site():
    m = transfer_matrix(period2_operator(), 2).entries
    assert m[0][0] == Poly([-2.0, 1.0])
    assert m[0][1] == Poly([-1.0])


def test_transfer_matrix_wraps_first_site():
    m = transfer_matrix(new_periodic([2.0, 4.0], [0.0, 0.0]), 1).entries
    assert m[0][0] == Poly([0.0, 0.5])
    assert m[0][1] == Poly([-2.0])  # -a_0/a_1 with a_0 = a_p = 4


def test_transfer_matrix_index_bounds():
    c = period2_operator()
    with pytest.raises(IndexOutOfRange):
        transfer_matrix(c, 0)
    with pytest.raises(IndexOutOfRange):
        transfer_matrix(c, 3)


def test_single_site_discriminant_is_linear():
    d = build_discriminant(new_periodic([1.0], [0.0]))
    assert d.delta == Poly([0.0, 1.0])
    assert d.critical_points == ()
    assert d.expanded_ok


def test_period2_closed_form():
    d = build_discriminant(period2_operator())
    assert d.delta.coeffs == pytest.approx((-2.0, -2.0, 1.0), abs=1e-14)
    assert d.leading == pytest.approx(1.0)


def test_free_case_matches_trig_identity():
    for p in (2, 3, 5, 8):
        c = free_operator(p)
        d = build_discriminant(c)
        lo, hi = search_interval(c)
        for k in range(20):
            t = lo + (hi - lo) * k / 19.0
            expected = free_case_trace(p, t)
            assert d.delta(t) == pytest.approx(expected, abs=1e-9 * (1 + abs(expected)))
            assert eval_discriminant_stable(c, t) == pytest.approx(
                expected, abs=1e-9 * (1 + abs(expected))
            )


def test_stable_evaluation_examples():
    assert eval_discriminant_stable(period2_operator(), 0.0) == pytest.approx(-2.0)
    assert eval_discriminant_stable(new_periodic([1.0], [5.0]), 5.0) == 0.0
    assert eval_discriminant_stable(free_operator(4), 2.0) == pytest.approx(2.0)


def test_leading_coefficient_identity():
    rng = random.Random(5)
    for _ in range(20):
        p = rng.randint(1, 9)
        c = new_periodic(
            [math.exp(rng.uniform(-2, 2)) for _ in range(p)],
            [rng.uniform(-4, 4) for _ in range(p)],
        )
        d = build_discriminant(c)
        assert d.delta.degree == p
        assert d.leading * math.prod(c.a) == pytest.approx(1.0, abs=1e-9)


def test_critical_values_outside_strip():
    cfg = EnsembleConfig(trials=12, seed=3)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d = build_discriminant(c)
        assert len(d.critical_points) == c.p - 1
        for x in d.critical_points:
            assert abs(eval_discriminant_stable(c, x)) >= 2.0 - 1e-9


def test_two_evaluation_paths_agree():
    cfg = EnsembleConfig(trials=6, seed=9)
    rng = random.Random(0)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d = build_discriminant(c)
        lo, hi = search_interval(c)
        for _ in range(100):
            t = rng.uniform(lo, hi)
            a = d.delta(t)
            b = eval_discriminant_stable(c, t)
            assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_exact_evaluator_is_consistent():
    rng = random.Random(31)
    cfg = EnsembleConfig(trials=5, seed=13)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        lo, hi = search_interval(c)
        for _ in range(5):
            t = rng.uniform(lo, hi)
            exact = float(eval_discriminant_exact(c, t))
            value, err = eval_discriminant_bounded(c, t)
            assert abs(value - exact) <= err + 1e-12 * (1 + abs(exact))


def test_scaled_trace_matches_discriminant_times_product():
    c = sample_operator(EnsembleConfig(trials=1, seed=21), 0)
    t = 0.73
    lhs = Fraction(*scaled_trace_exact(c, t))
    rhs = eval_discriminant_exact(c, t) * offdiag_product_exact(c)
    assert lhs == rhs
    assert chebyshev_scale(c) == pytest.approx(float(offdiag_product_exact(c)), rel=1e-13)


def test_trace_pair_helpers_match_fractions():
    # unreduced pairs, as scaled_trace_exact returns them
    for s in [(6, 4), (-6, 4), (3 * 2**80, 2**81), (0, 8)]:
        v = Fraction(*s)
        for y in [Fraction(3, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(0)]:
            sign = (v > y) - (v < y)
            assert trace_side(s, y) == sign
            assert trace_side(s, y, abs(v - y)) == 0
            assert trace_side(s, y, abs(v - y) / 2) == sign
            if y:
                assert trace_ratio(s, y) == float(v / y)


def test_cyclic_shift_leaves_discriminant_unchanged():
    cfg = EnsembleConfig(trials=10, seed=17)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d0 = build_discriminant(c)
        scale = max(abs(x) for x in d0.delta.coeffs)
        for shift in range(1, c.p):
            d1 = build_discriminant(c.rotated(shift))
            assert len(d0.delta.coeffs) == len(d1.delta.coeffs)
            for x, y in zip(d0.delta.coeffs, d1.delta.coeffs):
                assert abs(x - y) <= 1e-9 * scale


def test_shift_covariance_on_grid():
    c = period2_operator()
    t_shift = 1.75
    d0 = build_discriminant(c)
    d1 = build_discriminant(c.shifted(t_shift))
    for t in [-2.0, -0.5, 0.0, 1.0, 3.0]:
        assert d1.delta(t + t_shift) == pytest.approx(d0.delta(t), abs=1e-10)


def test_scale_covariance_on_grid():
    c = period2_operator()
    factor = 2.5
    d0 = build_discriminant(c)
    d1 = build_discriminant(c.scaled(factor))
    for t in [-2.0, -0.5, 0.0, 1.0, 3.0]:
        assert d1.delta(t * factor) == pytest.approx(d0.delta(t), abs=1e-10)


def fraction_scaled_trace(c, t):
    """Cleared-denominator transfer product in Fraction arithmetic: the oracle."""
    t = Fraction(t)
    a = [Fraction(x) for x in c.a]
    b = [Fraction(x) for x in c.b]
    m00, m01, m10, m11 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for n in range(c.p):
        s00 = t - b[n]
        s01 = -a[n - 1]
        an = a[n]
        m00, m01, m10, m11 = (
            s00 * m00 + s01 * m10,
            s00 * m01 + s01 * m11,
            an * m00,
            an * m01,
        )
    return m00 + m11


def refiner_midpoints(x, depth):
    """Every 50th midpoint of `depth` bisection steps in a 2e-13 bracket
    around x: dyadic points down to 2^-depth, as the exact refiners take."""
    lo, hi = Fraction(x) - Fraction(1e-13), Fraction(x) + Fraction(1e-13)
    out = []
    for k in range(1, depth + 1):
        mid = (lo + hi) / 2
        if k % 50 == 0:
            out.append(mid)
        if k % 3:
            lo = mid
        else:
            hi = mid
    return out


def test_integer_kernel_matches_fraction_oracle():
    rng = random.Random(2024)
    operators = [
        new_periodic(
            [math.exp(rng.uniform(-2.3, 2.3)) for _ in range(p)],
            [rng.uniform(-5.0, 5.0) for _ in range(p)],
        )
        for p in (1, 2, 3, 10, 40)
    ]
    operators.append(new_periodic([5e-324, 1e300, 1.0], [0.0, -1.5, 2.0]))
    operators.append(new_periodic([1e300, 5e-324], [1e-300, -3.0]))
    points = {}
    for c in operators:
        x = rng.uniform(-4.0, 4.0)
        points[c] = [x, 0.5, -3, Fraction(1, 3), Fraction(-7, 3), *refiner_midpoints(x, 400)]
    assert points[operators[0]][-1].denominator >= 2**400
    # Round-robin over more operators than the conversion cache holds, so a
    # stale or evicted entry would show as a wrong value.
    for k in range(len(points[operators[0]])):
        for c in operators:
            t = points[c][k]
            assert Fraction(*scaled_trace_exact(c, t)) == fraction_scaled_trace(c, t), (c.p, t)
    for c in operators:
        assert offdiag_product_exact(c) == math.prod(Fraction(x) for x in c.a)


def test_slope_evaluation_matches_the_expansion():
    cfg = EnsembleConfig(trials=10, seed=11)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d = build_discriminant(c)
        lo, hi = search_interval(c)
        derivative = d.delta.derivative()
        for i in range(9):
            t = lo + (hi - lo) * (i + 0.5) / 9
            value, err, slope, slope_err = eval_discriminant_slope(c, t)
            assert (value, err) == eval_discriminant_bounded(c, t)
            assert abs(slope - derivative(t)) <= 1e-9 * max(1.0, abs(slope))
            assert abs(slope - derivative(t)) <= 4.0 * slope_err + 1e-9 * abs(slope)


def test_dirichlet_knots_interlace():
    # The j-th Dirichlet eigenvalue lies in the closure of the j-th gap:
    # D has the sign (-1)^(p-j) there, with |D| >= 2.
    cfg = EnsembleConfig(trials=30, seed=12)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d = build_discriminant(c)
        assert len(d.knots) == len(d.knot_values) == c.p - 1
        assert list(d.knots) == sorted(d.knots)
        for j, (value, err) in enumerate(d.knot_values, start=1):
            assert (-1) ** (c.p - j) * value >= 2.0 - 4.0 * err - 1e-9


def test_expansion_is_lazy():
    d = build_discriminant(period2_operator())
    assert "_expansion" not in d.__dict__
    assert d.delta.coeffs == pytest.approx((-2.0, -2.0, 1.0), abs=1e-14)
    assert "_expansion" in d.__dict__


def test_knots_outside_their_gaps_raise(monkeypatch):
    # A knot moved into a band breaks the sign pattern: D(3) = 1 for this operator.
    inner = discriminant_mod.dirichlet_eigenvalues
    monkeypatch.setattr(discriminant_mod, "dirichlet_eigenvalues", lambda c: tuple(x + 1.0 for x in inner(c)))
    with pytest.raises(PropertyViolation, match="Dirichlet eigenvalue 1 of 1"):
        build_discriminant(period2_operator())
