import math
import random
from fractions import Fraction

import pytest

from jacobibands import (
    PropertyViolation,
    build_discriminant,
    eval_discriminant_exact,
    new_periodic,
    scalar_summary,
)
from jacobibands import discriminant as discriminant_mod
from jacobibands.bands import band_structure
from jacobibands.discriminant import (
    eval_discriminant,
    eval_discriminant_and_slope,
    eval_discriminant_bounded,
    scaled_trace_exact,
    search_interval,
)
from jacobibands.ensemble import EnsembleConfig, sample_operator
from jacobibands.floquet import band_edges_oracle

from numpy.polynomial import Polynomial

from conftest import (
    blocks,
    fraction_discriminant,
    free_operator,
    numpy_edges,
    period2_operator,
    reference_critical_points,
    reference_discriminant,
    reference_transfer_matrix,
    sine_operator,
    six_multiply_trace,
    wide_range_operator,
)


def free_case_trace(p, t):
    """2*cos(p*arccos(t/2)), continued by cosh outside [-2, 2]."""
    h = t / 2.0
    if -1.0 <= h <= 1.0:
        return 2.0 * math.cos(p * math.acos(h))
    if h > 1.0:
        return 2.0 * math.cosh(p * math.acosh(h))
    return (-1.0) ** p * 2.0 * math.cosh(p * math.acosh(-h))


# The transfer matrices of the numpy reference: its site indexing and the
# wrap a_0 = a_p fix every expansion the tests compare against.
def test_transfer_matrix_unit_coefficients():
    m = reference_transfer_matrix(new_periodic([1.0], [0.0]), 1)
    assert m[0][0] == Polynomial([0.0, 1.0])
    assert m[0][1] == Polynomial([-1.0])
    assert m[1][0] == Polynomial([1.0])
    assert m[1][1] == Polynomial([0.0])


def test_transfer_matrix_second_site():
    m = reference_transfer_matrix(period2_operator(), 2)
    assert m[0][0] == Polynomial([-2.0, 1.0])
    assert m[0][1] == Polynomial([-1.0])


def test_transfer_matrix_wraps_first_site():
    m = reference_transfer_matrix(new_periodic([2.0, 4.0], [0.0, 0.0]), 1)
    assert m[0][0] == Polynomial([0.0, 0.5])
    assert m[0][1] == Polynomial([-2.0])  # -a_0/a_1 with a_0 = a_p = 4


def test_single_site_discriminant_is_linear():
    c = new_periodic([1.0], [0.0])
    d = build_discriminant(c)
    assert d.knots == () and d.knot_open == ()
    for t in (-3.0, 0.0, 0.5, Fraction(7, 3)):
        assert eval_discriminant_exact(c, t) == t


def test_period2_closed_form():
    # D(t) = t^2 - 2t - 2, so D = -2 at 0 and 2, and the knot of the one
    # gap is their midpoint 1, the critical point, where D = -3: beyond
    # the gap's target -2 by more than the error bound, so the knot is open.
    c = period2_operator()
    d = build_discriminant(c)
    assert d.floquet_eigenvalues[1] == pytest.approx((0.0, 2.0), abs=1e-15)
    assert d.knots == (1.0,)
    assert eval_discriminant_bounded(c, 1.0)[0] == -3.0
    assert d.knot_open == (True,)
    for t in (-2, -0.5, 0, 1, Fraction(5, 3)):
        t = Fraction(t)
        assert eval_discriminant_exact(c, t) == t * t - 2 * t - 2
    assert tuple(reference_discriminant(c).coef) == pytest.approx((-2.0, -2.0, 1.0), abs=1e-14)


def test_free_case_matches_trig_identity():
    for p in (2, 3, 5, 8):
        c = free_operator(p)
        build_discriminant(c)
        lo, hi = search_interval(scalar_summary(c))
        for k in range(20):
            t = lo + (hi - lo) * k / 19.0
            expected = free_case_trace(p, t)
            assert float(eval_discriminant_exact(c, t)) == pytest.approx(
                expected, abs=1e-9 * (1 + abs(expected))
            )
            assert eval_discriminant_bounded(c, t)[0] == pytest.approx(
                expected, abs=1e-9 * (1 + abs(expected))
            )


def test_stable_evaluation_examples():
    assert eval_discriminant_bounded(period2_operator(), 0.0)[0] == pytest.approx(-2.0)
    assert eval_discriminant_bounded(new_periodic([1.0], [5.0]), 5.0)[0] == 0.0
    assert eval_discriminant_bounded(free_operator(4), 2.0)[0] == pytest.approx(2.0)


def forward_difference(f, order):
    """The order-th forward difference of f at 0 with unit step."""
    return sum((-1) ** (order - k) * math.comb(order, k) * f(k) for k in range(order + 1))


def test_leading_coefficient_identity():
    # prod(a) * D is monic of degree p: its p-th difference is p! and its
    # (p + 1)-th vanishes, exactly.
    rng = random.Random(5)
    for _ in range(20):
        p = rng.randint(1, 9)
        c = new_periodic(
            [math.exp(rng.uniform(-2, 2)) for _ in range(p)],
            [rng.uniform(-4, 4) for _ in range(p)],
        )
        build_discriminant(c)
        product = math.prod(Fraction(x) for x in c.a)

        def monic(t):
            return Fraction(*scaled_trace_exact(c, t)) * product

        assert forward_difference(monic, p) == math.factorial(p)
        assert forward_difference(monic, p + 1) == 0


def test_critical_values_outside_strip():
    cfg = EnsembleConfig(trials=12, seed=3)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        build_discriminant(c)
        critical_points = reference_critical_points(c)
        assert len(critical_points) == c.p - 1
        for x in critical_points:
            assert abs(eval_discriminant_bounded(c, x)[0]) >= 2.0 - 1e-9


def test_two_evaluation_paths_agree():
    cfg = EnsembleConfig(trials=6, seed=9)
    rng = random.Random(0)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        expanded = reference_discriminant(c)
        lo, hi = search_interval(scalar_summary(c))
        for _ in range(100):
            t = rng.uniform(lo, hi)
            a = expanded(t)
            b = eval_discriminant_bounded(c, t)[0]
            assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_exact_evaluator_is_consistent():
    rng = random.Random(31)
    cfg = EnsembleConfig(trials=5, seed=13)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        lo, hi = search_interval(scalar_summary(c))
        for _ in range(5):
            t = rng.uniform(lo, hi)
            exact = float(eval_discriminant_exact(c, t))
            value, err = eval_discriminant_bounded(c, t)
            assert abs(value - exact) <= err + 1e-12 * (1 + abs(exact))
    # potential certifies steep edges from the bound at x +/- h, and
    # build_discriminant judges each knot on it, so there it must hold with
    # no slack: at every Floquet eigenvalue x, at x +/- h and at every knot.
    ops = [sample_operator(EnsembleConfig(seed=42), k) for k in range(300)]
    for p in (24, 40, 60):
        ops += [sample_operator(EnsembleConfig(seed=1, p_min=p, p_max=p), k) for k in range(3)]
    ops += [new_periodic(*wide_range_operator(k)) for k in range(50)]
    points = 0
    for c in ops:
        plus, minus = band_edges_oracle(c)
        for x in plus + minus:
            h = 1e-13 * max(1.0, abs(x))
            for t in (x - h, x, x + h):
                value, err = eval_discriminant_bounded(c, t)
                assert abs(Fraction(value) - eval_discriminant_exact(c, t)) <= Fraction(err), (c, t)
                points += 1
    assert points > 12_000
    ops += [new_periodic(*blocks(0, k, q_lo=3)) for k in range(300)]
    ops += [sine_operator(p) for p in range(2, 41)]
    knots = 0
    for c in ops:
        for x in build_discriminant(c).knots:
            value, err = eval_discriminant_bounded(c, x)
            assert abs(Fraction(value) - eval_discriminant_exact(c, x)) <= Fraction(err), (c, x)
            knots += 1
    assert knots == 5582


def test_exact_quotient_decides_sides_against_int_targets():
    # D = N / Q with Q > 0, unreduced: the sign of N - target * Q is the
    # side of an int target, and (N - target * Q) / Q rounds D - target once.
    c = sample_operator(EnsembleConfig(trials=1, seed=21), 0)
    for t in (0.73, -1.5, Fraction(1, 3), 4):
        n, q = scaled_trace_exact(c, t)
        value = fraction_discriminant(c, t)
        assert q > 0
        assert Fraction(n, q) == value == eval_discriminant_exact(c, t)
        for target in (-2, 2):
            assert ((n - target * q) > 0) - ((n - target * q) < 0) == ((value > target) - (value < target))
            assert (n - target * q) / q == float(value - target)


def test_cyclic_shift_leaves_discriminant_unchanged():
    # Two polynomials of degree p that agree at p + 1 points are identical.
    cfg = EnsembleConfig(trials=10, seed=17)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        build_discriminant(c)
        lo, hi = search_interval(scalar_summary(c))
        points = [lo + (hi - lo) * i / c.p for i in range(c.p + 1)]
        values = [eval_discriminant_exact(c, t) for t in points]
        for shift in range(1, c.p):
            d1 = build_discriminant(c.rotated(shift))
            assert [eval_discriminant_exact(d1.coeffs, t) for t in points] == values


def test_shift_covariance_on_grid():
    c = period2_operator()
    t_shift = 1.75
    d0 = build_discriminant(c)
    d1 = build_discriminant(c.shifted(t_shift))
    for t in [-2.0, -0.5, 0.0, 1.0, 3.0]:
        assert eval_discriminant_exact(d1.coeffs, t + t_shift) == eval_discriminant_exact(d0.coeffs, t)


def test_scale_covariance_on_grid():
    c = period2_operator()
    factor = 2.5
    d0 = build_discriminant(c)
    d1 = build_discriminant(c.scaled(factor))
    for t in [-2.0, -0.5, 0.0, 1.0, 3.0]:
        assert eval_discriminant_exact(d1.coeffs, t * factor) == eval_discriminant_exact(d0.coeffs, t)


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
    # stale or evicted entry would show as a wrong value. The conjugated
    # four-multiply step gives the same unreduced (N, Q) as the six-multiply
    # product, bit for bit, on the operator's denominator and on the
    # rescaling path, where the point's denominator does not divide it.
    paths = set()
    for k in range(len(points[operators[0]])):
        for c in operators:
            t = points[c][k]
            n, q = scaled_trace_exact(c, t)
            assert q > 0 and Fraction(n, q) == fraction_discriminant(c, t), (c.p, t)
            assert (n, q) == six_multiply_trace(c, t), (c.p, t)
            paths.add((c, discriminant_mod._integer_form(c)[0] % Fraction(t).denominator == 0))
    assert len(paths) == 2 * len(operators)


def test_slope_evaluation_matches_the_expansion():
    cfg = EnsembleConfig(trials=10, seed=11)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        build_discriminant(c)
        lo, hi = search_interval(scalar_summary(c))
        derivative = reference_discriminant(c).deriv()
        for i in range(9):
            t = lo + (hi - lo) * (i + 0.5) / 9
            slope = eval_discriminant_and_slope(c, t)[1]
            assert abs(slope - derivative(t)) <= 1e-9 * max(1.0, abs(slope))


def test_floquet_knots_lie_in_their_gaps():
    # Knot j, the midpoint of gap j's two Floquet eigenvalues of its sign,
    # lies inside the j-th gap as numpy places it: between band j's upper
    # edge and band j + 1's lower edge. Every gap of these is open, and
    # so is every knot.
    cfg = EnsembleConfig(trials=30, seed=12)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d = build_discriminant(c)
        assert len(d.knots) == len(d.knot_open) == c.p - 1
        edges = numpy_edges(c)
        for j, x in enumerate(d.knots, start=1):
            assert edges[2 * j - 1] < x < edges[2 * j], (k, j)
        assert all(d.knot_open), k


def test_knots_outside_their_gaps_raise(monkeypatch):
    # Eigenvalues moved up by 2 put the knot in a band: D(3) = 1 for this operator.
    inner = discriminant_mod.band_edges_oracle
    monkeypatch.setattr(
        discriminant_mod, "band_edges_oracle", lambda c: tuple(tuple(x + 2.0 for x in xs) for xs in inner(c))
    )
    with pytest.raises(PropertyViolation, match=r"D\(3\.0\) = 1\.0 at knot 1 of 1"):
        build_discriminant(period2_operator())


def test_bound_free_evaluators_equal_the_bounded_ones():
    # The same float operations in the same order: equal bit for bit at
    # grid points, knots and computed band edges, short and long periods,
    # open and closed gaps.
    configs = [
        (EnsembleConfig(seed=21, p_min=1, p_max=1), 5),
        (EnsembleConfig(seed=21, p_min=2, p_max=2), 5),
        (EnsembleConfig(seed=21), 20),
        (EnsembleConfig(seed=1, p_min=40, p_max=40), 2),
        (EnsembleConfig(seed=1, p_min=60, p_max=60, a_lo=0.5, a_hi=2.0), 2),
    ]
    ops = [sample_operator(cfg, k) for cfg, n in configs for k in range(n)]
    ops += [new_periodic(*blocks(1, k, q_lo=3)) for k in range(10)]
    for c in ops:
        d = build_discriminant(c)
        lo, hi = search_interval(d.summary)
        grid = [lo + (hi - lo) * i / 16 for i in range(17)]
        for t in grid + list(d.knots) + list(band_structure(d).edges):
            value = eval_discriminant(c, t)
            assert eval_discriminant_bounded(c, t)[0] == eval_discriminant_and_slope(c, t)[0] == value, (c, t)
