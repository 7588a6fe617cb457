import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacobibands import (
    DegenerateInterval,
    NonConvergence,
    Poly,
    poly_arith,
    poly_derivative,
    poly_eval,
    real_roots_in,
)
from jacobibands import polynomial as polynomial_mod
from jacobibands.polynomial import float_root, sturm_count


def poly_from_roots(roots):
    p = Poly([1.0])
    for r in roots:
        p = p * Poly([-r, 1.0])
    return p


def test_arithmetic_examples():
    x = Poly([0.0, 1.0])
    assert x * x == Poly([0.0, 0.0, 1.0])
    assert Poly([-1.0, 1.0]) + Poly([1.0]) == Poly([0.0, 1.0])
    assert Poly([-2.0, -2.0, 1.0]) - Poly([2.0]) == Poly([-4.0, -2.0, 1.0])
    assert poly_arith(x, x, "mul") == x * x


def test_arithmetic_trims_cancelled_leading_terms():
    q = Poly([0.0, 0.0, 1.0]) - Poly([1.0, 0.0, 1.0])
    assert q == Poly([-1.0])
    assert q.degree == 0


def test_degree_and_zero():
    assert Poly([0.0]).is_zero
    assert Poly([0.0]).degree == -1
    assert Poly([3.0]).degree == 0
    assert Poly([0.0, 0.0, 5.0, 0.0]).degree == 2


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        Poly([math.nan])


def test_eval_examples():
    q = Poly([-2.0, -2.0, 1.0])
    assert poly_eval(q, 0.0) == -2.0
    # 1+sqrt(5) is a root of q - 2, so q evaluates to 2 there
    assert poly_eval(q, 1.0 + math.sqrt(5.0)) == pytest.approx(2.0, abs=1e-12)
    assert poly_eval(Poly([0.0]), 17.3) == 0.0
    with pytest.raises(ValueError):
        poly_eval(q, math.inf)


def test_derivative_examples():
    assert poly_derivative(Poly([-2.0, -2.0, 1.0])) == Poly([-2.0, 2.0])
    assert poly_derivative(Poly([7.0])) == Poly([0.0])
    assert poly_derivative(Poly([0.0, 0.0, 0.0, 1.0])) == Poly([0.0, 0.0, 3.0])


def test_roots_quadratic_closed_form():
    roots = real_roots_in(Poly([-4.0, -2.0, 1.0]), -10.0, 10.0, 1e-12)
    assert [r.multiplicity for r in roots] == [1, 1]
    assert roots[0].value == pytest.approx(1.0 - math.sqrt(5.0), abs=1e-11)
    assert roots[1].value == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-11)


def test_roots_factored_quadratic():
    roots = real_roots_in(Poly([0.0, -2.0, 1.0]), -10.0, 10.0, 1e-12)
    assert [r.multiplicity for r in roots] == [1, 1]
    assert roots[0].value == pytest.approx(0.0, abs=1e-11)
    assert roots[1].value == pytest.approx(2.0, abs=1e-11)


def test_double_root_at_origin():
    roots = real_roots_in(Poly([0.0, 0.0, 1.0]), -1.0, 1.0, 1e-12)
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(0.0, abs=1e-11)
    assert roots[0].multiplicity == 2


def test_triple_root():
    roots = real_roots_in(Poly([0.0, 0.0, 0.0, 1.0]), -1.0, 1.0, 1e-12)
    assert len(roots) == 1
    assert roots[0].multiplicity == 3


def test_root_at_interval_boundary():
    roots = real_roots_in(Poly([0.0, -2.0, 1.0]), 0.0, 10.0, 1e-12)
    assert [round(r.value, 9) for r in roots] == [0.0, 2.0]


def test_no_roots_in_window():
    assert real_roots_in(Poly([0.0, -2.0, 1.0]), 5.0, 10.0, 1e-12) == []


def test_degenerate_interval_rejected():
    with pytest.raises(DegenerateInterval):
        real_roots_in(Poly([0.0, 1.0]), 1.0, 1.0, 1e-12)
    with pytest.raises(ValueError):
        real_roots_in(Poly([0.0]), 0.0, 1.0, 1e-12)


def test_close_pair_resolved():
    # separation 1e-5 sits above the float Sturm resolution limit
    roots = real_roots_in(poly_from_roots([0.0, 1e-5]), -1.0, 1.0, 1e-13)
    assert [r.multiplicity for r in roots] == [1, 1]
    assert roots[0].value == pytest.approx(0.0, abs=1e-11)
    assert roots[1].value == pytest.approx(1e-5, abs=1e-11)


def test_sub_resolution_pair_merges():
    # below roughly 1e-6 separation the chain cannot split the pair; the
    # cluster comes back as a single root inside it
    roots = real_roots_in(poly_from_roots([0.0, 1e-8]), -1.0, 1.0, 1e-13)
    assert len(roots) == 1
    assert -1e-7 <= roots[0].value <= 1e-7


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.floats(-8.0, 8.0).map(lambda v: round(v, 3)),
        min_size=1,
        max_size=7,
        unique=True,
    )
)
@example(roots=[1.0, 5.0])  # a root at an isolation split point
def test_random_products_recover_their_roots(roots):
    roots = sorted(roots)
    if any(b - a < 1e-2 for a, b in zip(roots, roots[1:])):
        return  # keep clusters out of this oracle; separate test covers pairs
    p = poly_from_roots(roots)
    found = real_roots_in(p, -10.0, 10.0, 1e-11)
    assert len(found) == len(roots)
    for r, expected in zip(found, roots):
        assert r.value == pytest.approx(expected, abs=1e-9)
        assert r.multiplicity == 1


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.floats(-8.0, 8.0).map(lambda v: round(v, 3)),
        min_size=1,
        max_size=7,
        unique=True,
    )
)
def test_sturm_count_matches_distinct_roots(roots):
    p = poly_from_roots(sorted(roots))
    assert sturm_count(p, -10.0, 10.0) == len(roots)


def test_random_degree_against_numpy_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        deg = rng.randint(1, 9)
        coeffs = [rng.uniform(-3, 3) for _ in range(deg)] + [rng.uniform(0.5, 3)]
        p = Poly(coeffs)
        mine = [r.value for r in real_roots_in(p, -50.0, 50.0, 1e-11)]
        np_roots = np.roots(list(reversed(coeffs)))
        real = sorted(
            z.real for z in np_roots if abs(z.imag) < 1e-9 and -50 <= z.real <= 50
        )
        assert len(mine) == len(real)
        for x, y in zip(mine, real):
            assert x == pytest.approx(y, abs=1e-7)


def test_residual_bounded_by_local_slope():
    rng = random.Random(7)
    for _ in range(25):
        roots = sorted(rng.uniform(-5, 5) for _ in range(rng.randint(1, 6)))
        p = poly_from_roots(roots)
        dp = p.derivative()
        tol = 1e-11
        for r in real_roots_in(p, -6.0, 6.0, tol):
            assert abs(p(r.value)) <= tol * (abs(dp(r.value)) + 1.0)


def test_derivative_roots_interlace():
    rng = random.Random(11)
    for _ in range(25):
        roots = sorted(set(round(rng.uniform(-5, 5), 2) for _ in range(rng.randint(2, 6))))
        if len(roots) < 2:
            continue
        p = poly_from_roots(roots)
        crit = [r.value for r in real_roots_in(p.derivative(), -6.0, 6.0, 1e-11)]
        between = [c for c in crit if roots[0] < c < roots[-1]]
        # Rolle: at least one critical point strictly between consecutive roots
        for lo, hi in zip(roots, roots[1:]):
            assert any(lo < c < hi for c in between)


def counted_root(f, lo, hi, tol):
    """float_root on [lo, hi] with the number of evaluations it made."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return float_root(g, lo, f(lo), hi, f(hi), tol), calls[0]


@pytest.mark.parametrize(
    "f, lo, hi, root",
    [
        # flat parabola next to its critical point at 0: f(lo) = -1e-8, f(hi) = 1
        (lambda x: x * x - 1e-8, 0.0, 1.0, 1e-4),
        # odd triple root: unguarded Illinois needs 80 evaluations here
        (lambda x: (x - 0.3) ** 3, 0.0, 1.0, 0.3),
        # steep edge: f rises from -2 to 2**21 - 2
        (lambda x: x**21 - 2.0, 0.0, 2.0, 2.0 ** (1.0 / 21.0)),
    ],
)
def test_float_root_brackets_within_bound(f, lo, hi, root):
    tol = 1e-12
    (a, fa, b, fb), calls = counted_root(f, lo, hi, tol)
    assert a <= root <= b
    assert b - a <= tol
    assert fa < 0.0 < fb
    # never more than the safeguard's lag beyond plain bisection
    assert calls <= math.ceil(math.log2((hi - lo) / tol)) + polynomial_mod._LAG + 1


def test_float_root_stops_at_exact_zero():
    (a, fa, b, fb), calls = counted_root(lambda x: x - 0.5, 0.0, 1.0, 1e-12)
    assert (a, fa, b, fb) == (0.5, 0.0, 0.5, 0.0)
    assert calls == 1


def test_float_root_exhausted_budget_raises(monkeypatch):
    monkeypatch.setattr(polynomial_mod, "_STEP_BUDGET", 5)
    with pytest.raises(NonConvergence, match="budget exhausted"):
        float_root(lambda x: (x - 0.3) ** 3, 0.0, -0.027, 1.0, 0.343, 1e-12)
