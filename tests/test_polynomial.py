"""float_root, the float bracketing root finder behind a gap's critical point."""

import math

import pytest

from jacobibands import NonConvergence
from jacobibands import bands as bands_mod
from jacobibands.bands import float_root


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
        # odd triple root
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
    # never more than plain bisection needs
    assert calls <= math.ceil(math.log2((hi - lo) / tol)) + 1


def test_float_root_stops_at_exact_zero():
    (a, fa, b, fb), calls = counted_root(lambda x: x - 0.5, 0.0, 1.0, 1e-12)
    assert (a, fa, b, fb) == (0.5, 0.0, 0.5, 0.0)
    assert calls == 1


def test_float_root_exhausted_budget_raises(monkeypatch):
    monkeypatch.setattr(bands_mod, "_STEP_BUDGET", 5)
    with pytest.raises(NonConvergence, match="budget exhausted"):
        float_root(lambda x: (x - 0.3) ** 3, 0.0, -0.027, 1.0, 0.343, 1e-12)
