import contextlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import settings

from jacobibands import new_periodic
from jacobibands.ensemble import EnsembleConfig, run_ensemble

# The same examples on every run, and no per-example deadline on shared hosts.
settings.register_profile("jacobibands", derandomize=True, deadline=None)
settings.load_profile("jacobibands")

# The reference ensemble: shared by the acceptance criteria that quantify
# over 1000 seeded operators.
ACCEPTANCE_CONFIG = EnsembleConfig(
    trials=1000,
    seed=42,
    p_min=2,
    p_max=10,
    a_lo=0.1,
    a_hi=10.0,
    b_lo=-5.0,
    b_hi=5.0,
)


@pytest.fixture(scope="session")
def acceptance_ensemble():
    """(EnsembleResult, wall seconds) for the 1000-trial reference run."""
    t0 = time.perf_counter()
    result = run_ensemble(ACCEPTANCE_CONFIG)
    return result, time.perf_counter() - t0


def period2_operator():
    """The worked closed-form fixture: a=(1,1), b=(0,2)."""
    return new_periodic([1.0, 1.0], [0.0, 2.0])


def free_operator(p):
    """Constant-coefficient operator: a=1, b=0; bands fill [-2, 2]."""
    return new_periodic([1.0] * p, [0.0] * p)


def blocks(seed, index, q_lo=1):
    """(a, b) of a period-q block repeated m times, so q(m - 1) of the p - 1 gaps close.

    q uniform on q_lo..4, a log-uniform on [0.5, 2], b uniform on [-2, 2],
    m uniform on 2..12 // q; draw for draw the generator of the benchmark's
    touching workload.
    """
    rng = random.Random(f"touching:{seed}:{index}")
    q = rng.randint(q_lo, 4)
    a = [math.exp(rng.uniform(math.log(0.5), math.log(2.0))) for _ in range(q)]
    b = [rng.uniform(-2.0, 2.0) for _ in range(q)]
    m = rng.randint(2, 12 // q)
    return a * m, b * m


def wide_range_operator(index):
    """Period 2..12, entries of magnitude 1e-6..1e6, diagonal of either sign."""
    rng = random.Random(f"wide:{index}")
    p = rng.randint(2, 12)
    a = [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(p)]
    b = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(p)]
    return a, b


def floquet_matrix(c, sign):
    """The p x p Floquet matrix of c as a tuple of rows: sign +1 periodic, -1 antiperiodic.

    Diagonal is b, the first off-diagonal is a_1..a_{p-1}, and the wrap
    entry sign * a_p sits in the corners. For p = 2 the wrap lands on the
    off-diagonal (a_1 +/- a_2); for p = 1 it lands on the diagonal twice.
    """
    if sign not in (1.0, -1.0):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    p = c.p
    m = [[0.0] * p for _ in range(p)]
    for i in range(p):
        m[i][i] = c.b[i]
    for i in range(p - 1):
        m[i][i + 1] += c.a[i]
        m[i + 1][i] += c.a[i]
    if p == 1:
        m[0][0] += sign * 2.0 * c.a[0]
    else:
        m[0][p - 1] += sign * c.a[p - 1]
        m[p - 1][0] += sign * c.a[p - 1]
    return tuple(tuple(row) for row in m)


def numpy_edges(c):
    """The 2p band edges of c, sorted: numpy eigenvalues of its two Floquet matrices."""
    import numpy as np

    edges = []
    for sign in (1.0, -1.0):
        edges.extend(np.linalg.eigvalsh(np.array(floquet_matrix(c, sign))))
    return sorted(edges)


def reference_transfer_matrix(c, n):
    """The one-step transfer matrix of site n (1..p) as numpy Polynomials; a_0 = a_p."""
    from numpy.polynomial import Polynomial

    k = n - 1
    return (
        (Polynomial([-c.b[k] / c.a[k], 1.0 / c.a[k]]), Polynomial([-c.a[k - 1] / c.a[k]])),
        (Polynomial([1.0]), Polynomial([0.0])),
    )


def reference_discriminant(c):
    """D as a numpy Polynomial: the transfer product expanded in the monomial basis."""
    from numpy.polynomial import Polynomial

    m00, m01, m10, m11 = Polynomial([1.0]), Polynomial([0.0]), Polynomial([0.0]), Polynomial([1.0])
    for n in range(1, c.p + 1):
        (t00, t01), _ = reference_transfer_matrix(c, n)
        m00, m01, m10, m11 = t00 * m00 + t01 * m10, t00 * m01 + t01 * m11, m00, m01
    return m00 + m11


def reference_critical_points(c):
    """The p - 1 critical points of D, sorted: numpy roots of the expansion's derivative."""
    return sorted(float(x.real) for x in reference_discriminant(c).deriv().roots())


def fraction_discriminant(c, t):
    """D(t) in Fraction arithmetic, the oracle of `scaled_trace_exact`.

    The cleared-denominator transfer product (steps [[t - b_n, -a_{n-1}],
    [a_n, 0]]) has trace prod(a) * D(t); its quotient by prod(a) is D(t).
    """
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
    return (m00 + m11) / math.prod(a)


def six_multiply_trace(c, t):
    """(N, Q) of `scaled_trace_exact` by its earlier kernel, the reference
    for the conjugated four-multiply step.

    The integer steps [[T - B_n, -A_{n-1}], [A_n, 0]] over the common
    denominator L of the operator and t, each product row formed anew:
    six big-int multiplies per step. N is the trace, Q = prod(A_n).
    """
    t = Fraction(t)
    ratios = [Fraction(x) for x in c.a + c.b]
    scale = math.lcm(t.denominator, *(x.denominator for x in ratios))
    nums = [int(x * scale) for x in ratios]
    a_num, b_num = nums[: c.p], nums[c.p :]
    tn = int(t * scale)
    m00, m01, m10, m11 = 1, 0, 0, 1
    for n in range(c.p):
        s00 = tn - b_num[n]
        s01 = -a_num[n - 1]
        an = a_num[n]
        m00, m01, m10, m11 = (
            s00 * m00 + s01 * m10,
            s00 * m01 + s01 * m11,
            an * m00,
            an * m01,
        )
    return m00 + m11, math.prod(a_num)


def count_exact_calls(monkeypatch, module):
    """Count the calls module makes to scaled_trace_exact; returns a one-item list."""
    calls = [0]
    inner = module.scaled_trace_exact

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, "scaled_trace_exact", counted)
    return calls


def count_float_calls(monkeypatch, module):
    """Count the calls module makes to the float evaluators of D; returns a one-item list.

    Counted are eval_discriminant, eval_discriminant_and_slope and
    eval_discriminant_bounded, each where module binds it; names it does
    not bind are skipped.
    """
    calls = [0]
    for name in ("eval_discriminant", "eval_discriminant_and_slope", "eval_discriminant_bounded"):
        inner = getattr(module, name, None)
        if inner is None:
            continue

        def counted(*args, inner=inner):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@contextlib.contextmanager
def criterion(num, desc):
    """Print one pass/fail line per acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")
