import contextlib
import math
import random
import time

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


def numpy_edges(c):
    """The 2p band edges of c, sorted: numpy eigenvalues of its two Floquet matrices."""
    import numpy as np

    from jacobibands.floquet import PHASE_ANTIPERIODIC, PHASE_PERIODIC, floquet_matrix

    edges = []
    for phase in (PHASE_PERIODIC, PHASE_ANTIPERIODIC):
        edges.extend(np.linalg.eigvalsh(np.array(floquet_matrix(c, phase).entries)))
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

    Counted are eval_discriminant_bounded and eval_discriminant_slope, each
    where module binds it.
    """
    calls = [0]
    for name in ("eval_discriminant_bounded", "eval_discriminant_slope"):
        inner = getattr(module, name)

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
