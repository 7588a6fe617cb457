import contextlib
import math
import random
import time

import pytest

from jacobibands import new_periodic
from jacobibands.ensemble import EnsembleConfig, run_ensemble

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
    """Count the calls module makes to eval_discriminant_stable; returns a one-item list."""
    calls = [0]
    inner = module.eval_discriminant_stable

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, "eval_discriminant_stable", counted)
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
