import math
import random

import numpy as np
import pytest

from jacobibands import (
    NonConvergence,
    band_edges_oracle,
    floquet_matrix,
    new_periodic,
    symmetric_eigenvalues,
)
from jacobibands.ensemble import EnsembleConfig, sample_operator
from jacobibands.floquet import (
    PHASE_ANTIPERIODIC,
    PHASE_PERIODIC,
    SymMatrix,
    _tridiagonalize,
    tridiagonal_eigenvalues,
)

from conftest import blocks, free_operator, period2_operator


def test_matrix_period2_periodic():
    m = floquet_matrix(period2_operator(), PHASE_PERIODIC)
    assert m.entries == ((0.0, 2.0), (2.0, 2.0))


def test_matrix_period2_antiperiodic():
    m = floquet_matrix(period2_operator(), PHASE_ANTIPERIODIC)
    assert m.entries == ((0.0, 0.0), (0.0, 2.0))


def test_matrix_single_site():
    assert floquet_matrix(new_periodic([1.0], [0.0]), PHASE_PERIODIC).entries == ((2.0,),)
    assert floquet_matrix(new_periodic([1.0], [0.0]), PHASE_ANTIPERIODIC).entries == ((-2.0,),)


def test_matrix_larger_period_has_corner():
    c = new_periodic([1.0, 2.0, 3.0], [5.0, 6.0, 7.0])
    m = floquet_matrix(c, PHASE_ANTIPERIODIC).entries
    assert m[0][2] == -3.0
    assert m[2][0] == -3.0
    assert m[0][1] == 1.0
    assert m[1][2] == 2.0
    assert [m[i][i] for i in range(3)] == [5.0, 6.0, 7.0]


def test_matrix_rejects_other_phases():
    with pytest.raises(ValueError):
        floquet_matrix(period2_operator(), 0.5)


def test_eigenvalues_2x2_closed_form():
    ev = symmetric_eigenvalues(SymMatrix(((0.0, 2.0), (2.0, 2.0))))
    assert ev[0] == pytest.approx(1.0 - math.sqrt(5.0), abs=1e-12)
    assert ev[1] == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-12)


def test_eigenvalues_diagonal_passthrough():
    assert symmetric_eigenvalues(SymMatrix(((0.0, 0.0), (0.0, 2.0)))) == (0.0, 2.0)
    assert symmetric_eigenvalues(
        SymMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    ) == (1.0, 1.0, 1.0)


def test_eigenvalues_match_numpy_on_random_symmetric():
    rng = random.Random(123)
    for _ in range(25):
        n = rng.randint(1, 12)
        raw = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
        sym = [[0.5 * (raw[i][j] + raw[j][i]) for j in range(n)] for i in range(n)]
        mine = symmetric_eigenvalues(SymMatrix(tuple(tuple(r) for r in sym)))
        theirs = np.linalg.eigvalsh(np.array(sym))
        scale = max(1.0, float(np.abs(theirs).max()))
        assert len(mine) == n
        for x, y in zip(mine, theirs):
            assert abs(x - y) <= 1e-11 * scale


def test_eigensolver_budget_exhaustion():
    rng = random.Random(99)
    n = 12
    raw = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
    sym = tuple(tuple(0.5 * (raw[i][j] + raw[j][i]) for j in range(n)) for i in range(n))
    with pytest.raises(NonConvergence):
        symmetric_eigenvalues(SymMatrix(sym), tol=1e-15, max_sweeps=1)


def assert_matches_numpy(mat):
    mine = symmetric_eigenvalues(mat)
    theirs = np.linalg.eigvalsh(np.array(mat.entries))
    tol = 1e-13 * max(1.0, float(theirs[-1] - theirs[0]))
    assert len(mine) == len(theirs)
    assert list(mine) == sorted(mine)
    for x, y in zip(mine, theirs):
        assert abs(x - y) <= tol


def test_eigenvalues_of_repeated_blocks_match_numpy():
    # A period-q block repeated m times closes q(m - 1) gaps: the Floquet
    # matrices carry eigenvalues of multiplicity up to m.
    for k in range(120):
        a, b = blocks(1, k)
        c = new_periodic(a, b)
        for phase in (PHASE_PERIODIC, PHASE_ANTIPERIODIC):
            assert_matches_numpy(floquet_matrix(c, phase))


@pytest.mark.parametrize("p", [40, 60])
def test_eigenvalues_at_long_periods_match_numpy(p):
    c = sample_operator(EnsembleConfig(seed=1, p_min=p, p_max=p), 0)
    for phase in (PHASE_PERIODIC, PHASE_ANTIPERIODIC):
        assert_matches_numpy(floquet_matrix(c, phase))


def test_eigenvalues_of_split_matrix_match_numpy():
    # Two dense blocks with nothing between them: the reduction leaves a
    # zero off-diagonal in the middle, and QL must deflate there and solve
    # each block on its own.
    rng = random.Random(7)
    n, half = 8, 4
    m = [[0.0] * n for _ in range(n)]
    for lo, hi in ((0, half), (half, n)):
        for i in range(lo, hi):
            for j in range(lo, i + 1):
                m[i][j] = m[j][i] = rng.uniform(-3.0, 3.0)
    mat = SymMatrix(tuple(tuple(row) for row in m))
    assert_matches_numpy(mat)
    assert _tridiagonalize(mat)[1][half - 1] == 0.0


def test_oracle_period2():
    plus, minus = band_edges_oracle(period2_operator())
    assert plus[0] == pytest.approx(1.0 - math.sqrt(5.0), abs=1e-12)
    assert plus[1] == pytest.approx(1.0 + math.sqrt(5.0), abs=1e-12)
    assert minus == pytest.approx((0.0, 2.0), abs=1e-12)


def test_oracle_free_period2_repeats_touching_edge():
    plus, minus = band_edges_oracle(free_operator(2))
    assert plus == pytest.approx((-2.0, 2.0), abs=1e-12)
    assert minus == pytest.approx((0.0, 0.0), abs=1e-12)


def test_oracle_single_site():
    plus, minus = band_edges_oracle(new_periodic([1.0], [0.0]))
    assert plus == (2.0,)
    assert minus == (-2.0,)


def test_oracle_counts_are_p():
    c = new_periodic([0.5, 1.5, 2.5, 0.7], [1.0, -1.0, 2.0, 0.0])
    plus, minus = band_edges_oracle(c)
    assert len(plus) == 4
    assert len(minus) == 4


def test_discriminant_hits_targets_at_oracle_eigenvalues():
    from jacobibands import build_discriminant
    from jacobibands.discriminant import eval_discriminant_stable
    from jacobibands.ensemble import EnsembleConfig, sample_operator

    cfg = EnsembleConfig(trials=10, seed=23)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d = build_discriminant(c)
        dpoly = d.delta.derivative()
        plus, minus = band_edges_oracle(c)
        for edges, target in ((plus, 2.0), (minus, -2.0)):
            for e in edges:
                slope = abs(dpoly(e))
                assert abs(eval_discriminant_stable(c, e) - target) <= 1e-10 * (1.0 + slope)


def test_tridiagonal_eigenvalues_match_numpy():
    # The Dirichlet block of an operator: diagonal b_2..b_p, off-diagonal a_2..a_{p-1}.
    cfg = EnsembleConfig(seed=2, p_min=1, p_max=30)
    for k in range(60):
        c = sample_operator(cfg, k)
        d, e = c.b[1:], c.a[1 : c.p - 1]
        mine = tridiagonal_eigenvalues(d, e)
        assert len(mine) == len(d)
        if d:
            ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(np.array(mine) - ref)) <= 1e-13 * scale
    with pytest.raises(ValueError):
        tridiagonal_eigenvalues([1.0], [], tol=0.0)
