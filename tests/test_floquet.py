import math
import random

import numpy as np
import pytest

from jacobibands import NonConvergence, band_edges_oracle, new_periodic
from jacobibands.ensemble import EnsembleConfig, sample_operator
from jacobibands.floquet import tridiagonal_eigenvalues

from conftest import blocks, floquet_matrix, free_operator, numpy_edges, period2_operator


def test_matrix_period2_periodic():
    assert floquet_matrix(period2_operator(), 1.0) == ((0.0, 2.0), (2.0, 2.0))


def test_matrix_period2_antiperiodic():
    assert floquet_matrix(period2_operator(), -1.0) == ((0.0, 0.0), (0.0, 2.0))


def test_matrix_single_site():
    assert floquet_matrix(new_periodic([1.0], [0.0]), 1.0) == ((2.0,),)
    assert floquet_matrix(new_periodic([1.0], [0.0]), -1.0) == ((-2.0,),)


def test_matrix_larger_period_has_corner():
    c = new_periodic([1.0, 2.0, 3.0], [5.0, 6.0, 7.0])
    m = floquet_matrix(c, -1.0)
    assert m[0][2] == -3.0
    assert m[2][0] == -3.0
    assert m[0][1] == 1.0
    assert m[1][2] == 2.0
    assert [m[i][i] for i in range(3)] == [5.0, 6.0, 7.0]


def test_matrix_rejects_other_phases():
    with pytest.raises(ValueError):
        floquet_matrix(period2_operator(), 0.5)


def random_tridiagonal(rng, n):
    return [rng.uniform(-5, 5) for _ in range(n)], [rng.uniform(-5, 5) for _ in range(n - 1)]


def test_eigenvalues_diagonal_passthrough():
    assert tridiagonal_eigenvalues([2.0, 0.0], [0.0]) == (0.0, 2.0)
    assert tridiagonal_eigenvalues([1.0, 1.0, 1.0], [0.0, 0.0]) == (1.0, 1.0, 1.0)


def test_eigensolver_budget_exhaustion():
    d, e = random_tridiagonal(random.Random(99), 12)
    with pytest.raises(NonConvergence):
        tridiagonal_eigenvalues(d, e, tol=1e-15, max_sweeps=1)


def assert_oracle_matches_numpy(c):
    edges = numpy_edges(c)
    tol = 1e-13 * max(1.0, edges[-1] - edges[0])
    for mine, sign in zip(band_edges_oracle(c), (1.0, -1.0)):
        theirs = np.linalg.eigvalsh(np.array(floquet_matrix(c, sign)))
        assert len(mine) == c.p
        assert list(mine) == sorted(mine)
        assert np.max(np.abs(np.array(mine) - theirs)) <= tol


def test_eigenvalues_of_repeated_blocks_match_numpy():
    # A period-q block repeated m times closes q(m - 1) gaps: the Floquet
    # matrices carry eigenvalues of multiplicity up to m.
    for k in range(120):
        assert_oracle_matches_numpy(new_periodic(*blocks(1, k)))


@pytest.mark.parametrize("p", [40, 60])
def test_eigenvalues_at_long_periods_match_numpy(p):
    assert_oracle_matches_numpy(sample_operator(EnsembleConfig(seed=1, p_min=p, p_max=p), 0))


def test_eigenvalues_of_split_matrix_match_numpy():
    # Two blocks with nothing between them: QL must deflate at the zero
    # off-diagonal and solve each block on its own.
    d, e = random_tridiagonal(random.Random(7), 8)
    e[3] = 0.0
    mine = tridiagonal_eigenvalues(d, e)
    theirs = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    assert np.max(np.abs(np.array(mine) - theirs)) <= 1e-13 * max(1.0, float(np.max(np.abs(theirs))))


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
    from jacobibands.discriminant import eval_discriminant_bounded
    from jacobibands.ensemble import EnsembleConfig, sample_operator

    from conftest import reference_discriminant

    cfg = EnsembleConfig(trials=10, seed=23)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        dpoly = reference_discriminant(c).deriv()
        plus, minus = band_edges_oracle(c)
        for edges, target in ((plus, 2.0), (minus, -2.0)):
            for e in edges:
                slope = abs(dpoly(e))
                assert abs(eval_discriminant_bounded(c, e)[0] - target) <= 1e-10 * (1.0 + slope)


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
