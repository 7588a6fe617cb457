import io
import math
import random

import pytest

from jacobibands import (
    EdgeCountMismatch,
    band_structure,
    bands_to_csv,
    build_discriminant,
    new_periodic,
)
from jacobibands import bands as bands_mod
from jacobibands import discriminant as discriminant_mod
from jacobibands import ensemble as ensemble_mod
from jacobibands.bands import Interval, band_structure as bands_fn
from jacobibands.discriminant import DiscriminantData, eval_discriminant_bounded
from jacobibands.ensemble import ORACLE_MATCH_RTOL, EnsembleConfig, run_trial, sample_operator

from conftest import (
    ACCEPTANCE_CONFIG,
    blocks,
    count_exact_calls,
    count_float_calls,
    free_operator,
    numpy_edges,
    period2_operator,
    reference_critical_points,
    reference_discriminant,
)

SQRT5 = math.sqrt(5.0)


@pytest.fixture(scope="module")
def period2_bands():
    d = build_discriminant(period2_operator())
    return d, band_structure(d)


def test_period2_edges(period2_bands):
    _, bs = period2_bands
    assert bs.p == 2
    assert bs.bands[0].lo == pytest.approx(1.0 - SQRT5, abs=1e-11)
    assert bs.bands[0].hi == pytest.approx(0.0, abs=1e-11)
    assert bs.bands[1].lo == pytest.approx(2.0, abs=1e-11)
    assert bs.bands[1].hi == pytest.approx(1.0 + SQRT5, abs=1e-11)
    assert bs.gaps[0].lo == bs.bands[0].hi
    assert bs.gaps[0].hi == bs.bands[1].lo
    assert bs.s == pytest.approx(2.0 * SQRT5, abs=1e-11)
    assert bs.closed_gap_flags == (False,)


def test_period2_measures(period2_bands):
    _, bs = period2_bands
    assert bs.total_band_measure == pytest.approx(2.0 * (SQRT5 - 1.0), abs=1e-11)
    assert bs.total_band_measure + bs.total_gap_measure == pytest.approx(bs.s, abs=1e-12)
    assert bs.min_gap == pytest.approx(2.0, abs=1e-11)


def test_free_period2_closed_gap():
    d = build_discriminant(free_operator(2))
    bs = band_structure(d)
    assert bs.bands[0].lo == pytest.approx(-2.0, abs=1e-11)
    assert bs.bands[0].hi == pytest.approx(0.0, abs=1e-12)
    assert bs.bands[1].lo == bs.bands[0].hi  # shared touching point
    assert bs.bands[1].hi == pytest.approx(2.0, abs=1e-11)
    assert bs.closed_gap_flags == (True,)
    assert bs.gaps[0].length == 0.0
    assert bs.min_gap == math.inf


def test_single_band_operator():
    d = build_discriminant(new_periodic([1.0], [0.0]))
    bs = band_structure(d)
    assert bs.p == 1
    assert bs.bands[0].lo == pytest.approx(-2.0, abs=1e-11)
    assert bs.bands[0].hi == pytest.approx(2.0, abs=1e-11)
    assert bs.gaps == ()
    assert bs.min_gap is None
    assert bs.closed_gap_flags == ()


def test_gap_report_variants(period2_bands):
    _, bs = period2_bands
    assert bs.min_gap == pytest.approx(2.0, abs=1e-11)
    assert bs.closed_gap_flags == (False,)

    free = band_structure(build_discriminant(free_operator(2)))
    assert free.min_gap == math.inf
    assert free.closed_gap_flags == (True,)

    single = band_structure(build_discriminant(new_periodic([1.0], [0.0])))
    assert (single.min_gap, single.closed_gap_flags) == (None, ())


def test_exactly_p_bands_for_touching_spectra():
    for p in range(2, 13):
        bs = band_structure(build_discriminant(free_operator(p)))
        assert bs.p == p
        assert all(bs.closed_gap_flags)
        assert bs.total_band_measure == pytest.approx(4.0, abs=1e-10)


def test_near_touching_gap_follows_closed_tol(monkeypatch):
    d = build_discriminant(new_periodic([1.0, 1.0], [0.0, 1e-7]))
    bs = band_structure(d)
    # the gap is genuinely open at width ~1e-7, far above DEFAULT_CLOSED_TOL * s;
    # its flat edges are sharpened by exact bisection
    assert bs.closed_gap_flags == (False,)
    assert bs.gaps[0].length == pytest.approx(1e-7, rel=1e-4)
    assert bs.min_gap == bs.gaps[0].length
    # a generous closed tolerance reclassifies it
    monkeypatch.setattr(bands_mod, "DEFAULT_CLOSED_TOL", 1e-6)
    wide = band_structure(d)
    assert wide.closed_gap_flags == (True,)
    assert wide.min_gap == math.inf


def test_edge_values_hit_targets():
    cfg = EnsembleConfig(trials=10, seed=4)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d = build_discriminant(c)
        bs = band_structure(d)
        dpoly = reference_discriminant(c).deriv()
        tol = 1e-12 * max(1.0, bs.s)
        for band, (lab_lo, lab_hi) in zip(bs.bands, bs.edge_labels):
            for x, lab in ((band.lo, lab_lo), (band.hi, lab_hi)):
                slope = abs(dpoly(x))
                residual = abs(eval_discriminant_bounded(c, x)[0] - 2.0 * lab)
                assert residual <= 10.0 * tol * (1.0 + slope)


def test_interlacing_label_pattern():
    cfg = EnsembleConfig(trials=10, seed=5)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        bs = band_structure(build_discriminant(c))
        # within a band the labels differ; across a gap they repeat
        for lab_lo, lab_hi in bs.edge_labels:
            assert lab_lo == -lab_hi
        for n in range(bs.p - 1):
            assert bs.edge_labels[n][1] == bs.edge_labels[n + 1][0]
        assert bs.edge_labels[-1][1] == 1  # rightmost edge solves target +2


def test_no_critical_point_strictly_inside_open_band():
    cfg = EnsembleConfig(trials=10, seed=6)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        bs = band_structure(build_discriminant(c))
        pad = 1e-10 * max(1.0, bs.s)
        for band in bs.bands:
            for x in reference_critical_points(c):
                assert not (band.lo + pad < x < band.hi - pad)


def test_translation_covariance():
    c = period2_operator()
    t = 3.25
    bs0 = band_structure(build_discriminant(c))
    bs1 = band_structure(build_discriminant(c.shifted(t)))
    for b0, b1 in zip(bs0.bands, bs1.bands):
        scale = max(1.0, abs(b0.lo) + abs(t))
        assert abs(b1.lo - (b0.lo + t)) <= 1e-9 * scale
        assert abs(b1.hi - (b0.hi + t)) <= 1e-9 * scale


def test_scale_covariance():
    c = period2_operator()
    factor = 0.375
    bs0 = band_structure(build_discriminant(c))
    bs1 = band_structure(build_discriminant(c.scaled(factor)))
    for b0, b1 in zip(bs0.bands, bs1.bands):
        assert b1.lo == pytest.approx(factor * b0.lo, abs=1e-10)
        assert b1.hi == pytest.approx(factor * b0.hi, abs=1e-10)


def test_oracle_fallback_agrees_with_monotone_solver():
    # These operators once compared the oracle fallback with the Dirichlet
    # path; with one band path they are checked against numpy instead.
    cfg = EnsembleConfig(trials=8, seed=8)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        bs = band_structure(build_discriminant(c))
        tol = 1e-8 * max(1.0, bs.s)
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= tol, k


def test_oracle_fallback_keeps_touching_edges():
    # Repeated blocks close most gaps: each touching edge is a double
    # Floquet eigenvalue with no sign change of D -/+ 2 near it. The oracle
    # fallback once refined such an edge onto another edge's crossing (81
    # of these 300 raised "edges carry the same discriminant sign"); the
    # one band path must keep every edge where numpy has it.
    for k in range(300):
        c = new_periodic(*blocks(0, k, q_lo=3))
        bs = band_structure(build_discriminant(c))
        tol = ORACLE_MATCH_RTOL * max(1.0, bs.s)
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= tol, k


def long_block(index):
    """A block of period q repeated to a period p in 32..35."""
    rng = random.Random(f"long-blocks:{index}")
    p = rng.randint(32, 35)
    q = rng.choice([q for q in (1, 2, 3, 4) if p % q == 0])
    a = [math.exp(rng.uniform(math.log(0.5), math.log(2.0))) for _ in range(q)]
    b = [rng.uniform(-2.0, 2.0) for _ in range(q)]
    return a * (p // q), b * (p // q)


def test_long_period_blocks_pass_every_family():
    # Above p = 30 an oracle fallback once placed these edges: 31 of these
    # 40 failed the bands family, 5 raised OverflowError in the
    # min_band_upper bound, and the edges were up to 6.2e-10 * s off.
    for k in range(40):
        c = new_periodic(*long_block(k))
        t = run_trial(c)
        assert t.all_passed, (k, {n: r.detail for n, r in t.families.items() if not r.passed})
        bs = t.band_structure
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= 1e-12 * max(1.0, bs.s), k


def sine_operator(p):
    """a = 1 and b_k = 0.1 sin(2 pi k / p): shallow open gaps at every period."""
    return new_periodic([1.0] * p, [0.1 * math.sin(2.0 * math.pi * k / p) for k in range(p)])


def test_long_period_uses_oracle_automatically(monkeypatch):
    # One Floquet call per trial at every period: band_structure seeds its
    # edge solves with it and run_trial compares the edges against it. No
    # second path: each of the 2p edges is solved on a Dirichlet piece.
    calls, pieces = [], [0]
    inner = bands_mod.band_edges_oracle
    inner_piece = bands_mod._solve_on_piece

    def counted(c):
        calls.append(c)
        return inner(c)

    def piece(*args):
        pieces[0] += 1
        return inner_piece(*args)

    monkeypatch.setattr(bands_mod, "band_edges_oracle", counted)
    monkeypatch.setattr(ensemble_mod, "band_edges_oracle", counted)
    monkeypatch.setattr(bands_mod, "_solve_on_piece", piece)
    for p in (8, 32):
        calls.clear()
        pieces[0] = 0
        c = sine_operator(p)
        t = run_trial(c)
        assert t.all_passed, (p, {n: r.detail for n, r in t.families.items() if not r.passed})
        assert calls == [c]
        assert pieces[0] == 2 * p
        bs = t.band_structure
        assert bs.p == p
        assert bs.total_band_measure <= 4.0 + 1e-9
        assert bs.total_band_measure + bs.total_gap_measure == pytest.approx(bs.s, abs=1e-9)


def test_sine_family_shallow_gaps_stay_open():
    # The gaps are open but shallow: D overshoots +/-2 by less than the
    # float noise at the gap's critical point. Snapping such a gap shut
    # whenever the exact overshoot was within half that noise put edges up
    # to 1.9e-6 * s from numpy (p = 17..30) and failed the oracle family;
    # with the oracle fallback as well at p = 31..40, 1.7e-3 * s. Exact
    # sharpening anchored at the float gap's midpoint, which can lie in a
    # band where the gap is narrower than the float edges' scatter, kept
    # float edges up to 4.4e-10 * s off; anchored at the gap's knot, 1.9e-14 * s.
    for p in range(2, 41):
        c = sine_operator(p)
        t = run_trial(c)
        assert t.all_passed, (p, {n: r.detail for n, r in t.families.items() if not r.passed})
        bs = t.band_structure
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= 1e-12 * max(1.0, bs.s), p


def one_site_defect(index):
    """The free operator of period 2..8 with one diagonal entry of size 1e-13..1e-5."""
    rng = random.Random(f"one-site:{index}")
    p = rng.randint(2, 8)
    b = [0.0] * p
    b[rng.randrange(p)] = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13.0, -5.0)
    return [1.0] * p, b


def test_one_site_defects_pass_every_family():
    # Each gap the defect opens is shallower than the float noise of D.
    # Snapping such gaps shut failed 33 of these 100, mostly by reading the
    # gap-sum lower bounds as violated.
    for k in range(100):
        t = run_trial(new_periodic(*one_site_defect(k)))
        assert t.all_passed, (k, {n: r.detail for n, r in t.families.items() if not r.passed})


@pytest.mark.parametrize("corrupt", [lambda x: x + 1e-6, lambda x: 0.0], ids=["shifted", "zero"])
def test_floquet_eigenvalues_only_seed(corrupt, monkeypatch):
    # Each edge is the one solution of D = +/-2 in a bracket from the
    # Dirichlet knots; its Floquet eigenvalue only starts the solve. A wrong
    # eigenvalue costs steps, not accuracy, and fails the oracle family.
    inner = bands_mod.band_edges_oracle

    def corrupted(c):
        return tuple(tuple(corrupt(x) for x in roots) for roots in inner(c))

    monkeypatch.setattr(bands_mod, "band_edges_oracle", corrupted)
    ops = [sample_operator(ACCEPTANCE_CONFIG, k) for k in range(50)]
    ops += [new_periodic(*blocks(0, k, q_lo=3)) for k in range(50)]
    for k, c in enumerate(ops):
        t = run_trial(c)
        assert not t.families["oracle"].passed, k
        failed = [n for n, r in t.families.items() if n != "oracle" and not r.passed]
        assert not failed, (k, failed)
        bs = t.band_structure
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= 1e-12 * max(1.0, bs.s), k


def test_corrupted_critical_points_raise():
    # The band solver cuts the line at the Dirichlet knots: a knot list of
    # the wrong length must not pass.
    d = build_discriminant(period2_operator())
    broken = DiscriminantData(coeffs=d.coeffs, summary=d.summary, knots=(), knot_values=())
    with pytest.raises(EdgeCountMismatch):
        bands_fn(broken)


def test_csv_export_layout(period2_bands):
    _, bs = period2_bands
    buf = io.StringIO()
    bands_to_csv(bs, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "band_index,lo,hi,length"
    assert lines[3] == "gap_index,lo,hi,length"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(1.0 - SQRT5, abs=1e-11)
    assert float(first[3]) == pytest.approx(SQRT5 - 1.0, abs=1e-11)


def test_interval_length():
    assert Interval(1.0, 3.5).length == 2.5


@pytest.mark.parametrize("eps", [1e-7, 3e-6])
def test_flat_gap_edges_are_exact(eps, monkeypatch):
    # D = x (x - eps) - 2, so the inner gap is exactly [0, eps]; float
    # evaluation alone places these flat edges only to ~1e-9. Regula falsi
    # without the Illinois step stalls on this parabola (about 160 exact
    # calls, bisection about 55).
    calls = count_exact_calls(monkeypatch, bands_mod)
    bs = band_structure(build_discriminant(new_periodic([1.0, 1.0], [0.0, eps])))
    assert abs(bs.gaps[0].lo) <= 1e-13
    assert abs(bs.gaps[0].hi - eps) <= 1e-13
    assert calls[0] <= 40


def test_float_edge_refinement_budget(monkeypatch):
    # Every float evaluation of D in bands, per edge: bisection to the 1e-12
    # tolerance took about 38, Illinois regula falsi plus a secant polish
    # about 12.5. Newton from the Floquet eigenvalue takes one per solved
    # edge; the two ends of the search interval and the knots moved to a
    # critical point bring the total to about 1.2.
    calls = count_float_calls(monkeypatch, bands_mod)
    edges = 0
    for k in range(300):
        c = sample_operator(ACCEPTANCE_CONFIG, k)
        bs = band_structure(build_discriminant(c))
        edges += len(bs.edges)
    assert calls[0] / edges <= 2.0


def test_one_exact_arbitration_per_closed_gap(monkeypatch):
    # Each critical value of the free operator sits on +/-2; the two pieces
    # around it share one exact arbitration.
    calls = count_exact_calls(monkeypatch, bands_mod)
    bs = band_structure(build_discriminant(free_operator(6)))
    assert all(bs.closed_gap_flags) and len(bs.gaps) == 5
    assert calls[0] <= 5


def test_period2_open_gap_edge_knot_is_exact():
    # The Dirichlet eigenvalue b_2 = 2 is itself the lower edge of the
    # second band, where D = -2 exactly: the knot moves to the gap's
    # critical point 1, so neither piece mistakes it for its own crossing.
    d = build_discriminant(period2_operator())
    assert d.knots == (2.0,)
    bs = band_structure(d)
    for x, y in zip(bs.edges, (1.0 - SQRT5, 0.0, 2.0, 1.0 + SQRT5)):
        assert abs(x - y) <= 1e-14


@pytest.mark.parametrize("k", [1, 17, 18])
def test_thin_band_beside_a_knot(k):
    # p = 20 operators with a band below float resolution next to a knot;
    # a critical-point search that crossed it would pair the wrong edges.
    c = sample_operator(EnsembleConfig(seed=1, p_min=20, p_max=20), k)
    bs = band_structure(build_discriminant(c))
    for x, y in zip(bs.edges, numpy_edges(c)):
        assert abs(x - y) <= 1e-12 * max(1.0, bs.s)


@pytest.mark.parametrize("p, skip", [(24, ()), (30, ())])
def test_periods_below_the_trusted_limit(p, skip):
    # build_discriminant raised PropertyViolation for 5 of these 20
    # operators at p = 24 and for all 20 at p = 30.
    cfg = EnsembleConfig(seed=1, p_min=p, p_max=p)
    for k in range(20):
        if k in skip:
            continue
        c = sample_operator(cfg, k)
        t = run_trial(c)
        for name in ("discriminant", "bands", "oracle", "capacity"):
            assert t.families[name].passed, (k, name, t.families[name].detail)
        bs = t.band_structure
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= ORACLE_MATCH_RTOL * max(1.0, bs.s)


@pytest.mark.parametrize(
    "cfg, k",
    [
        (EnsembleConfig(seed=3, p_min=30, p_max=30), 0),
        (EnsembleConfig(seed=1, p_min=60, p_max=60, a_lo=0.5, a_hi=2.0), 7),
        (EnsembleConfig(seed=1, p_min=60, p_max=60, a_lo=0.5, a_hi=2.0), 15),
        (EnsembleConfig(seed=3, p_min=30, p_max=30), 5),
    ],
)
def test_inverted_band_is_a_typed_failure(cfg, k):
    # Exact sharpening moved one edge of a band below float resolution past
    # its float partner; the negative band length then escaped run_trial as
    # "math domain error" from the bounds.
    t = run_trial(sample_operator(cfg, k))
    assert not t.families["bands"].passed
    assert "inverted by exact edge sharpening" in t.families["bands"].detail


def test_short_blocks_pass_every_family():
    # 28 of 3,000 such blocks at seeds 1-2 failed with the expanded
    # discriminant: wrong edges, or a wrong root count.
    for k in range(600):
        c = new_periodic(*blocks(1, k))
        t = run_trial(c)
        assert t.all_passed, (k, {n: r.detail for n, r in t.families.items() if not r.passed})


def test_pipeline_does_not_expand_the_discriminant(monkeypatch):
    # real_roots_in is the name the benchmark tracer counts as polynomial.calls.
    def refuse(*args):
        raise AssertionError("monomial expansion on the pipeline")

    monkeypatch.setattr(discriminant_mod, "real_roots_in", refuse)
    for k in range(200):
        t = run_trial(sample_operator(ACCEPTANCE_CONFIG, k))
        assert t.all_passed, (k, {n: r.detail for n, r in t.families.items() if not r.passed})
