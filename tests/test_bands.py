import dataclasses
import io
import math
import random
import re
from fractions import Fraction

import pytest

from jacobibands import (
    EdgeCountMismatch,
    NonConvergence,
    PropertyViolation,
    band_structure,
    bands_to_csv,
    build_discriminant,
    new_periodic,
)
from jacobibands import bands as bands_mod
from jacobibands import discriminant as discriminant_mod
from jacobibands import ensemble as ensemble_mod
from jacobibands.bands import Interval, band_structure as bands_fn
from jacobibands import floquet as floquet_mod
from jacobibands.discriminant import eval_discriminant_bounded, gap_sign
from jacobibands.ensemble import FAMILY_NAMES, ORACLE_MATCH_RTOL, EnsembleConfig, run_trial, sample_operator

from conftest import (
    ACCEPTANCE_CONFIG,
    blocks,
    count_exact_calls,
    count_float_calls,
    floquet_knots,
    fraction_discriminant,
    free_operator,
    numpy_edges,
    one_site_defect,
    period2_operator,
    reference_critical_points,
    reference_discriminant,
    sine_operator,
    wide_range_operator,
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


def test_near_touching_gap_is_open():
    d = build_discriminant(new_periodic([1.0, 1.0], [0.0, 1e-7]))
    bs = band_structure(d)
    # the gap is genuinely open at width ~1e-7; the bands beside it solve
    # on the exact residual
    assert bs.closed_gap_flags == (False,)
    assert bs.gaps[0].length == pytest.approx(1e-7, rel=1e-4)
    assert bs.min_gap == bs.gaps[0].length


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


def test_edges_match_numpy():
    cfg = EnsembleConfig(trials=8, seed=8)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        bs = band_structure(build_discriminant(c))
        tol = 1e-8 * max(1.0, bs.s)
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= tol, k


def test_touching_edges_match_numpy():
    # Repeated blocks close most gaps: each touching edge is a double
    # Floquet eigenvalue with no sign change of D -/+ 2 near it. A solver
    # that widened its bracket until any sign change appeared refined such
    # an edge onto another edge's crossing (81 of these 300 raised "edges
    # carry the same discriminant sign").
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


def test_each_edge_is_one_newton_solve_or_a_touching_knot(monkeypatch):
    # One Floquet call per trial at every period, made by
    # build_discriminant: the knots are its gap midpoints, band_structure
    # seeds its edge solves with it and run_trial compares the edges
    # against it. No second path: each of the 2p edges is one Newton solve
    # on a piece between knots, or a touching knot, which is the edge of
    # both its pieces. The edges beside a narrow open gap are solved once,
    # on the exact residual; a second, exact solve of them made 18 solves
    # at p = 8.
    calls, solves = [], [0]
    inner = discriminant_mod.band_edges_oracle
    inner_solve = bands_mod._newton_edge

    def counted(c):
        calls.append(c)
        return inner(c)

    def solve(*args):
        solves[0] += 1
        return inner_solve(*args)

    for module in (discriminant_mod, bands_mod, ensemble_mod):
        monkeypatch.setattr(module, "band_edges_oracle", counted)
    monkeypatch.setattr(bands_mod, "_newton_edge", solve)
    for p in (8, 32):
        calls.clear()
        solves[0] = 0
        c = sine_operator(p)
        t = run_trial(c)
        assert t.all_passed, (p, {n: r.detail for n, r in t.families.items() if not r.passed})
        assert calls == [c]
        bs = t.band_structure
        touching = sum(bs.closed_gap_flags)
        assert solves[0] + 2 * touching == 2 * p
        if p == 8:
            assert touching == 1
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


def test_sine_family_closed_gaps_are_the_zero_length_ones():
    # A gap is closed exactly when its knot touches, and then both its
    # edges are the knot. A length tolerance of 1e-9 * s flagged 167 of
    # these 780 gaps closed, all open at their knots and with two distinct
    # edges (p = 17, gap 7: 1.85e-11 long).
    for p in range(2, 41):
        bs = band_structure(build_discriminant(sine_operator(p)))
        for n, (gap, closed) in enumerate(zip(bs.gaps, bs.closed_gap_flags)):
            assert (gap.lo == gap.hi) == closed, (p, n, gap.length)


def test_one_site_defects_pass_every_family():
    # Each gap the defect opens is shallower than the float noise of D.
    # Snapping such gaps shut failed 33 of these 100, mostly by reading the
    # gap-sum lower bounds as violated.
    for k in range(100):
        t = run_trial(new_periodic(*one_site_defect(k)))
        assert t.all_passed, (k, {n: r.detail for n, r in t.families.items() if not r.passed})
        bs = t.band_structure
        assert [g.lo == g.hi for g in bs.gaps] == list(bs.closed_gap_flags), k


def test_one_site_defect_gaps_wider_than_noise_are_open():
    # A knot that sat on a gap edge was moved to the gap's critical point,
    # searched to 1e-12 * max(1, search width), more than many of these
    # gaps are wide: the exact decision then read a point on the band, and
    # 217 gaps of numpy width 1e-13 to 6.6e-12 were flagged closed. The
    # Floquet gap midpoint lies inside the gap.
    for k in range(1000):
        c = new_periodic(*one_site_defect(k))
        bs = band_structure(build_discriminant(c))
        edges = numpy_edges(c)
        for j, closed in enumerate(bs.closed_gap_flags, start=1):
            assert not (closed and edges[2 * j] - edges[2 * j - 1] > 1e-13), (k, j)


def test_wide_range_knots_pass_the_check():
    # Dirichlet knots failed the knot check on 117 of these 300, with D of
    # the wrong sign at 1e16 to 1e46. 20 still fail the bands family with
    # a typed "band n inverted", each beside a band below float
    # resolution; those are out of scope here. Which ones is float noise:
    # a change of rounding in the Floquet fold swaps several of them.
    inverted = 0
    for k in range(300):
        c = new_periodic(*wide_range_operator(k))
        t = run_trial(c)
        assert t.families["discriminant"].passed, (k, t.families["discriminant"].detail)
        inverted += "inverted" in t.families["bands"].detail
        if t.all_passed:
            bs = t.band_structure
            for x, y in zip(bs.edges, numpy_edges(c)):
                assert abs(x - y) <= ORACLE_MATCH_RTOL * max(1.0, bs.s), k
    assert inverted == 20


CORRUPTIONS = {
    "shifted": lambda roots: tuple(x + 1e-6 for x in roots),
    "zero": lambda roots: (0.0,) * len(roots),
    # eigenvalue k moved up by 1e-3 * k: every gap reads wider than `_FLAT_GAP_TRIGGER`
    "spread": lambda roots: tuple(x + 1e-3 * k for k, x in enumerate(roots)),
}


def assert_corrupted_floquet_trials_fail(monkeypatch, corruption, ops):
    """run_trial of each operator with knots and seeds from corrupted Floquet eigenvalues.

    A corrupted oracle is a typed failure, never a silent pass: every
    trial fails, the knot judgement of the bands family or the oracle
    comparison first. Edges that
    passed the oracle comparison against corrupted eigenvalues would be
    off the true ones.
    """
    inner = discriminant_mod.band_edges_oracle
    monkeypatch.setattr(
        discriminant_mod, "band_edges_oracle", lambda c: tuple(map(CORRUPTIONS[corruption], inner(c)))
    )
    for k, c in enumerate(ops):
        failed = [name for name, r in run_trial(c).families.items() if not r.passed]
        assert failed and failed[0] in ("bands", "oracle"), (k, failed)


@pytest.mark.parametrize("corruption", ["shifted", "zero", "spread"])
def test_corrupted_floquet_eigenvalues_keep_the_edges(corruption, monkeypatch):
    # The knots, the seeds and the oracle all come from the eigenvalues. A
    # knot moved into a band fails the knot judgement; one still in its gap
    # keeps each open gap's edges, the one solution of D = +/-2 on its
    # piece, while a closed gap's edges are the moved knot; either way the
    # corrupted eigenvalues fail the oracle comparison.
    ops = [sample_operator(ACCEPTANCE_CONFIG, k) for k in range(50)]
    ops += [new_periodic(*blocks(0, k, q_lo=3)) for k in range(50)]
    assert_corrupted_floquet_trials_fail(monkeypatch, corruption, ops)


@pytest.mark.parametrize("corruption", ["zero", "spread"])
def test_corrupted_floquet_eigenvalues_pick_the_residual(corruption, monkeypatch):
    # The eigenvalues also decide which gaps are flat, and so which bands
    # solve on the exact residual: read as all flat (zero) or all wide
    # (spread). On these narrow gaps that too ends in a typed failure.
    ops = [sine_operator(p) for p in range(8, 17)]
    ops += [new_periodic(*one_site_defect(k)) for k in range(100)]
    ops.append(sample_operator(dataclasses.replace(ACCEPTANCE_CONFIG, seed=7), 1358))
    assert_corrupted_floquet_trials_fail(monkeypatch, corruption, ops)


def test_moved_edge_fails_a_family_below_unit_scale(monkeypatch):
    # Every tolerance scales with the operator, so a wrong edge is caught
    # at 2^-20 as at unit scale: the first edge solved in each trial,
    # moved 1e-6 * s toward the middle of its piece, fails a family (the
    # oracle comparison, in all 200). With the oracle tolerance and the
    # certificate's h floored at an absolute 1e-8, 160 of them passed
    # every family.
    ops = [sample_operator(ACCEPTANCE_CONFIG, k).scaled(2.0**-20) for k in range(200)]
    spans = [run_trial(c).band_structure.s for c in ops]
    inner_solve = bands_mod._newton_edge
    move = [0.0]

    def solve(residual, lo, hi, rising, x, tol):
        edge = inner_solve(residual, lo, hi, rising, x, tol)
        step, move[0] = move[0], 0.0
        return edge + step if edge < 0.5 * (lo + hi) else edge - step

    monkeypatch.setattr(bands_mod, "_newton_edge", solve)
    passed = []
    for k, (c, s) in enumerate(zip(ops, spans)):
        move[0] = 1e-6 * s
        if run_trial(c).all_passed:
            passed.append(k)
        assert move[0] == 0.0, k
    assert passed == []


def test_newton_edge_exhausted_budget_raises(monkeypatch):
    # A residual with zero slope forces bisection, about 40 steps to 1e-12.
    monkeypatch.setattr(bands_mod, "_STEP_BUDGET", 5)
    with pytest.raises(NonConvergence, match="edge budget exhausted"):
        bands_mod._newton_edge(lambda t: (t - 0.3, 0.0), 0.0, 1.0, True, 0.9, 1e-12)


def test_corrupted_critical_points_raise():
    # The band solver cuts the line at knots taken from p Floquet
    # eigenvalues of each sign: a list of the wrong length must not pass.
    d = build_discriminant(period2_operator())
    broken = dataclasses.replace(d, floquet_eigenvalues=tuple(xs[:-1] for xs in d.floquet_eigenvalues))
    with pytest.raises(EdgeCountMismatch, match="1 and 1 Floquet eigenvalues for period 2"):
        bands_fn(broken)


def test_knots_out_of_order_raise():
    # The two halves of the minus eigenvalues swapped: gaps 1 and 3 share
    # the sign -1, so each knot lands open in the other's gap, and knots in
    # descending order make the pieces between them run backwards: the
    # bands solved on them cross, a typed failure.
    d = build_discriminant(new_periodic([1, 1, 1, 1], [0, 1, -1, 0.5]))
    plus, minus = d.floquet_eigenvalues
    broken = dataclasses.replace(d, floquet_eigenvalues=(plus, minus[2:] + minus[:2]))
    assert floquet_knots(broken) == floquet_knots(d)[::-1]
    with pytest.raises(EdgeCountMismatch, match="band 0 upper edge .* exceeds band 1 lower edge"):
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
    # evaluation alone places these flat edges only to ~1e-9. Newton on
    # the exact residual from the Floquet eigenvalues, all four edges,
    # takes 5 and 4 exact evaluations (with the knot arbitration); an
    # exact regula falsi bracketed by a point stepped into the band took
    # 25 and 26.
    calls = count_exact_calls(monkeypatch, bands_mod)
    bs = band_structure(build_discriminant(new_periodic([1.0, 1.0], [0.0, eps])))
    assert abs(bs.gaps[0].lo) <= 1e-15
    assert abs(bs.gaps[0].hi - eps) <= 1e-15
    assert calls[0] <= 6


def test_float_edge_refinement_budget(monkeypatch):
    # Every float evaluation of D in bands, per edge: bisection to the 1e-12
    # tolerance took about 38, Illinois regula falsi plus a secant polish
    # about 12.5. Newton from the Floquet eigenvalue takes one per solved
    # edge, 1.0 in all on these 300; evaluating D at the two ends of the
    # search interval as well made it about 1.17.
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


def test_touching_catalog_work_counts(monkeypatch):
    # The repeated blocks of the benchmark's touching workload. Per trial,
    # one Floquet call of two QL runs, where the Dirichlet knots cost a
    # third; per knot one judgement and one bounded evaluation in it; per
    # closed gap one exact quotient and no other evaluation, where the
    # Dirichlet knot of a closed gap also took a bounded slope.
    counts = {"oracle": 0, "ql": 0, "bounded": 0, "touches": 0}

    def counted(module, name, key):
        inner = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(discriminant_mod, "band_edges_oracle", "oracle")
    counted(floquet_mod, "_implicit_ql", "ql")
    counted(bands_mod, "eval_discriminant_bounded", "bounded")
    counted(bands_mod, "_touches", "touches")
    exact = count_exact_calls(monkeypatch, bands_mod)
    floats = count_float_calls(monkeypatch, bands_mod)
    residuals = {bands_mod._exact_residual: 0, bands_mod._float_residual: 0}
    inner_solve = bands_mod._newton_edge

    def solve(residual, *args):
        def counted_residual(x):
            residuals[residual.func] += 1
            return residual(x)

        return inner_solve(counted_residual, *args)

    monkeypatch.setattr(bands_mod, "_newton_edge", solve)
    knots = closed = 0
    for k in range(2000):
        t = run_trial(new_periodic(*blocks(0, k, q_lo=3)))
        assert t.families["bands"].passed, k
        knots += t.coefficients.p - 1
        closed += sum(t.band_structure.closed_gap_flags)
    assert closed == 11987
    assert counts["oracle"] == 2000 and counts["ql"] == 2 * 2000
    assert counts["bounded"] == counts["touches"] == knots
    assert exact[0] == closed + residuals[bands_mod._exact_residual]
    assert floats[0] == knots + sum(residuals.values())


def test_period2_open_gap_edge_knot_is_exact():
    # The knot is the midpoint 1 of the gap's edges 0 and 2, where
    # D = -2 exactly: strictly inside the gap, so neither piece mistakes
    # it for its own crossing.
    d = build_discriminant(period2_operator())
    assert floquet_knots(d) == (1.0,)
    bs = band_structure(d)
    for x, y in zip(bs.edges, (1.0 - SQRT5, 0.0, 2.0, 1.0 + SQRT5)):
        assert abs(x - y) <= 1e-14


@pytest.mark.parametrize("k", [1, 17, 18])
def test_thin_band_beside_a_knot(k):
    # p = 20 operators with a band below float resolution next to a knot;
    # a knot placed across it would pair the wrong edges.
    c = sample_operator(EnsembleConfig(seed=1, p_min=20, p_max=20), k)
    bs = band_structure(build_discriminant(c))
    for x, y in zip(bs.edges, numpy_edges(c)):
        assert abs(x - y) <= 1e-12 * max(1.0, bs.s)


@pytest.mark.parametrize("p", [24, 30])
def test_long_periods_pass_the_edge_families(p):
    # Knots from the monomial expansion of D and its Sturm sequence raised
    # PropertyViolation for 5 of these 20 operators at p = 24 and for all
    # 20 at p = 30; knots checked by the sign of D raise for none.
    # Alternation on the float sign of D at the edges failed all 20 of
    # each; the crossing records fail none.
    cfg = EnsembleConfig(seed=1, p_min=p, p_max=p)
    for k in range(20):
        c = sample_operator(cfg, k)
        t = run_trial(c)
        for name in ("discriminant", "bands", "oracle", "capacity", "alternation"):
            assert t.families[name].passed, (k, name, t.families[name].detail)
        bs = t.band_structure
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= ORACLE_MATCH_RTOL * max(1.0, bs.s)


def test_inverted_band_is_a_typed_failure(monkeypatch):
    # A band beside a narrow gap solves both edges on the exact residual,
    # so their order is a check: a lower edge above the upper one is a
    # typed failure of the bands family. The negative band length once
    # escaped run_trial as "math domain error" from the bounds.
    inner = bands_mod._newton_edge

    def inverted(residual, lo, hi, rising, x, tol):
        if residual.func is not bands_mod._exact_residual:
            return inner(residual, lo, hi, rising, x, tol)
        upper = rising == (residual.args[-1] > 0)
        return lo if upper else hi

    monkeypatch.setattr(bands_mod, "_newton_edge", inverted)
    t = run_trial(new_periodic([1.0, 1.0], [0.0, 1e-7]))
    assert not t.families["bands"].passed
    assert "band 0 inverted: lower edge" in t.families["bands"].detail


P60 = EnsembleConfig(seed=1, p_min=60, p_max=60, a_lo=0.5, a_hi=2.0)


@pytest.mark.parametrize(
    "cfg, k",
    [
        (EnsembleConfig(seed=3, p_min=30, p_max=30), 0),
        (P60, 7),
        (P60, 15),
        (EnsembleConfig(seed=3, p_min=30, p_max=30), 5),
        (P60, 1),
        (P60, 5),
        (EnsembleConfig(seed=4, p_min=30, p_max=30), 3),
    ],
)
def test_narrow_gap_edges_resolved_on_their_pieces(cfg, k):
    # Each has a band below float resolution beside a narrow gap. An exact
    # bracket search stepped from the float edge into the band inverted the
    # first four. A second, exact solve of the narrow-gap edge alone, seeded
    # at its float edge, inverted P60 operator 5 (band 41) and seed-4
    # operator 3 (band 29), where the float partner edge was wrong by more
    # than the band is long, and put P60 operator 1's edge 100 5.95e-14 * s
    # off numpy, having overwritten a sorted, inverted float edge. Both
    # edges of such a band are now one exact solve each. Alternation on the
    # float sign of D at such edges failed all seven; the crossing records pass.
    c = sample_operator(cfg, k)
    t = run_trial(c)
    failed = {n: r.detail for n, r in t.families.items() if not r.passed}
    if (cfg, k) in ((P60, 5), (P60, 15)):
        # their bands of float length 0.0 read as a violated log_sum_lower
        # (operator 15 since the fold became one symmetric update per
        # rotation, with 45 such bands where it had 43)
        assert failed.pop("bounds_unconditional") == "violated: ['log_sum_lower']"
    assert not failed, (k, failed)
    bs = t.band_structure
    for x, y in zip(bs.edges, numpy_edges(c)):
        assert abs(x - y) <= 1e-14 * max(1.0, bs.s), k


def test_exact_residual_beyond_the_float_range():
    # D = 2 T_3(x / 2a) reaches about 1e309 at x = 1e3 here: the exact
    # residual is then +/-inf, as the float evaluator gives, where the
    # integer quotient alone raises OverflowError, which run_trial does
    # not catch (seen on an operator with entries from 1e-50 to 1e56).
    c = new_periodic([1e-100] * 3, [0.0] * 3)
    assert bands_mod._exact_residual(c, 2, 1e3)[0] == math.inf
    assert bands_mod._exact_residual(c, 2, -1e3)[0] == -math.inf


def record_exact_work(monkeypatch):
    """Record the exact quotients and exact touch decisions of `bands` as ([(t, (N, Q))], [(x, j, touching)]).

    A knot judgement is an exact decision when it takes a quotient.
    """
    inner, inner_touches = bands_mod.scaled_trace_exact, bands_mod._touches
    quotients, decisions = [], []

    def recorded(c, t):
        quotients.append((t, inner(c, t)))
        return quotients[-1][1]

    def decided(c, x, j):
        before = len(quotients)
        touching = inner_touches(c, x, j)
        if len(quotients) > before:
            decisions.append((x, j, touching))
        return touching

    monkeypatch.setattr(bands_mod, "scaled_trace_exact", recorded)
    monkeypatch.setattr(bands_mod, "_touches", decided)
    return quotients, decisions


def test_exact_decisions_beyond_the_float_range(monkeypatch):
    # P60 operator 1 was the only seed-1 long-period operator whose knots
    # reached the exact touch decision, two of them. Judged on their error
    # bound alone, both knots are open: it makes no decision, and its
    # eight exact evaluations are the exact residual beside its flat gap,
    # each quotient N / Q with Q past 2^3000.
    c = sample_operator(P60, 1)
    quotients, decisions = record_exact_work(monkeypatch)
    bs = band_structure(build_discriminant(c))
    assert len(quotients) == 8 and decisions == []
    for t, (n, q) in quotients:
        assert q > 2**3000 and Fraction(n, q) == fraction_discriminant(c, t)
    for x, y in zip(bs.edges, numpy_edges(c)):
        assert abs(x - y) <= 1e-12 * max(1.0, bs.s)
    # A p = 60 repeated block: the q = 4 block of the touching catalog's
    # first operator, 15 times. Its 56 closed gaps are 56 exact decisions,
    # each quotient with Q past 2^3142; every exact value equals the
    # Fraction oracle, and each decision is its side of the gap's target.
    a, b = blocks(0, 0, q_lo=3)
    assert len(a) == 8 and a[:4] == a[4:]
    c = new_periodic(a[:4] * 15, b[:4] * 15)
    quotients.clear()
    trial = run_trial(c)
    assert trial.all_passed, {n: r.detail for n, r in trial.families.items() if not r.passed}
    assert len(quotients) == len(decisions) == 56 == sum(trial.band_structure.closed_gap_flags)
    for t, (n, q) in quotients:
        assert q.bit_length() > 3142 and Fraction(n, q) == fraction_discriminant(c, t)
    for x, j, touching in decisions:
        s = gap_sign(c.p, j)
        assert touching and s * (fraction_discriminant(c, x) - 2 * s) <= 0
    bs = trial.band_structure
    for x, y in zip(bs.edges, numpy_edges(c)):
        assert abs(x - y) <= 1.2e-15 * bs.s


def test_knot_across_a_band_is_a_typed_error(monkeypatch):
    # p = 3: gap 1 has sign +1 and gap 2 sign -1. At a point inside gap 2,
    # D is beyond -2, the opposite target of gap 1. Its float value decides
    # both: as gap 1's knot it raises, as gap 2's it opens that gap; inside
    # a band it raises for either gap.
    c = new_periodic([1.0, 0.5, 2.0], [0.3, -1.0, 1.5])
    bs = band_structure(build_discriminant(c))
    inside_gap2 = 0.5 * (bs.gaps[1].lo + bs.gaps[1].hi)
    inside_band1 = 0.5 * (bs.bands[1].lo + bs.bands[1].hi)
    with pytest.raises(PropertyViolation, match=r"at knot 1 of 2; expected sign \+1 and \|D\| >= 2"):
        bands_mod._touches(c, inside_gap2, 1)
    assert not bands_mod._touches(c, inside_gap2, 2)
    for j in (1, 2):
        with pytest.raises(PropertyViolation, match=f"at knot {j} of 2; expected sign"):
            bands_mod._touches(c, inside_band1, j)
    # With the float value undecided the exact quotient decides: as gap
    # 1's knot the point in gap 2 lies across a band, as gap 2's it opens
    # that gap. Inside a band it touches.
    monkeypatch.setattr(bands_mod, "eval_discriminant_bounded", lambda c, x: (0.0, 5.0))
    with pytest.raises(PropertyViolation, match=f"knot {inside_gap2} of gap 1 lies across a band"):
        bands_mod._touches(c, inside_gap2, 1)
    assert not bands_mod._touches(c, inside_gap2, 2)
    assert bands_mod._touches(c, inside_band1, 1) and bands_mod._touches(c, inside_band1, 2)


def test_a_misplaced_knot_fails_the_bands_family(monkeypatch):
    # Both halves of the one knot judgement file under the bands family.
    # Eigenvalues moved up by 2 put the knot in a band, D(3) = 1, and its
    # float value decides; moved up by 4 put it across a band, D(5) = 13
    # against the gap's target -2, and with its float bound undecided the
    # exact quotient decides.
    c = period2_operator()
    inner = discriminant_mod.band_edges_oracle

    def fails_bands_first(shift, detail):
        monkeypatch.setattr(
            discriminant_mod, "band_edges_oracle", lambda c: tuple(tuple(x + shift for x in xs) for xs in inner(c))
        )
        t = run_trial(c)
        assert t.families["discriminant"].passed
        assert re.match(detail, t.families["bands"].detail), t.families["bands"].detail
        assert all(t.families[name].detail == "skipped: band extraction failed" for name in FAMILY_NAMES[2:])

    fails_bands_first(2.0, r"D\(3\.0\) = 1\.0 at knot 1 of 1")
    monkeypatch.setattr(bands_mod, "eval_discriminant_bounded", lambda c, x: (-2.0, 5.0))
    fails_bands_first(4.0, r"knot 5\.0 of gap 1 lies across a band")


def test_long_period_knots_pass_the_edge_families():
    # Their float Dirichlet knots lay across a band from their gap, and
    # the exact decision raised PropertyViolation: the bands family
    # failed. The Floquet gap midpoints lie in their gaps.
    p100 = EnsembleConfig(seed=1, p_min=100, p_max=100, a_lo=0.5, a_hi=2.0)
    p80 = EnsembleConfig(seed=1, p_min=80, p_max=80)
    for cfg, k in [(p100, 0), (p100, 1), (p100, 2), (p100, 3), (p80, 3)]:
        c = sample_operator(cfg, k)
        t = run_trial(c)
        for name in ("discriminant", "bands", "oracle", "capacity", "alternation"):
            assert t.families[name].passed, (cfg.p_min, k, name, t.families[name].detail)
        bs = t.band_structure
        for x, y in zip(bs.edges, numpy_edges(c)):
            assert abs(x - y) <= 1e-12 * max(1.0, bs.s), (cfg.p_min, k)


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
