import dataclasses
import math
from fractions import Fraction

import pytest

from jacobibands import (
    AlternationFailure,
    CapacityMismatch,
    band_structure,
    build_discriminant,
    new_periodic,
    potential_report,
)
from jacobibands import potential as potential_mod
from jacobibands.bands import Interval
from jacobibands.discriminant import scaled_trace_exact
from jacobibands.ensemble import EnsembleConfig, run_trial, sample_operator

from conftest import count_exact_calls, fraction_discriminant, free_operator, period2_operator

SQRT5 = math.sqrt(5.0)


def pipeline(c):
    d = build_discriminant(c)
    bs = band_structure(d)
    return d, bs


def report(c):
    return potential_report(*pipeline(c))


def test_chebyshev_number_period2():
    assert report(period2_operator()).cheb_number == pytest.approx(2.0, rel=1e-10)


def test_chebyshev_number_free_case():
    for p in (2, 3, 6):
        assert report(free_operator(p)).cheb_number == pytest.approx(2.0, rel=1e-10)


def test_chebyshev_number_scales_with_offdiagonal():
    assert report(new_periodic([2.0, 2.0], [0.0, 0.0])).cheb_number == pytest.approx(8.0, rel=1e-10)


def test_spectrum_capacity_examples():
    assert report(period2_operator()).cap_spectrum == pytest.approx(1.0, rel=1e-10)
    rep = report(new_periodic([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
    assert rep.cap_spectrum == pytest.approx(2.0, rel=1e-9)
    assert report(new_periodic([1.0, 4.0], [0.0, 0.0])).cap_spectrum == pytest.approx(2.0, rel=1e-9)


def test_alternation_period2():
    d, bs = pipeline(period2_operator())
    rep = potential_report(d, bs)
    assert bs.edges == pytest.approx([1.0 - SQRT5, 0.0, 2.0, 1.0 + SQRT5], abs=1e-10)
    assert bs.edge_labels == ((1, -1), (-1, 1))
    assert rep.extreme_point_count == 4  # p + l = 2 + 2
    assert len(rep.band_measures) == 2


def test_alternation_free_period2():
    d, bs = pipeline(free_operator(2))
    rep = potential_report(d, bs)
    assert bs.edges == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-10)
    assert bs.edge_labels == ((1, -1), (-1, 1))
    assert rep.extreme_point_count == 3  # p + l = 2 + 1
    assert rep.band_measures == (Fraction(1, 1),)


def test_alternation_single_band():
    d, bs = pipeline(new_periodic([1.0], [5.0]))
    rep = potential_report(d, bs)
    assert bs.edges == pytest.approx([3.0, 7.0], abs=1e-10)
    assert bs.edge_labels == ((-1, 1),)
    assert rep.extreme_point_count == 2  # p + l = 1 + 1


def test_alternation_fails_on_a_swapped_sign():
    # Band 0 of the period-2 fixture runs from D = +2 down to D = -2 at 0;
    # its upper edge moved to -1, where D = +1, keeps the sup at 2.
    d, bs = pipeline(period2_operator())
    bands = (Interval(bs.bands[0].lo, -1.0), bs.bands[1])
    with pytest.raises(AlternationFailure, match=r"crossing of D = -2 certified at edge -1.0 \(float D 1.0\)"):
        potential_report(d, dataclasses.replace(bs, bands=bands))


def test_alternation_failure_names_a_zero_sign():
    # D(x) = x - 0.5 on the single band [-1.5, 2.5]; its lower edge moved
    # to 0.5, where D is exactly 0.0, leaves the capacity intact.
    d, bs = pipeline(new_periodic([1.0], [0.5]))
    with pytest.raises(AlternationFailure, match=r"crossing of D = -2 certified at edge 0.5 \(float D 0.0\)"):
        potential_report(d, dataclasses.replace(bs, bands=(Interval(0.5, 2.5),)))


def test_equilibrium_measures_open_gaps():
    assert report(period2_operator()).band_measures == (Fraction(1, 2), Fraction(1, 2))


def test_equilibrium_measures_merged_spectrum():
    assert report(free_operator(2)).band_measures == (Fraction(1, 1),)


def test_equilibrium_measures_single_band():
    assert report(new_periodic([1.0], [0.0])).band_measures == (Fraction(1, 1),)


def test_mixed_touching_counts():
    # a doubled period-2 operator: p=4 bands touch at +/-sqrt(5) inside the
    # two period-2 bands [-3,-1] and [1,3]; only the middle gap is open
    d, bs = pipeline(new_periodic([1.0, 2.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0]))
    assert list(bs.closed_gap_flags) == [True, False, True]
    assert bs.bands[0].lo == pytest.approx(-3.0, abs=1e-10)
    assert bs.bands[0].hi == pytest.approx(-math.sqrt(5.0), abs=1e-10)
    assert bs.bands[1].hi == pytest.approx(-1.0, abs=1e-10)
    rep = potential_report(d, bs)
    assert rep.extreme_point_count == 4 + 2
    assert rep.band_measures == (Fraction(1, 2), Fraction(1, 2))


def test_widom_identity_across_ensemble():
    cfg = EnsembleConfig(trials=15, seed=14)
    for k in range(cfg.trials):
        d, bs = pipeline(sample_operator(cfg, k))
        rep = potential_report(d, bs)
        assert rep.widom_factor == pytest.approx(2.0, rel=1e-8)
        assert rep.cheb_number / rep.cap_spectrum**bs.p == pytest.approx(2.0, rel=1e-8)


def test_capacity_monotonicity_sandwich():
    cfg = EnsembleConfig(trials=15, seed=15)
    for k in range(cfg.trials):
        d, bs = pipeline(sample_operator(cfg, k))
        cap = potential_report(d, bs).cap_spectrum
        assert max(b.length / 4.0 for b in bs.bands) <= cap * (1 + 1e-9)
        assert cap <= bs.s / 4.0 * (1 + 1e-9)


def test_capacity_translation_invariance_and_homogeneity():
    c = new_periodic([0.5, 2.0, 1.5], [0.7, -0.2, 0.1])
    base = report(c).cap_spectrum
    assert report(c.shifted(4.0)).cap_spectrum == pytest.approx(base, rel=1e-9)
    assert report(c.scaled(3.0)).cap_spectrum == pytest.approx(3.0 * base, rel=1e-9)


@pytest.mark.parametrize("t", [1e6, 1e7])
def test_certificate_runs_far_from_the_origin(t):
    # The certificate's first half-width is 1e-13 of |x|; past about 1e5
    # times the search width it exceeds the cap, and starting there tried
    # no step at all, so the float |D| entered the sup and failed capacity
    # (operator 0 at 1e6, all four at 1e7). Operator 84 has a band thinner
    # than the ulp of its position, so no float there is near D = +/-2:
    # alternation on the float sign failed it at 1e6 (D = -176.8 where +2
    # was expected).
    for k in (0, 1, 2, 3, 84):
        trial = run_trial(sample_operator(EnsembleConfig(seed=42), k).shifted(t))
        assert trial.all_passed, (k, {n: r.detail for n, r in trial.families.items() if not r.passed})


def test_report_bundles_everything():
    rep = report(period2_operator())
    assert rep.cap_spectrum == pytest.approx(1.0, rel=1e-10)
    assert rep.cheb_number == pytest.approx(2.0, rel=1e-10)
    assert rep.widom_factor == pytest.approx(2.0, rel=1e-12)
    assert sum(rep.band_measures) == 1


@pytest.mark.parametrize("delta", [0.3, 1e-3, 1e-6])
def test_capacity_catches_an_edge_moved_into_its_gap(delta):
    # The upper edge of band 1 moved by delta has |D| > 2 there, and the
    # nearest crossing of -2 is delta away: the certificate must not reach
    # it, so the sup, and with it the capacity, shows the wrong edge.
    d, bs = pipeline(new_periodic([1.0, 0.5, 2.0], [0.3, -1.0, 1.5]))
    bands = list(bs.bands)
    bands[1] = Interval(bands[1].lo, bands[1].hi + delta)
    assert bands[1].hi < bands[2].lo
    with pytest.raises(CapacityMismatch):
        potential_report(d, dataclasses.replace(bs, bands=tuple(bands)))


@pytest.mark.parametrize("delta", [0.1, 1e-3, 1e-6])
def test_alternation_catches_an_edge_moved_into_its_band(delta):
    # Inside its band |D| < 2, so the sup and the capacity cannot see the
    # moved edge; D crosses its target -2 only delta * s away, farther than
    # the certificate reaches, so the edge has no crossing record.
    d, bs = pipeline(new_periodic([1.0, 0.5, 2.0], [0.3, -1.0, 1.5]))
    bands = list(bs.bands)
    bands[1] = Interval(bands[1].lo, bands[1].hi - delta * bs.s)
    assert bands[1].lo < bands[1].hi
    with pytest.raises(AlternationFailure, match=f"D = -2 certified at edge {bands[1].hi} "):
        potential_report(d, dataclasses.replace(bs, bands=tuple(bands)))


@pytest.mark.parametrize("k", [5, 89, 123])
def test_repeated_operators_pass_every_family(k):
    # Each block alone passes. Repeated, the sup sat at a touching edge
    # whose float |D| was 2.0000001 (exact D = -2 to 12 digits, a double
    # root with no sign change to certify) and failed capacity; the knot's
    # exact touch arbitration is now that edge's record, with value 2.
    c = sample_operator(EnsembleConfig(seed=42, p_min=2, p_max=5), k)
    m = 2 + k % 3
    trial = run_trial(new_periodic(list(c.a) * m, list(c.b) * m))
    assert trial.all_passed, {n: r.detail for n, r in trial.families.items() if not r.passed}


def test_exact_refinement_certifies_steep_edges_in_few_calls(monkeypatch):
    calls = count_exact_calls(monkeypatch, potential_mod)
    refined = []
    inner = potential_mod._crossing_certified

    def recorded(d, x, target):
        certified = inner(d, x, target)
        refined.append(certified)
        return certified

    monkeypatch.setattr(potential_mod, "_crossing_certified", recorded)
    cfg = EnsembleConfig(seed=42)
    for k in range(300):
        potential_report(*pipeline(sample_operator(cfg, k)))
    assert len(refined) > 300
    assert all(refined)
    assert calls[0] / len(refined) <= 0.25


def test_float_certificate_agrees_with_exact_signs(monkeypatch):
    # Each widening step of _crossing_certified evaluates the bounded float D
    # at x - h and x + h; where both clear the target by more than the bound,
    # their signs are taken as exact, and differing signs certify an edge.
    evaluations = []
    steps = []
    inner_refine = potential_mod._crossing_certified
    inner_eval = potential_mod.eval_discriminant_bounded

    def recorded_eval(c, t):
        value, err = inner_eval(c, t)
        evaluations.append((c, t, value, err))
        return value, err

    def recorded_refine(d, x, target):
        evaluations.clear()
        certified = inner_refine(d, x, target)
        # one pair (x - h, x + h) per step
        steps.extend((target, evaluations[i], evaluations[i + 1]) for i in range(0, len(evaluations), 2))
        return certified

    monkeypatch.setattr(potential_mod, "_crossing_certified", recorded_refine)
    monkeypatch.setattr(potential_mod, "eval_discriminant_bounded", recorded_eval)
    cfg = EnsembleConfig(seed=42)
    for k in range(300):
        potential_report(*pipeline(sample_operator(cfg, k)))
    certified = 0
    for target, *ends in steps:
        if all(abs(value - target) > err for _, _, value, err in ends):
            sides = [math.copysign(1, value - target) for _, _, value, err in ends]
            for (c, t, _, _), side in zip(ends, sides):
                n, q = scaled_trace_exact(c, t)
                assert q > 0 and Fraction(n, q) == fraction_discriminant(c, t)
                assert math.copysign(1, n - target * q) == side
            certified += sides[0] != sides[1]
    assert certified > 300


def test_long_period_refinement_stays_bounded(monkeypatch):
    # |D| reaches 1e23 at the float edges of this p = 40 operator, so every
    # edge goes to the certificate. The float sign of D there is noise, and
    # alternation once failed on it; the certified crossings pass.
    calls = count_exact_calls(monkeypatch, potential_mod)
    report = run_trial(sample_operator(EnsembleConfig(seed=1, p_min=40, p_max=40), 0))
    assert calls[0] <= 600
    assert report.families["capacity"].passed
    assert report.families["alternation"].passed
