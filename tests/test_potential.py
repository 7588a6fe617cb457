import dataclasses
import math
from fractions import Fraction

import pytest

from jacobibands import (
    CapacityMismatch,
    band_structure,
    build_discriminant,
    capacity_interval,
    new_periodic,
    potential_report,
)
from jacobibands import potential as potential_mod
from jacobibands.bands import Interval
from jacobibands.discriminant import offdiag_product_exact, scaled_trace_exact, trace_side
from jacobibands.ensemble import EnsembleConfig, run_trial, sample_operator

from conftest import count_exact_calls, free_operator, period2_operator

SQRT5 = math.sqrt(5.0)


def pipeline(c):
    d = build_discriminant(c)
    bs = band_structure(d)
    return d, bs


def report(c):
    return potential_report(*pipeline(c))


def test_capacity_interval_quarter_length():
    assert capacity_interval(Interval(-2.0, 2.0)) == 1.0
    assert capacity_interval(Interval(0.0, 0.0)) == 0.0
    assert capacity_interval(Interval(2.0, 1.0 + SQRT5)) == pytest.approx(
        (SQRT5 - 1.0) / 4.0, abs=1e-12
    )


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
    alt = report(period2_operator()).alternation
    xs = [pt.x for pt in alt.points]
    signs = [pt.sign for pt in alt.points]
    assert xs == pytest.approx([1.0 - SQRT5, 0.0, 2.0, 1.0 + SQRT5], abs=1e-10)
    assert signs == [1, -1, -1, 1]
    assert alt.extreme_point_count == 4  # p + l = 2 + 2
    assert len(alt.maximal_intervals) == 2


def test_alternation_free_period2():
    alt = report(free_operator(2)).alternation
    assert [pt.sign for pt in alt.points] == [1, -1, 1]
    assert [pt.x for pt in alt.points] == pytest.approx([-2.0, 0.0, 2.0], abs=1e-10)
    assert alt.extreme_point_count == 3  # p + l = 2 + 1


def test_alternation_single_band():
    alt = report(new_periodic([1.0], [5.0])).alternation
    assert [pt.x for pt in alt.points] == pytest.approx([3.0, 7.0], abs=1e-10)
    assert [pt.sign for pt in alt.points] == [-1, 1]
    assert alt.extreme_point_count == 2  # p + l = 1 + 1


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
    assert rep.alternation.extreme_point_count == 4 + 2
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
        assert max(capacity_interval(b) for b in bs.bands) <= cap * (1 + 1e-9)
        assert cap <= bs.s / 4.0 * (1 + 1e-9)


def test_capacity_translation_invariance_and_homogeneity():
    c = new_periodic([0.5, 2.0, 1.5], [0.7, -0.2, 0.1])
    base = report(c).cap_spectrum
    assert report(c.shifted(4.0)).cap_spectrum == pytest.approx(base, rel=1e-9)
    assert report(c.scaled(3.0)).cap_spectrum == pytest.approx(3.0 * base, rel=1e-9)


def test_report_bundles_everything():
    rep = report(period2_operator())
    assert rep.cap_spectrum == pytest.approx(1.0, rel=1e-10)
    assert rep.cheb_number == pytest.approx(2.0, rel=1e-10)
    assert rep.widom_factor == pytest.approx(2.0, rel=1e-12)
    assert rep.cap_bands == pytest.approx(
        ((SQRT5 - 1.0) / 4.0, (SQRT5 - 1.0) / 4.0), abs=1e-11
    )
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


def test_exact_refinement_certifies_steep_edges_in_few_calls(monkeypatch):
    calls = count_exact_calls(monkeypatch, potential_mod)
    refined = []
    inner = potential_mod._refine_value_exact

    def recorded(d, x, target):
        value = inner(d, x, target)
        refined.append((target, value))
        return value

    monkeypatch.setattr(potential_mod, "_refine_value_exact", recorded)
    cfg = EnsembleConfig(seed=42)
    for k in range(300):
        potential_report(*pipeline(sample_operator(cfg, k)))
    assert len(refined) > 300
    for target, value in refined:
        assert abs(value - abs(target)) <= 2e-12 * abs(target)
    assert calls[0] / len(refined) <= 0.25


def test_float_certificate_agrees_with_exact_signs(monkeypatch):
    # Each widening step of _refine_value_exact evaluates the bounded float D
    # at x - h and x + h; where both clear the target by more than the bound,
    # their signs are taken as exact, and differing signs certify an edge.
    evaluations = []
    steps = []
    inner_refine = potential_mod._refine_value_exact
    inner_eval = potential_mod.eval_discriminant_bounded

    def recorded_eval(c, t):
        value, err = inner_eval(c, t)
        evaluations.append((c, t, value, err))
        return value, err

    def recorded_refine(d, x, target):
        evaluations.clear()
        value = inner_refine(d, x, target)
        # pairs (x - h, x + h), then at most one fallback evaluation at x
        steps.extend((target, evaluations[i], evaluations[i + 1]) for i in range(0, len(evaluations) - 1, 2))
        return value

    monkeypatch.setattr(potential_mod, "_refine_value_exact", recorded_refine)
    monkeypatch.setattr(potential_mod, "eval_discriminant_bounded", recorded_eval)
    cfg = EnsembleConfig(seed=42)
    for k in range(300):
        potential_report(*pipeline(sample_operator(cfg, k)))
    certified = 0
    for target, *ends in steps:
        if all(abs(value - target) > err for _, _, value, err in ends):
            sides = [math.copysign(1, value - target) for _, _, value, err in ends]
            for (c, t, _, _), side in zip(ends, sides):
                assert trace_side(scaled_trace_exact(c, t), target * offdiag_product_exact(c)) == side
            certified += sides[0] != sides[1]
    assert certified > 300


def test_long_period_refinement_stays_bounded(monkeypatch):
    # |D| reaches 1e23 at the float edges of this p = 40 operator, so every
    # edge is refined; alternation fails on the float signs either way.
    calls = count_exact_calls(monkeypatch, potential_mod)
    report = run_trial(sample_operator(EnsembleConfig(seed=1, p_min=40, p_max=40), 0))
    assert calls[0] <= 600
    assert report.families["capacity"].passed
    assert report.families["alternation"].detail == (
        "sign of discriminant at extremum -14.514989887117377 is -1, expected +1 "
        "(value -4.6981933766325096e+22, error bound 9.99075156408386e+26)"
    )
