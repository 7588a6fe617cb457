"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. The 1000-trial reference ensemble is computed once per
session and shared by criteria 3 through 6.
"""

import json
import math
import time
from fractions import Fraction


from jacobibands import (
    band_structure,
    build_discriminant,
    eval_discriminant_exact,
    evaluate_all_bounds,
    potential_report,
)
from jacobibands.bounds import CONDITIONAL_NAMES, UNCONDITIONAL_NAMES
from jacobibands.cli import main
from jacobibands.discriminant import search_interval
from jacobibands.ensemble import EnsembleConfig, sample_operator

from conftest import criterion, free_operator, period2_operator

SQRT5 = math.sqrt(5.0)


def full_pipeline(c):
    d = build_discriminant(c)
    bs = band_structure(d)
    return d, bs, potential_report(d, bs)


def test_criterion_1_period2_closed_form():
    with criterion(1, "period-2 closed form and runtime"):
        full_pipeline(free_operator(2))  # warm path; measure steady-state cost
        c = period2_operator()
        t0 = time.perf_counter()
        _, bs, pot = full_pipeline(c)
        elapsed = time.perf_counter() - t0

        expected_edges = [1.0 - SQRT5, 0.0, 2.0, 1.0 + SQRT5]
        for edge, want in zip(bs.edges, expected_edges):
            assert abs(edge - want) <= 1e-10
        assert abs(bs.s - 2.0 * SQRT5) <= 1e-10
        assert abs(bs.total_band_measure - 2.0 * (SQRT5 - 1.0)) <= 1e-10
        assert abs(pot.cap_spectrum - 1.0) <= 1e-8
        assert abs(pot.cheb_number - 2.0) <= 1e-8
        assert abs(pot.widom_factor - 2.0) <= 1e-8
        assert elapsed < 0.010, f"period-2 analysis took {elapsed * 1e3:.2f} ms"


def test_criterion_2_free_case_fixture():
    with criterion(2, "free-case band edges, measure, closed gaps, runtime"):
        t0 = time.perf_counter()
        for p in range(2, 13):
            c = free_operator(p)
            d = build_discriminant(c)
            bs = band_structure(d)
            distinct = [bs.bands[0].lo] + [band.hi for band in bs.bands]
            expected = [2.0 * math.cos((p - k) * math.pi / p) for k in range(p + 1)]
            for got, want in zip(distinct, expected):
                assert abs(got - want) <= 1e-9, (p, got, want)
            assert all(bs.closed_gap_flags)
            assert abs(bs.total_band_measure - 4.0) <= 1e-9
            rep_records = {r.name: r for r in evaluate_all_bounds(d, bs).records}
            assert abs(rep_records["band_sum_upper_capacity"].slack) <= 1e-9
            assert abs(rep_records["band_sum_upper_min_offdiag"].slack) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"free-case sweep took {elapsed:.2f} s"


def test_criterion_3_oracle_equivalence(acceptance_ensemble):
    with criterion(3, "oracle equivalence over 1000 seeded operators"):
        result, elapsed = acceptance_ensemble
        assert len(result.trials) == 1000
        for trial in result.trials:
            assert trial.families["oracle"].passed, (
                trial.index,
                trial.families["oracle"].detail,
            )
            tol = 1e-8 * max(1.0, trial.band_structure.s)
            assert trial.oracle_max_discrepancy <= tol
        assert elapsed < 60.0, f"ensemble took {elapsed:.1f} s"


def test_criterion_4_bound_suite(acceptance_ensemble):
    with criterion(4, "bound suite: unconditional 1000/1000, conditional where met"):
        result, _ = acceptance_ensemble
        met_counts = {name: 0 for name in CONDITIONAL_NAMES}
        for trial in result.trials:
            assert trial.bounds is not None, trial.index
            records = {r.name: r for r in trial.bounds.records}
            for name in UNCONDITIONAL_NAMES:
                assert records[name].satisfied, (trial.index, name)
            for name in CONDITIONAL_NAMES:
                record = records[name]
                if record.condition_met:
                    met_counts[name] += 1
                    assert record.satisfied, (trial.index, name)
        for name, count in met_counts.items():
            assert count >= 1, f"condition for {name} never met; widen the b range"


def test_criterion_5_capacity_identity(acceptance_ensemble):
    with criterion(5, "capacity equals geometric mean in every trial"):
        result, _ = acceptance_ensemble
        for trial in result.trials:
            assert trial.families["capacity"].passed, trial.index
            assert trial.capacity_rel_error <= 1e-8, (
                trial.index,
                trial.capacity_rel_error,
            )


def test_criterion_6_equilibrium_measures(acceptance_ensemble):
    with criterion(6, "equilibrium weights exact, extreme points count p + l"):
        result, _ = acceptance_ensemble
        open_trials = 0
        for trial in result.trials:
            pot = trial.potential
            assert pot is not None, trial.index
            p = trial.coefficients.p
            measures = pot.band_measures
            assert sum(measures) == 1
            assert pot.extreme_point_count == p + len(measures)
            if not any(trial.band_structure.closed_gap_flags):
                open_trials += 1
                assert measures == tuple([Fraction(1, p)] * p), trial.index
        assert open_trials >= 1


def test_criterion_7_structural_invariants():
    with criterion(7, "cyclic shift, shift/scale covariance, interlacing on 100 operators"):
        cfg = EnsembleConfig(trials=100, seed=7, p_min=2, p_max=8)
        shift_t = 1.618
        scale_f = 1.75
        for k in range(cfg.trials):
            c = sample_operator(cfg, k)
            d0 = build_discriminant(c)
            bs0 = band_structure(d0)

            # rotation: two degree-p polynomials equal at p + 1 points are equal
            lo, hi = search_interval(d0.summary)
            points = [lo + (hi - lo) * i / c.p for i in range(c.p + 1)]
            values = [eval_discriminant_exact(c, t) for t in points]
            for rotation in {1, c.p // 2} - {0}:
                d1 = build_discriminant(c.rotated(rotation))
                assert [eval_discriminant_exact(d1.coeffs, t) for t in points] == values

            bs_shift = band_structure(build_discriminant(c.shifted(shift_t)))
            bs_scale = band_structure(build_discriminant(c.scaled(scale_f)))
            for b0, b1, b2 in zip(bs0.bands, bs_shift.bands, bs_scale.bands):
                for x0, x1, x2 in ((b0.lo, b1.lo, b2.lo), (b0.hi, b1.hi, b2.hi)):
                    tol = 1e-9 * max(1.0, abs(x0) + abs(shift_t), bs0.s)
                    assert abs(x1 - (x0 + shift_t)) <= tol
                    assert abs(x2 - scale_f * x0) <= tol

            # interlacing: roots of target +2 and -2 alternate in pairs
            for lab_lo, lab_hi in bs0.edge_labels:
                assert lab_lo == -lab_hi
            for n in range(bs0.p - 1):
                assert bs0.edge_labels[n][1] == bs0.edge_labels[n + 1][0]
            assert bs0.edge_labels[-1][1] == 1


def test_criterion_8_byte_identical_reports(tmp_path):
    with criterion(8, "ensemble --seed 42 twice is byte-identical"):
        first = tmp_path / "run1.json"
        second = tmp_path / "run2.json"
        assert main(["ensemble", "--seed", "42", "--report", str(first)]) == 0
        assert main(["ensemble", "--seed", "42", "--report", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["all_passed"] is True
