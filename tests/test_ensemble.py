import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jacobibands import (
    AlternationFailure,
    CapacityMismatch,
    ConfigInvalid,
    NonFiniteEntry,
    build_discriminant,
    ensemble,
    new_periodic,
)
from jacobibands.bounds import CONDITIONAL_NAMES, UNCONDITIONAL_NAMES
from jacobibands.ensemble import (
    EnsembleConfig,
    ensemble_to_jsonable,
    run_ensemble,
    run_trial,
    sample_operator,
    trial_to_jsonable,
    validate_config,
)

from conftest import blocks, numpy_edges


def test_sampling_is_deterministic():
    cfg = EnsembleConfig(trials=5, seed=77)
    first = sample_operator(cfg, 3)
    second = sample_operator(cfg, 3)
    assert first == second
    assert sample_operator(cfg, 4) != first


def test_sampling_respects_period_range():
    cfg = EnsembleConfig(trials=1, seed=1, p_min=2, p_max=2)
    for k in range(20):
        assert sample_operator(cfg, k).p == 2


def test_sampling_degenerate_offdiagonal_range():
    cfg = EnsembleConfig(trials=1, seed=1, a_lo=1.0, a_hi=1.0)
    for k in range(10):
        c = sample_operator(cfg, k)
        assert all(x == 1.0 for x in c.a)


def test_sampling_ranges():
    cfg = EnsembleConfig(trials=1, seed=5, p_min=3, p_max=7, a_lo=0.2, a_hi=5.0, b_lo=-1.0, b_hi=1.0)
    for k in range(30):
        c = sample_operator(cfg, k)
        assert 3 <= c.p <= 7
        assert all(0.2 <= x <= 5.0 for x in c.a)
        assert all(-1.0 <= x <= 1.0 for x in c.b)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        validate_config(EnsembleConfig(trials=0))
    with pytest.raises(ConfigInvalid):
        validate_config(EnsembleConfig(p_min=0))
    with pytest.raises(ConfigInvalid):
        validate_config(EnsembleConfig(p_min=5, p_max=2))
    with pytest.raises(ConfigInvalid):
        validate_config(EnsembleConfig(a_lo=0.0))
    with pytest.raises(ConfigInvalid):
        validate_config(EnsembleConfig(a_lo=2.0, a_hi=1.0))
    with pytest.raises(ConfigInvalid):
        validate_config(EnsembleConfig(b_lo=1.0, b_hi=-1.0))
    with pytest.raises(ConfigInvalid, match="non-finite"):
        validate_config(EnsembleConfig(a_hi=math.inf))
    # A str or None endpoint raised TypeError from the range comparisons,
    # and bool endpoints were accepted and ran.
    bad = [("a_lo", "1"), ("b_hi", None), ("a_lo", True), ("a_hi", "2"), ("b_lo", False), ("b_hi", True)]
    for name, value in bad:
        with pytest.raises(ConfigInvalid, match=f"{name} must be a real number"):
            validate_config(EnsembleConfig(**{name: value}))
    with pytest.raises(ConfigInvalid, match="b_lo must be a real number"):
        validate_config(EnsembleConfig(b_lo=False, b_hi=True))
    with pytest.raises(ConfigInvalid):
        run_ensemble(EnsembleConfig(trials=0))


@pytest.mark.parametrize("name, value", [("trials", 2.5), ("p_min", 2.5), ("p_max", 3.5), ("trials", True)])
def test_config_counts_must_be_ints(name, value):
    # A float count raised TypeError or ValueError out of run_ensemble, and
    # trials=True ran one trial.
    with pytest.raises(ConfigInvalid, match=f"{name} must be an int"):
        run_ensemble(EnsembleConfig(**{name: value}))


def test_run_trial_period2_all_pass():
    report = run_trial(new_periodic([1.0, 1.0], [0.0, 2.0]))
    assert report.all_passed, {k: v.detail for k, v in report.families.items() if not v.passed}
    assert report.oracle_max_discrepancy < 1e-8
    assert report.capacity_rel_error < 1e-8
    assert len(report.bounds.records) == 13


def test_core_runs_without_numpy():
    # The core promises no dependencies: with numpy unimportable, the
    # period-2 fixture and a p = 12 operator still pass every family.
    code = """
import sys
sys.modules["numpy"] = None
from jacobibands import new_periodic
from jacobibands.ensemble import EnsembleConfig, run_trial, sample_operator
for c in (new_periodic([1.0, 1.0], [0.0, 2.0]), sample_operator(EnsembleConfig(p_min=12, p_max=12), 0)):
    t = run_trial(c)
    assert t.all_passed, {k: v.detail for k, v in t.families.items() if not v.passed}
print("ok")
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_run_trial_single_band():
    report = run_trial(new_periodic([1.0], [0.0]))
    assert report.all_passed
    assert report.band_structure.p == 1


def test_run_trial_near_touching_completes():
    report = run_trial(new_periodic([1.0, 1.0], [0.0, 1e-7]))
    assert report.all_passed
    assert report.band_structure.closed_gap_flags == (False,)
    assert report.band_structure.min_gap == pytest.approx(1e-7, rel=1e-4)


def test_run_trial_records_every_family():
    report = run_trial(new_periodic([2.0, 0.5, 1.0], [1.0, 0.0, -1.0]))
    assert set(report.families) == {
        "discriminant",
        "bands",
        "oracle",
        "capacity",
        "alternation",
        "bounds_unconditional",
        "bounds_conditional",
    }


def test_alternation_failure_is_filed_under_alternation(monkeypatch):
    def no_crossing(d, bs):
        raise AlternationFailure("no crossing of D = +2 certified at edge 0.5 (float D -1.0)")

    monkeypatch.setattr(ensemble, "potential_report", no_crossing)
    report = run_trial(new_periodic([1.0, 1.0], [0.0, 2.0]))
    assert report.families["alternation"].detail.startswith("no crossing of D = +2")
    assert not report.families["alternation"].passed
    assert report.families["capacity"].passed
    assert report.potential is None


def test_constant_block_passes_every_family():
    # Every gap of a constant operator is closed; the edges used to come out
    # 0.42 off the Floquet eigenvalues, with the sign of the discriminant
    # wrong at one extremum.
    a, b = [0.6853027745792702] * 10, [-0.09913119158558903] * 10
    c = new_periodic(a, b)
    report = run_trial(c)
    assert report.all_passed, {k: v.detail for k, v in report.families.items() if not v.passed}
    bs = report.band_structure
    assert all(bs.closed_gap_flags)
    for x, y in zip(bs.edges, numpy_edges(c)):
        assert abs(x - y) <= 1e-12 * max(1.0, bs.s)


def test_capacity_mismatch_is_filed_under_capacity(monkeypatch):
    def mismatch(d, bs):
        raise CapacityMismatch("capacity 1.0 vs geometric mean 2.0")

    monkeypatch.setattr(ensemble, "potential_report", mismatch)
    report = run_trial(new_periodic([1.0, 1.0], [0.0, 2.0]))
    assert report.families["capacity"].detail == "capacity 1.0 vs geometric mean 2.0"
    assert not report.families["capacity"].passed
    assert report.families["alternation"].detail == "skipped: capacity failed"
    assert report.families["bounds_unconditional"].passed


def test_unconditional_and_conditional_partition():
    assert len(UNCONDITIONAL_NAMES) == 11
    assert len(CONDITIONAL_NAMES) == 2
    assert not set(UNCONDITIONAL_NAMES) & set(CONDITIONAL_NAMES)


def test_ensemble_reports_are_reproducible():
    cfg = EnsembleConfig(trials=12, seed=99)
    first = json.dumps(ensemble_to_jsonable(run_ensemble(cfg)), indent=2)
    second = json.dumps(ensemble_to_jsonable(run_ensemble(cfg)), indent=2)
    assert first == second


def test_seed42_report_bytes_are_pinned():
    # The report bytes, the same on CPython 3.10, 3.11, 3.12 and 3.13. A change
    # that moves this digest changes the reports and must say why. Re-pinned
    # when the Floquet fold became one symmetric update per rotation: the
    # edges moved by at most 1.5e-15 * max(1, s), families and closed flags
    # did not, and the fields that moved are the edges and what derives
    # from them (gaps, s, potential, bound records).
    res = run_ensemble(EnsembleConfig(trials=200, seed=42))
    text = json.dumps(ensemble_to_jsonable(res), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "3c96756c6ecb542101968ce3e7003db93caa3a6de8a50f5cea72140db7ab9bb1"


def test_touching_report_bytes_are_pinned():
    # Repeated blocks close most gaps, so these reports run through the
    # touching knots and the exact arbitration the seed-42 pin never reaches.
    # Re-pinned when the knots became the Floquet gap midpoints: a closed
    # gap's edges are its knot, and moved by at most 7.2e-16 * s; closed
    # flags, families and the potential block are unchanged. Re-pinned when
    # the Floquet fold became one symmetric update per rotation: 486 of the
    # 500 reports moved in the edges and what derives from them, edges by at
    # most 2.4e-15 * max(1, s); closed flags and families are unchanged.
    ops = [blocks(0, k, q_lo=3) for k in range(300)] + [blocks(1, k) for k in range(200)]
    digest = hashlib.sha256()
    for a, b in ops:
        text = json.dumps(trial_to_jsonable(run_trial(new_periodic(a, b))), sort_keys=True)
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == "2bbfda3ad5ebadc9a1b727ad6f76d2c953cc3da200e6649dd469f17e793ee620"


# Operators whose derived scales leave the float range: a Gershgorin end,
# the diagonal spread, and an off-diagonal product that overflows or
# underflows. Each raised an untyped error out of run_trial.
BEYOND_FLOAT_RANGE = [
    ([1e308, 1e308], [0.0, 0.0], "gershgorin_lo"),
    ([1e200, 1e200], [0.0, 0.0], "off-diagonal product"),
    ([1.0, 1.0], [1e308, -1e308], "diag_spread"),
    ([1e-200, 1e-200], [0.0, 0.0], "off-diagonal product"),
    # a_0 / a_1 = 1e600 overflows in the transfer product: the knot's value
    # is -inf and its error bound nan
    ([1e300, 1e-300], [0.0, 0.0], "at knot 1 of 1"),
    # the Gershgorin ends are finite, but the midpoint of an edge solve
    # overflowed, and Fraction(inf) raised OverflowError
    ([1.0], [1e308], "gershgorin_lo + gershgorin_hi = inf"),
]


@pytest.mark.parametrize("a, b, quantity", BEYOND_FLOAT_RANGE)
def test_scales_beyond_the_float_range_fail_the_discriminant(a, b, quantity):
    t = run_trial(new_periodic(a, b))
    assert not t.families["discriminant"].passed
    assert quantity in t.families["discriminant"].detail
    assert all(r.detail.startswith("skipped") for n, r in t.families.items() if n != "discriminant")
    with pytest.raises(NonFiniteEntry, match=re.escape(quantity)):
        build_discriminant(new_periodic(a, b))


@pytest.mark.parametrize("b", [1e16, 1e17, 1e20, 1e100])
@pytest.mark.parametrize("p", [1, 2])
def test_spectra_below_float_resolution_fail_a_family(p, b):
    # Every edge rounds to b, so s is 0.0, and at p = 1 the Chebyshev number
    # is too; their logs in bounds and potential once escaped run_trial as
    # ValueError.
    t = run_trial(new_periodic([1.0] * p, [b] * p))
    assert not t.all_passed
    json.dumps(trial_to_jsonable(t))


def test_ensemble_aggregation_counts():
    cfg = EnsembleConfig(trials=10, seed=6)
    res = run_ensemble(cfg)
    assert res.all_passed
    assert all(count == 10 for count in res.family_pass_counts.values())
    assert math.isfinite(res.max_oracle_discrepancy)
    assert 0 <= res.condition_met_counts["min_band_upper"] <= 10
    assert [t.index for t in res.trials] == list(range(10))


def test_trial_serialization_excludes_wall_time():
    cfg = EnsembleConfig(trials=2, seed=8)
    res = run_ensemble(cfg)
    payload = ensemble_to_jsonable(res)
    text = json.dumps(payload)
    assert "wall_time" not in text
    assert payload["trials"][0]["operator"]["p"] == res.trials[0].coefficients.p
