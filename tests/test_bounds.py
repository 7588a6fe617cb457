import json
import math

import pytest

from jacobibands import (
    band_structure,
    build_discriminant,
    evaluate_all_bounds,
    new_periodic,
    run_trial,
)
from jacobibands.bounds import (
    CONDITIONAL_NAMES,
    UNCONDITIONAL_NAMES,
    _pow_ratio,
    report_to_jsonable,
)

from conftest import free_operator, period2_operator

SQRT5 = math.sqrt(5.0)


def pipeline(c):
    d = build_discriminant(c)
    return d, band_structure(d)


def bounds(c, **d_overrides):
    return evaluate_all_bounds(*pipeline(c), **d_overrides)


@pytest.fixture(scope="module")
def period2_report():
    return bounds(period2_operator())


def test_report_has_exactly_thirteen_records(period2_report):
    assert len(period2_report.records) == 13
    assert set(UNCONDITIONAL_NAMES) | set(CONDITIONAL_NAMES) == {
        r.name for r in period2_report.records
    }


def test_period2_classical_values(period2_report):
    rep = period2_report
    s = 2.0 * SQRT5
    band_sum = 2.0 * (SQRT5 - 1.0)

    r = rep.by_name("diameter_lower")
    assert r.lhs == pytest.approx(4.0)
    assert r.rhs == pytest.approx(s, abs=1e-10)

    r = rep.by_name("band_sum_upper_capacity")
    assert r.lhs == pytest.approx(band_sum, abs=1e-10)
    assert r.rhs == pytest.approx(4.0)

    r = rep.by_name("band_sum_upper_diameter")
    assert r.rhs == pytest.approx(s - 2.0, abs=1e-10)
    assert r.satisfied  # equality case within tolerance

    r = rep.by_name("band_sum_lower_diameter")
    assert r.lhs == pytest.approx(4.0 / s, abs=1e-10)

    r = rep.by_name("gap_sum_lower_capacity")
    assert r.lhs == pytest.approx(0.0)
    assert r.rhs == pytest.approx(2.0, abs=1e-10)

    r = rep.by_name("gap_sum_lower_combined")
    assert r.lhs == pytest.approx(2.0)  # max(max(4,2)-4, 2)
    assert r.rhs == pytest.approx(2.0, abs=1e-10)
    assert r.satisfied

    assert all(rec.satisfied for rec in rep.records)


def test_unknown_record_name_raises_key_error(period2_report):
    with pytest.raises(KeyError, match="no_such_record"):
        period2_report.by_name("no_such_record")


def test_period2_log_sum_lower_closed_form(period2_report):
    r = period2_report.by_name("log_sum_lower")
    s = 2.0 * SQRT5
    expected_lhs = 1.0 / math.log(s)  # d = s, geometric mean 1
    expected_rhs = 2.0 / math.log(4.0 * s / (SQRT5 - 1.0))
    assert r.condition_met
    assert r.lhs == pytest.approx(expected_lhs, abs=1e-10)
    assert r.rhs == pytest.approx(expected_rhs, abs=1e-10)
    assert r.satisfied
    assert r.slack == pytest.approx(expected_rhs - expected_lhs, abs=1e-10)


def test_period2_log_sum_upper_closed_form():
    r = bounds(period2_operator(), d_upper=2.0).by_name("log_sum_upper")
    assert r.condition_met
    assert r.rhs == pytest.approx(1.0 / math.log(2.0), abs=1e-10)
    assert r.lhs == pytest.approx(2.0 / math.log(8.0 / (SQRT5 - 1.0)), abs=1e-10)
    assert r.satisfied


def test_period2_max_band_lower(period2_report):
    r = period2_report.by_name("max_band_lower")
    assert r.lhs == pytest.approx(2.0 / SQRT5, abs=1e-10)
    assert r.rhs == pytest.approx(SQRT5 - 1.0, abs=1e-10)
    assert r.satisfied


def test_period2_min_band_upper(period2_report):
    r = period2_report.by_name("min_band_upper")
    assert r.condition_met  # 4*2 >= max(sqrt5-1, 4)
    assert r.lhs == pytest.approx(SQRT5 - 1.0, abs=1e-10)
    assert r.rhs == pytest.approx(2.0, abs=1e-10)
    assert r.satisfied


def test_free_case_equalities():
    for p in (2, 5):
        rep = bounds(free_operator(p))
        assert rep.by_name("band_sum_upper_capacity").slack == pytest.approx(0.0, abs=1e-9)
        assert rep.by_name("band_sum_upper_min_offdiag").slack == pytest.approx(0.0, abs=1e-9)
        assert rep.by_name("gap_sum_lower_capacity").slack == pytest.approx(0.0, abs=1e-9)
        # closed gaps defeat the conditional records
        assert not rep.by_name("log_sum_upper").condition_met
        assert not rep.by_name("min_band_upper").condition_met
        assert rep.by_name("log_sum_upper").satisfied  # vacuously
        assert all(r.satisfied for r in rep.records)


def test_gershgorin_containment_record(period2_report):
    r = period2_report.by_name("gershgorin_endpoints")
    # hull [1-sqrt5, 1+sqrt5] inside [-2, 4]; both margins equal 3-sqrt5
    assert r.lhs == pytest.approx(SQRT5 - 3.0, abs=1e-10)
    assert r.rhs == 0.0
    assert r.satisfied


def test_single_site_records():
    rep = bounds(new_periodic([1.5], [2.0]))
    # the only band is [b-2a, b+2a]: every length-type bound is tight
    assert rep.by_name("diameter_lower").slack == pytest.approx(0.0, abs=1e-9)
    assert rep.by_name("max_band_lower").slack == pytest.approx(0.0, abs=1e-9)
    assert rep.by_name("band_sum_lower_spread").slack == pytest.approx(0.0, abs=1e-9)
    for name in ("gap_sum_lower_capacity", "gap_sum_lower_combined", "log_sum_upper", "min_band_upper"):
        r = rep.by_name(name)
        assert not r.condition_met
        assert r.satisfied
    assert all(r.satisfied for r in rep.records)


def test_scaling_doubles_classical_sides():
    c = period2_operator()
    # the nine classical records come first
    base = bounds(c).records[:9]
    doubled = bounds(c.scaled(2.0)).records[:9]
    for r0, r1 in zip(base, doubled):
        if not r0.condition_met:
            continue
        scale = max(1.0, abs(r0.lhs), abs(r0.rhs))
        assert abs(r1.lhs - 2.0 * r0.lhs) <= 1e-8 * scale
        assert abs(r1.rhs - 2.0 * r0.rhs) <= 1e-8 * scale
        assert r1.satisfied == r0.satisfied


def test_log_sum_lower_scale_invariant_satisfaction():
    c = period2_operator()
    _, bs = pipeline(c)
    r0 = bounds(c, d_lower=bs.s).by_name("log_sum_lower")
    r1 = bounds(c.scaled(3.0), d_lower=3.0 * bs.s).by_name("log_sum_lower")
    assert r0.satisfied and r1.satisfied
    assert r1.lhs == pytest.approx(r0.lhs, rel=1e-9)
    assert r1.rhs == pytest.approx(r0.rhs, rel=1e-9)


def test_log_sum_lower_monotone_in_d():
    d, bs = pipeline(period2_operator())
    values = [
        evaluate_all_bounds(d, bs, d_lower=x).by_name("log_sum_lower") for x in (bs.s, 2 * bs.s, 10 * bs.s)
    ]
    assert values[0].lhs > values[1].lhs > values[2].lhs
    assert values[0].rhs > values[1].rhs > values[2].rhs
    assert all(v.satisfied for v in values)


def test_log_sum_lower_condition_requires_d_at_least_s():
    d, bs = pipeline(period2_operator())
    r = evaluate_all_bounds(d, bs, d_lower=0.5 * bs.s).by_name("log_sum_lower")
    assert not r.condition_met
    assert r.satisfied  # vacuous


def test_log_sum_upper_vacuous_when_d_below_capacity():
    r = bounds(period2_operator(), d_upper=0.5).by_name("log_sum_upper")  # d < geometric mean = 1
    assert math.isinf(r.rhs)
    assert r.satisfied
    assert math.isinf(r.slack)


def test_min_band_upper_wide_gap_case():
    d, bs = pipeline(new_periodic([1.0, 1.0], [0.0, 10.0]))
    rep = evaluate_all_bounds(d, bs)
    r = rep.by_name("min_band_upper")
    assert r.condition_met
    g = bs.min_gap
    assert r.rhs == pytest.approx(4.0 / g, rel=1e-9)
    assert r.satisfied
    assert rep.by_name("max_band_lower").satisfied


def test_chain_consistency_max_band_sandwich():
    from jacobibands.ensemble import EnsembleConfig, sample_operator

    cfg = EnsembleConfig(trials=10, seed=33)
    for k in range(cfg.trials):
        c = sample_operator(cfg, k)
        d, bs = pipeline(c)
        rep = evaluate_all_bounds(d, bs)
        lower = rep.by_name("max_band_lower").lhs
        assert lower <= bs.total_band_measure * (1 + 1e-12)
        assert bs.total_band_measure <= c.p * bs.max_band * (1 + 1e-12)


def test_json_serialization_encodes_infinity():
    payload = report_to_jsonable(bounds(free_operator(2)))
    assert len(payload["bounds"]) == 13
    upper = next(r for r in payload["bounds"] if r["name"] == "log_sum_upper")
    assert upper["condition_met"] is False
    assert payload["band_summary"]["min_gap"] == "inf"
    text = json.dumps(payload, indent=2)
    parsed = json.loads(text)  # strict JSON: would fail on bare Infinity
    assert parsed["operator"]["p"] == 2
    names = [r["name"] for r in parsed["bounds"]]
    assert len(set(names)) == 13


def test_pow_ratio_overflow_is_infinite():
    assert _pow_ratio(1.0, 40, 1e-15, 39) == math.inf
    assert _pow_ratio(2.0, 3, 4.0, 1) == pytest.approx(2.0)


def test_tiny_gaps_at_long_period_give_infinite_rhs():
    # Every gap of a constant block closes to a float-sized remainder, and
    # 4 * A^p / g^(p - 1) overflows for such a g at p = 32.
    c = new_periodic([1.2593511100681634] * 32, [0.2090718779417866] * 32)
    t = run_trial(c)
    assert t.all_passed
    rec = t.bounds.by_name("min_band_upper")
    assert rec.rhs == math.inf and rec.satisfied
