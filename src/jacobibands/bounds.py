"""Spectral band and gap estimates evaluated against exact band data.

Every record normalizes its inequality to lhs <= rhs, so slack = rhs - lhs
is nonnegative exactly when the bound holds. Conditional bounds carry a
condition_met flag; when the condition fails the record is vacuously
satisfied and marked not applicable. The reciprocal of a vanishing
positive-part logarithm is +inf, as is a power ratio past the float
range, and comparisons follow the extended order, so a record with
rhs = +inf is always satisfied.

`evaluate_all_bounds(data, bs)` evaluates all thirteen records of one
operator, from the coefficients and the scalar summary that
`build_discriminant` carries on `DiscriminantData` and the band data of
`band_structure`. `report_to_jsonable` serializes them, with the band
summary block computed from the same `BandStructure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bands import BandStructure
from .coefficients import PeriodicCoefficients, ScalarSummary
from .discriminant import _LOG_FLOAT_RANGE, DiscriminantData
from .errors import ConfigInvalid

_RTOL = 1e-9
_COND_RTOL = 1e-12


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated inequality, stored in lhs <= rhs orientation."""

    name: str
    anchor: str
    lhs: float
    rhs: float
    condition_met: bool
    satisfied: bool
    slack: float


@dataclass(frozen=True)
class BoundsReport:
    """All thirteen bound records for one operator."""

    records: tuple[BoundRecord, ...]
    coefficients: PeriodicCoefficients
    summary: ScalarSummary
    band_structure: BandStructure

    def by_name(self, name: str) -> BoundRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(name)


UNCONDITIONAL_NAMES = (
    "gershgorin_endpoints",
    "diameter_lower",
    "band_sum_upper_capacity",
    "band_sum_upper_diameter",
    "band_sum_upper_min_offdiag",
    "band_sum_lower_spread",
    "band_sum_lower_diameter",
    "gap_sum_lower_capacity",
    "gap_sum_lower_combined",
    "log_sum_lower",
    "max_band_lower",
)

CONDITIONAL_NAMES = ("log_sum_upper", "min_band_upper")


def _record(name, anchor, lhs, rhs, condition_met=True) -> BoundRecord:
    if not condition_met:
        satisfied = True
    elif math.isinf(rhs) and rhs > 0:
        satisfied = True
    elif math.isinf(lhs) and lhs > 0:
        satisfied = False
    else:
        satisfied = lhs <= rhs + _RTOL * (1.0 + abs(lhs) + abs(rhs))
    if math.isinf(rhs) and rhs > 0:
        slack = math.inf
    elif math.isinf(lhs) and lhs > 0:
        slack = -math.inf
    else:
        slack = rhs - lhs
    return BoundRecord(name, anchor, lhs, rhs, condition_met, satisfied, slack)


def _pow_ratio(base_num: float, pow_num: int, base_den: float, pow_den: int) -> float:
    """base_num**pow_num / base_den**pow_den via logs; +inf once it overflows."""
    if base_num == 0.0:
        return 0.0
    log_ratio = pow_num * math.log(base_num) - pow_den * math.log(base_den)
    if log_ratio > _LOG_FLOAT_RANGE[1]:
        return math.inf
    return math.exp(log_ratio)


def _inv_log_pos(x: float) -> float:
    """1 / max(log x, 0) with the conventions 1/0 = +inf and 1/inf = 0."""
    if math.isinf(x):
        return 0.0
    if x <= 1.0:
        return math.inf
    return 1.0 / math.log(x)


def _classical_bounds(p: int, summary: ScalarSummary, bs: BandStructure) -> list[BoundRecord]:
    """The nine classical estimates: endpoints, diameter, band and gap sums."""
    geo = summary.geom_mean_a
    spread_m = summary.diag_spread
    spread_big = summary.gershgorin_spread
    s = bs.s
    band_sum = bs.total_band_measure
    gap_sum = bs.total_gap_measure
    has_gaps = p >= 2

    records = [
        _record(
            "gershgorin_endpoints",
            "max(gersh_lo - lambda_min, lambda_max - gersh_hi) <= 0",
            max(summary.gershgorin_lo - bs.bands[0].lo, bs.bands[-1].hi - summary.gershgorin_hi),
            0.0,
        ),
        _record("diameter_lower", "4*geomean(a) <= s", 4.0 * geo, s),
        _record("band_sum_upper_capacity", "sum|band| <= 4*geomean(a)", band_sum, 4.0 * geo),
        _record(
            "band_sum_upper_diameter",
            "sum|band| <= s - (max b - min b)",
            band_sum,
            s - spread_m,
        ),
        _record("band_sum_upper_min_offdiag", "sum|band| <= 4*min(a)", band_sum, 4.0 * summary.min_a),
        _record(
            "band_sum_lower_spread",
            "4*geomean(a)^p / M^(p-1) <= sum|band|, M the one-sided spread",
            4.0 * _pow_ratio(geo, p, spread_big, p - 1),
            band_sum,
        ),
        _record(
            "band_sum_lower_diameter",
            "4*geomean(a)^p / s^(p-1) <= sum|band|",
            4.0 * _pow_ratio(geo, p, s, p - 1),
            band_sum,
        ),
        _record(
            "gap_sum_lower_capacity",
            "4*(geomean(a) - min(a)) <= sum|gap|",
            4.0 * (geo - summary.min_a),
            gap_sum,
            condition_met=has_gaps,
        ),
        _record(
            "gap_sum_lower_combined",
            "max(max(4*geomean(a), 2*max(a)) - 4*min(a), max b - min b) <= sum|gap|",
            max(max(4.0 * geo, 2.0 * summary.max_a) - 4.0 * summary.min_a, spread_m),
            gap_sum,
            condition_met=has_gaps,
        ),
    ]
    return records


def _log_sum_lower(summary: ScalarSummary, bs: BandStructure, d: float | None) -> BoundRecord:
    """Reciprocal-log band-sum lower estimate, valid whenever d >= s.

    1/log(d/A) <= sum_n 1/log(4d/|band_n|) with A the geometric mean of
    the off-diagonal entries. d = None takes s, the tightest admissible value.
    """
    if d is None:
        d = bs.s
    geo = summary.geom_mean_a
    condition = d >= bs.s * (1.0 - _COND_RTOL)
    lhs = _inv_log_pos(d / geo)
    rhs = math.fsum(
        0.0 if band.length == 0.0 else 1.0 / max(math.log(4.0 * d / band.length), 1e-300)
        for band in bs.bands
    )
    return _record(
        "log_sum_lower",
        "1/log(d/geomean(a)) <= sum_n 1/log(4d/|band_n|), for d >= s",
        lhs,
        rhs,
        condition_met=condition,
    )


def _max_band_lower(p: int, summary: ScalarSummary, bs: BandStructure) -> BoundRecord:
    """4*A^p/s^(p-1) <= max band length; unconditional."""
    geo = summary.geom_mean_a
    return _record(
        "max_band_lower",
        "4*geomean(a)^p / s^(p-1) <= max|band|",
        4.0 * _pow_ratio(geo, p, bs.s, p - 1),
        bs.max_band,
    )


def _log_sum_upper(p: int, summary: ScalarSummary, bs: BandStructure, d: float | None) -> BoundRecord:
    """Reciprocal-positive-log band-sum upper estimate, needing min gap >= d.

    sum_n 1/log+(4d/|band_n|) <= 1/log+(d/A). Vacuous whenever the right
    side is +inf (d <= A). d = None takes the smallest open gap. The
    condition reads every gap: a closed gap has length exactly 0.0
    (`BandStructure`), so it defeats any d > 0.
    """
    if d is None:
        d = bs.min_gap if (bs.min_gap is not None and math.isfinite(bs.min_gap)) else math.inf
    min_all_gap = min((g.length for g in bs.gaps), default=math.inf)
    condition = (
        p >= 2
        and math.isfinite(d)
        and d > 0.0
        and min_all_gap >= d * (1.0 - _COND_RTOL)
    )
    geo = summary.geom_mean_a
    rhs = _inv_log_pos(d / geo if math.isfinite(d) else math.inf)
    lhs = math.fsum(
        0.0 if band.length == 0.0 else _inv_log_pos(4.0 * d / band.length)
        for band in bs.bands
    ) if math.isfinite(d) else 0.0
    return _record(
        "log_sum_upper",
        "sum_n 1/log+(4d/|band_n|) <= 1/log+(d/geomean(a)), for min|gap| >= d",
        lhs,
        rhs,
        condition_met=condition,
    )


def _min_band_upper(p: int, summary: ScalarSummary, bs: BandStructure) -> BoundRecord:
    """min band <= 4*A^p/g^(p-1) when 4g >= max(max band, 4A), g the min gap."""
    geo = summary.geom_mean_a
    g = min((gap.length for gap in bs.gaps), default=0.0)
    condition = p >= 2 and 4.0 * g >= max(bs.max_band, 4.0 * geo) * (1.0 - _COND_RTOL)
    rhs = 4.0 * _pow_ratio(geo, p, g, p - 1) if g > 0.0 else math.inf
    return _record(
        "min_band_upper",
        "min|band| <= 4*geomean(a)^p / min|gap|^(p-1), for 4*min|gap| >= max(max|band|, 4*geomean(a))",
        bs.min_band,
        rhs,
        condition_met=condition,
    )


def evaluate_all_bounds(
    data: DiscriminantData,
    bs: BandStructure,
    d_lower: float | None = None,
    d_upper: float | None = None,
) -> BoundsReport:
    """Evaluate all thirteen records against one operator's band data.

    d_lower and d_upper are the scale d of the two reciprocal-log records
    (None: the spectrum diameter s, and the smallest open gap). Raises
    ConfigInvalid when either is given and is not finite and positive:
    the records take log(d) and log(4d / |band|).
    """
    for name, d in (("d_lower", d_lower), ("d_upper", d_upper)):
        if d is not None and not (math.isfinite(d) and d > 0.0):
            raise ConfigInvalid(f"{name} must be finite and positive, got {d!r}")
    p, summary = data.p, data.summary
    records = _classical_bounds(p, summary, bs)
    records.append(_log_sum_lower(summary, bs, d_lower))
    records.append(_max_band_lower(p, summary, bs))
    records.append(_log_sum_upper(p, summary, bs, d_upper))
    records.append(_min_band_upper(p, summary, bs))
    return BoundsReport(tuple(records), data.coeffs, summary, bs)


def encode_extended(x):
    """A number for JSON: +/-inf and nan as the strings "inf", "-inf" and "nan"."""
    if x is None:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def record_to_jsonable(record: BoundRecord) -> dict:
    return {
        "name": record.name,
        "anchor": record.anchor,
        "lhs": encode_extended(record.lhs),
        "rhs": encode_extended(record.rhs),
        "condition_met": record.condition_met,
        "satisfied": record.satisfied,
        "slack": encode_extended(record.slack),
    }


def report_to_jsonable(report: BoundsReport) -> dict:
    bs = report.band_structure
    return {
        "operator": {"a": list(report.coefficients.a), "b": list(report.coefficients.b), "p": report.coefficients.p},
        "scalars": {
            "geom_mean_a": report.summary.geom_mean_a,
            "min_a": report.summary.min_a,
            "max_a": report.summary.max_a,
            "diag_spread": report.summary.diag_spread,
            "gershgorin_lo": report.summary.gershgorin_lo,
            "gershgorin_hi": report.summary.gershgorin_hi,
            "gershgorin_spread": report.summary.gershgorin_spread,
        },
        "band_summary": {
            "s": bs.s,
            "total_band_measure": bs.total_band_measure,
            "total_gap_measure": bs.total_gap_measure,
            "max_band": bs.max_band,
            "min_band": bs.min_band,
            "min_gap": encode_extended(bs.min_gap),
            "closed_gaps": sum(bs.closed_gap_flags),
        },
        "bounds": [record_to_jsonable(r) for r in report.records],
    }
