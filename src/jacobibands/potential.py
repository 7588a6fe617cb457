"""Potential-theoretic quantities of the spectrum.

The scaled discriminant (off-diagonal product times the discriminant) is
the monic minimax polynomial of the spectrum, so its sup norm over the
bands, the alternating set of its extrema, and the per-band equilibrium
weights are all computable from band data in closed form. This module
evaluates them and cross-checks the defining identities numerically:

  capacity of an interval   = length / 4
  minimax norm              = 2 * (off-diagonal product)
  capacity of the spectrum  = geometric mean of the off-diagonal entries
  minimax norm / capacity^p = 2
  weight of maximal piece j = (extreme points on it - 1) / p
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bands import BandStructure, Interval
from .coefficients import offdiag_product, scalar_summary
from .discriminant import (
    DiscriminantData,
    eval_discriminant_bounded,
    offdiag_product_exact,
    scaled_trace_exact,
    search_interval,
    trace_side,
)
from .errors import AlternationFailure, CapacityMismatch

# Edges whose evaluated |discriminant| strays from 2 by more than this are
# re-refined (`_refine_value_exact`) before entering the sup: the float error
# bound certifies a crossing of +/-2 next to the edge, and exact arithmetic
# runs only where that bound cannot decide.
_EXACT_REFINE_TRIGGER = 1e-10

_CAPACITY_RTOL = 1e-9


@dataclass(frozen=True)
class AlternationPoint:
    """Extremum of the scaled discriminant with the sign it attains there."""

    x: float
    sign: int


@dataclass(frozen=True)
class AlternationData:
    points: tuple[AlternationPoint, ...]
    extreme_point_count: int
    maximal_intervals: tuple[Interval, ...]
    points_per_interval: tuple[int, ...]
    period: int


@dataclass(frozen=True)
class PotentialReport:
    cap_spectrum: float
    cap_bands: tuple[float, ...]
    cheb_number: float
    widom_factor: float
    alternation: AlternationData
    band_measures: tuple[Fraction, ...]
    extreme_point_count: int


def potential_to_jsonable(pot: PotentialReport) -> dict:
    """The serialized potential block of the analyze and ensemble reports."""
    return {
        "cap_spectrum": pot.cap_spectrum,
        "cheb_number": pot.cheb_number,
        "widom_factor": pot.widom_factor,
        "extreme_point_count": pot.extreme_point_count,
        "band_measures": [str(m) for m in pot.band_measures],
    }


def capacity_interval(iv: Interval) -> float:
    """Logarithmic capacity of a real interval: one fourth of its length."""
    if iv.length < 0.0:
        raise ValueError(f"interval has negative length: {iv}")
    return iv.length / 4.0


def _refine_value_exact(d: DiscriminantData, x: float, target: int) -> float:
    """|discriminant| at the true edge near x, certified at x +/- h.

    Steep edges leave no float whose value is near the target, but at a
    true edge |D| is exactly |target|: what needs certifying is only that
    D = target somewhere in [x - h, x + h]. At each end the float value
    with its running error bound decides the side of the target wherever
    they differ by more than the bound. Only a step where the bound cannot
    decide an end takes the exact signs of both ends instead. Sides that
    differ, by either test, return |target|. The bracket widens until the
    signs differ, but not past the search interval, which holds every
    root. With no sign change (a touching edge) the float value, fine
    there, is returned.
    """
    c = d.coeffs
    lo_bound, hi_bound = search_interval(c)
    h = max(1e-13 * max(1.0, abs(x)), 1e-15)
    for _ in range(30):
        lo, hi = x - h, x + h
        if lo <= lo_bound and hi >= hi_bound:
            break
        (v_lo, e_lo), (v_hi, e_hi) = eval_discriminant_bounded(c, lo), eval_discriminant_bounded(c, hi)
        if abs(v_lo - target) > e_lo and abs(v_hi - target) > e_hi:
            if (v_lo > target) != (v_hi > target):
                return abs(target)
        else:
            tgt = target * offdiag_product_exact(c)
            side_lo = trace_side(scaled_trace_exact(c, Fraction(x) - Fraction(h)), tgt)
            side_hi = trace_side(scaled_trace_exact(c, Fraction(x) + Fraction(h)), tgt)
            if side_lo * side_hi <= 0:
                return abs(target)
        h *= 8
    value, _ = eval_discriminant_bounded(c, x)
    return abs(value)


def _edge_evaluations(d: DiscriminantData, bs: BandStructure) -> dict[float, tuple[float, float]]:
    """`eval_discriminant_bounded` at each distinct band edge, keyed by the edge."""
    out: dict[float, tuple[float, float]] = {}
    for x in bs.edges:
        if x not in out:
            out[x] = eval_discriminant_bounded(d.coeffs, x)
    return out


def _edge_values(d: DiscriminantData, bs: BandStructure, evals) -> list[float]:
    """|discriminant| at every band edge, exact-refined where needed."""
    values = []
    for band, (lab_lo, lab_hi) in zip(bs.bands, bs.edge_labels):
        for x, lab in ((band.lo, lab_lo), (band.hi, lab_hi)):
            v, _ = evals[x]
            if abs(abs(v) - 2.0) > _EXACT_REFINE_TRIGGER:
                values.append(_refine_value_exact(d, x, 2 * lab))
            else:
                values.append(abs(v))
    return values


def chebyshev_number(d: DiscriminantData, bs: BandStructure) -> float:
    """Sup of |scaled discriminant| over the spectrum.

    The sup of a polynomial over a union of intervals sits at an endpoint
    or an interior critical point; interior critical points of the bands
    are exactly the touch points, which are already edges, so the edge
    set is the full candidate set.
    """
    return _chebyshev_number(d, bs, _edge_evaluations(d, bs))


def _chebyshev_number(d, bs, evals):
    return offdiag_product(d.coeffs) * max(_edge_values(d, bs, evals))


def spectrum_capacity(
    d: DiscriminantData, bs: BandStructure, cheb: float | None = None
) -> float:
    """Capacity from the minimax identity; must match the geometric mean.

    Raises CapacityMismatch when (cheb/2)^(1/p) strays from the geometric
    mean of the off-diagonal entries by more than 1e-9 relative.
    """
    p = d.p
    if cheb is None:
        cheb = chebyshev_number(d, bs)
    cap = math.exp((math.log(cheb) - math.log(2.0)) / p)
    geo = scalar_summary(d.coeffs).geom_mean_a
    if abs(cap - geo) > _CAPACITY_RTOL * geo:
        raise CapacityMismatch(
            f"capacity {cap} vs geometric mean {geo}: relative gap {abs(cap - geo) / geo:.3e}"
        )
    return cap


def alternation_set(d: DiscriminantData, bs: BandStructure) -> AlternationData:
    """Extremal set of the scaled discriminant with alternation checks.

    The distinct extreme points are the band edges, shared at closed gaps.
    Verifies the float sign at each point, the existence of an alternating
    subsequence of length p + 1 ending with +, and the count p + l where
    l is the number of maximal closed intervals of the spectrum.
    """
    return _alternation_set(bs, _edge_evaluations(d, bs))


def _alternation_set(bs, evals):
    p = bs.p
    points: list[AlternationPoint] = []
    pieces: list[list[Interval]] = [[bs.bands[0]]]
    counts: list[int] = [2]
    points.append(AlternationPoint(bs.bands[0].lo, bs.edge_labels[0][0]))
    points.append(AlternationPoint(bs.bands[0].hi, bs.edge_labels[0][1]))
    for n in range(1, p):
        band = bs.bands[n]
        lab_lo, lab_hi = bs.edge_labels[n]
        if bs.closed_gap_flags[n - 1]:
            # band.lo coincides with the previous band.hi: one shared point
            pieces[-1].append(band)
            counts[-1] += 1
        else:
            pieces.append([band])
            counts.append(2)
            points.append(AlternationPoint(band.lo, lab_lo))
        points.append(AlternationPoint(band.hi, lab_hi))

    for pt in points:
        value, err = evals[pt.x]
        if value * pt.sign <= 0.0:
            raise AlternationFailure(
                f"sign of discriminant at extremum {pt.x} is {math.copysign(1, value):+.0f}, "
                f"expected {pt.sign:+d} (value {value}, error bound {err})"
            )

    if points[-1].sign != 1:
        raise AlternationFailure("rightmost extremum must attain the positive sup")
    flips = sum(1 for i in range(len(points) - 1) if points[i].sign != points[i + 1].sign)
    if flips + 1 < p + 1:
        raise AlternationFailure(
            f"longest alternating subsequence has {flips + 1} points, need {p + 1}"
        )

    maximal = tuple(Interval(group[0].lo, group[-1].hi) for group in pieces)
    n_pieces = len(maximal)
    count = len(points)
    if count != p + n_pieces:
        raise AlternationFailure(
            f"{count} extreme points, expected p + l = {p} + {n_pieces}"
        )
    return AlternationData(
        points=tuple(points),
        extreme_point_count=count,
        maximal_intervals=maximal,
        points_per_interval=tuple(counts),
        period=p,
    )


def equilibrium_band_measures(alt: AlternationData) -> tuple[Fraction, ...]:
    """Equilibrium weight of each maximal interval, as an exact rational.

    Interval j carrying k_j + 1 extreme points receives weight k_j / p.
    With every gap open this is 1/p per band; the weights always sum to 1.
    """
    p = alt.period
    measures = tuple(Fraction(k - 1, p) for k in alt.points_per_interval)
    if any(m <= 0 for m in measures) or sum(measures) != 1:
        raise AlternationFailure(f"equilibrium weights {measures} do not sum to 1")
    return measures


def potential_report(d: DiscriminantData, bs: BandStructure) -> PotentialReport:
    """All potential-theoretic quantities of one operator in one record.

    Each distinct edge is evaluated once, for the sup and the alternation signs.
    """
    evals = _edge_evaluations(d, bs)
    cheb = _chebyshev_number(d, bs, evals)
    cap = spectrum_capacity(d, bs, cheb)
    alt = _alternation_set(bs, evals)
    measures = equilibrium_band_measures(alt)
    widom = cheb / math.exp(bs.p * math.log(cap))
    return PotentialReport(
        cap_spectrum=cap,
        cap_bands=tuple(capacity_interval(b) for b in bs.bands),
        cheb_number=cheb,
        widom_factor=widom,
        alternation=alt,
        band_measures=measures,
        extreme_point_count=alt.extreme_point_count,
    )
