"""Potential-theoretic quantities of the spectrum.

The scaled discriminant (off-diagonal product times the discriminant) is
the monic minimax polynomial of the spectrum, so its sup norm over the
bands, the alternating set of its extrema, and the per-band equilibrium
weights are all computable from band data in closed form.
`potential_report` evaluates them in one record and checks what can
fail:

  capacity of an interval   = length / 4
  minimax norm              = 2 * (off-diagonal product)
  capacity of the spectrum  = geometric mean of the off-diagonal entries
                              (CapacityMismatch beyond 1e-9 relative)
  minimax norm / capacity^p = 2
  the float sign of D at each extremum, the rightmost sign +, and an
  alternating run of p + 1 extrema (AlternationFailure otherwise)
  weight of maximal piece j = (extreme points on it - 1) / p

The extreme points number p + l, l the number of maximal intervals, and
the weights sum to 1 by construction: every gap, open or closed, adds
one point beyond the band's first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bands import BandStructure, Interval
from .coefficients import offdiag_product
from .discriminant import (
    DiscriminantData,
    eval_discriminant,
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

# The certificate of `_refine_value_exact` looks for a crossing no farther
# from the edge than this fraction of the search interval, the tolerance of
# the oracle comparison of `ensemble.run_trial`.
_CERTIFY_RADIUS = 1e-8

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
    signs differ, but h not past `_CERTIFY_RADIUS` of the search interval:
    a crossing farther away belongs to another edge. Without one (a
    touching edge, or a wrong one) the float value at x is returned.
    """
    c = d.coeffs
    lo_bound, hi_bound = search_interval(d.summary)
    h_max = _CERTIFY_RADIUS * max(1.0, hi_bound - lo_bound)
    h = max(1e-13 * max(1.0, abs(x)), 1e-15)
    while h <= h_max:
        lo, hi = x - h, x + h
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
    return abs(eval_discriminant(c, x))


def _chebyshev_number(d: DiscriminantData, bs: BandStructure, evals) -> float:
    """Sup of |scaled discriminant| over the spectrum.

    The sup of a polynomial over a union of intervals sits at an endpoint
    or an interior critical point; interior critical points of the bands
    are exactly the touch points, which are already edges, so the edge
    set is the full candidate set. evals maps each edge to its float D;
    edges where |D| strays from 2 are refined exactly.
    """
    values = []
    for band, (lab_lo, lab_hi) in zip(bs.bands, bs.edge_labels):
        for x, lab in ((band.lo, lab_lo), (band.hi, lab_hi)):
            v = evals[x]
            if abs(abs(v) - 2.0) > _EXACT_REFINE_TRIGGER:
                values.append(_refine_value_exact(d, x, 2 * lab))
            else:
                values.append(abs(v))
    return offdiag_product(d.coeffs) * max(values)


def _alternation_set(d: DiscriminantData, bs: BandStructure, evals) -> AlternationData:
    """Extremal set of the scaled discriminant with alternation checks.

    The distinct extreme points are the band edges, shared at closed gaps.
    Verifies the float sign at each point, the sign + at the rightmost one
    and an alternating subsequence of length p + 1.
    """
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
        value = evals[pt.x]
        if value * pt.sign <= 0.0:
            _, err = eval_discriminant_bounded(d.coeffs, pt.x)
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
    return AlternationData(
        points=tuple(points),
        extreme_point_count=len(points),
        maximal_intervals=tuple(Interval(group[0].lo, group[-1].hi) for group in pieces),
        points_per_interval=tuple(counts),
    )


def potential_report(d: DiscriminantData, bs: BandStructure) -> PotentialReport:
    """All potential-theoretic quantities of one operator in one record.

    Each distinct edge is evaluated once, for the sup and the alternation
    signs. Raises CapacityMismatch when (cheb/2)^(1/p) strays from the
    geometric mean of the off-diagonal entries by more than 1e-9 relative,
    and AlternationFailure when an alternation check fails. Maximal
    interval j with k_j extreme points weighs (k_j - 1) / p.
    """
    evals: dict[float, float] = {}
    for x in bs.edges:
        if x not in evals:
            evals[x] = eval_discriminant(d.coeffs, x)
    cheb = _chebyshev_number(d, bs, evals)
    cap = math.exp((math.log(cheb) - math.log(2.0)) / d.p)
    geo = d.summary.geom_mean_a
    if abs(cap - geo) > _CAPACITY_RTOL * geo:
        raise CapacityMismatch(
            f"capacity {cap} vs geometric mean {geo}: relative gap {abs(cap - geo) / geo:.3e}"
        )
    alt = _alternation_set(d, bs, evals)
    return PotentialReport(
        cap_spectrum=cap,
        cap_bands=tuple(capacity_interval(b) for b in bs.bands),
        cheb_number=cheb,
        widom_factor=cheb / math.exp(bs.p * math.log(cap)),
        alternation=alt,
        band_measures=tuple(Fraction(k - 1, bs.p) for k in alt.points_per_interval),
        extreme_point_count=alt.extreme_point_count,
    )
