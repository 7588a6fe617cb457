"""Potential-theoretic quantities of the spectrum.

The scaled discriminant (off-diagonal product times the discriminant) is
the monic minimax polynomial of the spectrum, so its sup norm over the
bands and the per-band equilibrium weights are computable from band data
in closed form, and its extremal set is the band edges with their labels.
Interlacing fixes the labels from p alone (`BandStructure.edge_labels`):
they end in + and alternate across every open gap, so the extremal set
alternates p + 1 times by construction. `potential_report` walks the
edges once, returns five numbers and checks what can fail:

  minimax norm              = 2 * (off-diagonal product)
  capacity of the spectrum  = geometric mean of the off-diagonal entries
                              (CapacityMismatch beyond 1e-9 relative)
  minimax norm / capacity^p = 2
  the float sign of D at each extremum is its label (AlternationFailure
  otherwise)
  weight of maximal piece j = (bands in it) / p

The extreme points number 2p - (closed gaps) = p + l, l the number of
maximal intervals. The extremal set itself is checked, not returned: it
is read off `BandStructure.bands`, `edge_labels` and `closed_gap_flags`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bands import ORACLE_MATCH_RTOL, BandStructure
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

_CAPACITY_RTOL = 1e-9


@dataclass(frozen=True)
class PotentialReport:
    cap_spectrum: float
    cheb_number: float
    widom_factor: float
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


def _refine_value_exact(d: DiscriminantData, x: float, target: int) -> float:
    """|discriminant| at the true edge near x, certified at x +/- h.

    Steep edges leave no float whose value is near the target, but at a
    true edge |D| is exactly |target|: what needs certifying is only that
    D = target somewhere in [x - h, x + h]. At each end the float value
    with its running error bound decides the side of the target wherever
    they differ by more than the bound. Only a step where the bound cannot
    decide an end takes the exact signs of both ends instead. Sides that
    differ, by either test, return |target|. h widens by 8 from 1e-13 of
    |x| (at least 1e-15) until the signs differ, but stays at most
    `ORACLE_MATCH_RTOL` of the search interval, the start included: a
    crossing farther away belongs to another edge. Without one (a
    touching edge, or a wrong one) the float value at x is returned.
    """
    c = d.coeffs
    lo_bound, hi_bound = search_interval(d.summary)
    h_max = ORACLE_MATCH_RTOL * max(1.0, hi_bound - lo_bound)
    h = min(max(1e-13 * max(1.0, abs(x)), 1e-15), h_max)
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


def potential_report(d: DiscriminantData, bs: BandStructure) -> PotentialReport:
    """All potential-theoretic quantities of one operator in one record.

    One pass over the band edges. The sup of a polynomial over a union of
    intervals sits at an endpoint or an interior critical point; interior
    critical points of the bands are the touch points, which are already
    edges, so the sup runs over all 2p (edge, label) pairs, shared edges
    twice. Each distinct edge is evaluated once, and one where |D| strays
    from 2 is refined exactly. The extreme points are the distinct edges:
    band n's lower edge is skipped where gap n - 1 is closed.

    Raises CapacityMismatch when (cheb/2)^(1/p) strays from the geometric
    mean of the off-diagonal entries by more than 1e-9 relative; then
    AlternationFailure when the float sign of D at an extreme point is not
    its label. Maximal interval j, a run of n_j bands joined by closed
    gaps, weighs n_j / p.
    """
    c = d.coeffs
    evals: dict[float, float] = {}
    values: list[float] = []
    points: list[tuple[float, int]] = []
    bands_per_piece: list[int] = []
    for n, (band, (lab_lo, lab_hi)) in enumerate(zip(bs.bands, bs.edge_labels)):
        for x, label in ((band.lo, lab_lo), (band.hi, lab_hi)):
            if x not in evals:
                evals[x] = eval_discriminant(c, x)
            v = abs(evals[x])
            values.append(_refine_value_exact(d, x, 2 * label) if abs(v - 2.0) > _EXACT_REFINE_TRIGGER else v)
        if n > 0 and bs.closed_gap_flags[n - 1]:
            # gap n - 1 is closed: band.lo is the previous band.hi, one extreme point
            bands_per_piece[-1] += 1
        else:
            bands_per_piece.append(1)
            points.append((band.lo, lab_lo))
        points.append((band.hi, lab_hi))

    cheb = offdiag_product(c) * max(values)
    cap = math.exp((math.log(cheb) - math.log(2.0)) / d.p)
    geo = d.summary.geom_mean_a
    if abs(cap - geo) > _CAPACITY_RTOL * geo:
        raise CapacityMismatch(
            f"capacity {cap} vs geometric mean {geo}: relative gap {abs(cap - geo) / geo:.3e}"
        )

    for x, sign in points:
        value = evals[x]
        if value * sign <= 0.0:
            _, err = eval_discriminant_bounded(c, x)
            found = (value > 0.0) - (value < 0.0)
            raise AlternationFailure(
                f"sign of discriminant at extremum {x} is {f'{found:+d}' if found else '0'}, "
                f"expected {sign:+d} (value {value}, error bound {err})"
            )
    return PotentialReport(
        cap_spectrum=cap,
        cheb_number=cheb,
        widom_factor=cheb / math.exp(bs.p * math.log(cap)),
        band_measures=tuple(Fraction(k, bs.p) for k in bands_per_piece),
        extreme_point_count=len(points),
    )
