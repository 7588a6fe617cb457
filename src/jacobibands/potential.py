"""Potential-theoretic quantities of the spectrum.

The scaled discriminant (off-diagonal product times the discriminant) is
the monic minimax polynomial of the spectrum, so its sup norm over the
bands and the per-band equilibrium weights are computable from band data
in closed form, and its extremal set is the band edges with their labels.
Interlacing fixes the labels from p alone (`BandStructure.edge_labels`):
they end in + and alternate across every open gap, so the extremal set
alternates p + 1 times once D crosses its edge's target 2 * label at
every edge. `potential_report` walks the edges once, returns five
numbers and checks what can fail:

  minimax norm              = 2 * (off-diagonal product)
  capacity of the spectrum  = geometric mean of the off-diagonal entries
                              (CapacityMismatch beyond 1e-9 relative)
  minimax norm / capacity^p = 2
  each edge has a record of that crossing (AlternationFailure otherwise)
  weight of maximal piece j = (bands in it) / p

The extreme points number 2p - (closed gaps) = p + l, l the number of
maximal intervals. The extremal set itself is checked, not returned: it
is read off `BandStructure.bands`, `edge_labels` and `closed_gap_flags`.
The off-diagonal product is the exponential of the summary's
`log_offdiag_product`, summed once per operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bands import ORACLE_MATCH_RTOL, BandStructure
from .discriminant import (
    DiscriminantData,
    eval_discriminant,
    eval_discriminant_bounded,
    scaled_trace_exact,
    search_interval,
)
from .errors import AlternationFailure, CapacityMismatch

# The float D of an edge within this of its target 2 * label is the record
# of its crossing; other edges go to `_crossing_certified`, where the float
# error bound decides and exact arithmetic runs only where it cannot.
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


def _crossing_certified(d: DiscriminantData, x: float, target: int) -> bool:
    """Whether D crosses the int target in [x - h, x + h], certified at its float ends.

    Steep edges leave no float whose value is near the target, but at a
    true edge D is exactly the target: what needs certifying is only that
    D = target somewhere between the two floats x - h and x + h. At each
    end the float value with its running error bound decides the side of
    the target wherever they differ by more than the bound. Only a step
    where the bound cannot decide an end takes the exact signs at the
    same two floats instead, each the sign of N - target * Q for the
    quotient D = N / Q of `scaled_trace_exact`. Sides that differ, by
    either test, certify the crossing. h widens by 8 up to `ORACLE_MATCH_RTOL`
    of the search width, the start included: a farther crossing belongs to
    another edge. A touching edge or a wrong one is not certified.
    """
    c = d.coeffs
    lo_bound, hi_bound = search_interval(d.summary)
    h_max = ORACLE_MATCH_RTOL * (hi_bound - lo_bound)
    # The start is position resolution, not operator scale, so it keeps its
    # floor; moving it changes which certificates fall back to exact arithmetic.
    h = min(1e-13 * max(1.0, abs(x)), h_max)
    while h <= h_max:
        lo, hi = x - h, x + h
        (v_lo, e_lo), (v_hi, e_hi) = eval_discriminant_bounded(c, lo), eval_discriminant_bounded(c, hi)
        if abs(v_lo - target) > e_lo and abs(v_hi - target) > e_hi:
            if (v_lo > target) != (v_hi > target):
                return True
        else:
            (n_lo, q_lo), (n_hi, q_hi) = scaled_trace_exact(c, lo), scaled_trace_exact(c, hi)
            if (n_lo - target * q_lo) * (n_hi - target * q_hi) <= 0:
                return True
        h *= 8
    return False


def potential_report(d: DiscriminantData, bs: BandStructure) -> PotentialReport:
    """All potential-theoretic quantities of one operator in one record.

    Each of the 2p (edge, label) pairs, shared edges twice, gets one
    record that D crosses its target 2 * label there: the float D within
    `_EXACT_REFINE_TRIGGER` of it, the certificate `_crossing_certified`,
    or at a closed gap the knot's exact touch, where nothing is evaluated.
    The sup of a polynomial over a union of intervals sits at an endpoint
    or an interior critical point; interior critical points of the bands
    are the touch points, which are already edges, so the sup runs over
    the edges: a certified or touching edge counts 2, any other |D|.

    Raises CapacityMismatch when (cheb/2)^(1/p) strays from the geometric
    mean of the off-diagonal entries by more than 1e-9 relative; then
    AlternationFailure at the first edge without a record. Maximal
    interval j, a run of n_j bands joined by closed gaps, weighs n_j / p.
    """
    c = d.coeffs
    closed = (False, *bs.closed_gap_flags, False)
    values: list[float] = []
    missing = None
    for n, (band, (lab_lo, lab_hi)) in enumerate(zip(bs.bands, bs.edge_labels)):
        for x, target, touching in ((band.lo, 2 * lab_lo, closed[n]), (band.hi, 2 * lab_hi, closed[n + 1])):
            value = target if touching else eval_discriminant(c, x)
            if abs(value - target) > _EXACT_REFINE_TRIGGER:
                if _crossing_certified(d, x, target):
                    value = target
                elif missing is None:
                    missing = (x, target, value)
            values.append(abs(value))

    cheb = math.exp(d.summary.log_offdiag_product) * max(values)
    # both edges of a spectrum below float resolution can round to one float, and cheb to 0
    cap = math.exp((math.log(cheb) - math.log(2.0)) / d.p) if cheb > 0.0 else 0.0
    geo = d.summary.geom_mean_a
    if abs(cap - geo) > _CAPACITY_RTOL * geo:
        raise CapacityMismatch(
            f"capacity {cap} vs geometric mean {geo}: relative gap {abs(cap - geo) / geo:.3e}"
        )
    if missing is not None:
        x, target, value = missing
        raise AlternationFailure(f"no crossing of D = {target:+d} certified at edge {x} (float D {value})")

    cuts = [0, *(j for j, touching in enumerate(bs.closed_gap_flags, start=1) if not touching), bs.p]
    return PotentialReport(
        cap_spectrum=cap,
        cheb_number=cheb,
        widom_factor=cheb / math.exp(bs.p * math.log(cap)),
        band_measures=tuple(Fraction(hi - lo, bs.p) for lo, hi in zip(cuts, cuts[1:])),
        extreme_point_count=2 * bs.p - sum(bs.closed_gap_flags),
    )
