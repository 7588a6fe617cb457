"""Band-gap structure as the preimage of [-2, 2] under the discriminant.

The knots are the p - 1 Floquet gap midpoints of `build_discriminant`,
one in the closure of each gap; with the two ends of the padded
Gershgorin interval they cut the line into p pieces, each holding
exactly one band. Interlacing fixes the sign of the discriminant at
every knot and at both ends, so the signs of discriminant -/+ 2 at the
ends of each piece are known without evaluating anything there; each
changes sign on the piece exactly once. Each of the 2p edges is a Newton
solve safeguarded by bisection inside that bracket, started at the
Floquet eigenvalue of the edge (a seed outside the piece starts at its
midpoint): the k-th solution of D = +/-2 in sorted order lies in the
k-th piece, doubled solutions included. So the period alone labels every
edge with its target (`BandStructure.edge_labels`). The eigenvalues also
pick the residual: beside a flat gap, an open gap whose two eigenvalues
nearly coincide and whose float crossings scatter by noise over slope, a
band solves both edges once with D - target evaluated exactly, and their
order is checked; elsewhere it solves in floats and stores its edges in
ascending order. `build_discriminant` judged each knot on its error
bound, and nothing here reads a float value at a knot: an open knot
opens its gap, and an undecided one, within the bound of the gap's
target +/-2, is decided by one exact rational evaluation, for both
neighboring pieces: its sign alone, with no tolerance, tells a genuine
touch (value on the target or on the band side) from an open gap,
however shallow, and is the gap's closed flag: both edges of a closed
gap are the knot. The same evaluation read against the opposite target
catches a knot that lies across a band, in a gap of the other sign, and
raises PropertyViolation there. The knots and the seeds come from the
same eigenvalues, so a wrong eigenvalue fails a family: the knot
judgement, this decision, or the oracle comparison of `ensemble.run_trial`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial

from .discriminant import (
    DiscriminantData,
    eval_discriminant_and_slope,
    gap_sign,
    scaled_trace_exact,
    search_interval,
)
from .errors import EdgeCountMismatch, NonConvergence, PropertyViolation

# Bound by name only for the ("jacobibands.bands", "band_edges_oracle") and
# ("jacobibands.bands", "eval_discriminant_bounded") entries of
# perfbench/tracing.py TARGETS, which `Tracer.install` looks up:
# build_discriminant calls both, and this module reads their results off
# the DiscriminantData, so nothing here calls them.
from .discriminant import eval_discriminant_bounded
from .floquet import band_edges_oracle

# Edges match the Floquet eigenvalues to this times s in the oracle family
# of `ensemble.run_trial`; `potential._crossing_certified` certifies a
# crossing no farther from an edge than this times the search width.
ORACLE_MATCH_RTOL = 1e-8

# Edges are solved to this times the width of the search interval.
_EDGE_RTOL = 1e-12

# Bound by name only for the ("jacobibands.bands", "eval_discriminant_stable")
# entry of perfbench/tracing.py TARGETS, which `Tracer.install` looks up;
# nothing calls it, so that "bands.float" span never opens.
eval_discriminant_stable = None

# Steps of `_newton_edge`. It reaches tol or the float resolution floor in
# well under this many.
_STEP_BUDGET = 300


@dataclass(frozen=True)
class Interval:
    """[lo, hi], with its length hi - lo computed once, at construction."""

    lo: float
    hi: float
    length: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "length", self.hi - self.lo)


@dataclass(frozen=True)
class BandStructure:
    """Ordered bands and gaps of one operator.

    closed_gap_flags holds, per gap, whether its knot touches: a closed
    gap is an exact touch, and its two edges are the same float, so its
    length is exactly 0.0. min_gap is the smallest open gap, +inf when
    every gap is closed, and None when p = 1 and no gap exists at all.
    """

    bands: tuple[Interval, ...]
    gaps: tuple[Interval, ...]
    s: float
    total_band_measure: float
    min_gap: float | None
    closed_gap_flags: tuple[bool, ...]

    @property
    def p(self) -> int:
        return len(self.bands)

    @property
    def edge_labels(self) -> tuple[tuple[int, int], ...]:
        """Per band, the discriminant target (+1 for +2, -1 for -2) at its lower and upper edge.

        Interlacing fixes them from p alone: band n runs from D = -2 up to
        D = +2 up, up = `gap_sign(p, n + 1)`, the sign of D on the gap
        above it, and the last band ends at +2.
        """
        ups = (gap_sign(self.p, n) for n in range(1, self.p + 1))
        return tuple((-up, up) for up in ups)

    @property
    def edges(self) -> tuple[float, ...]:
        """All 2p edges in ascending order, shared touch points repeated."""
        out: list[float] = []
        for band in self.bands:
            out.append(band.lo)
            out.append(band.hi)
        return tuple(out)

    @property
    def total_gap_measure(self) -> float:
        return math.fsum(g.length for g in self.gaps)

    @property
    def max_band(self) -> float:
        return max(b.length for b in self.bands)

    @property
    def min_band(self) -> float:
        return min(b.length for b in self.bands)


def _touches(c, x, j):
    """Exact arbitration at knot x of gap j, whose float value is within its error bound of the target.

    One exact quotient D(x) = N / Q is read against both targets of the
    gap's sign s. A value at the gap's target 2s or on the band side
    means a touching point (the knot, the midpoint of a double Floquet
    eigenvalue, carries position error at the eigenvalues' float
    accuracy, which moves its value only at second order, toward the
    band). A value strictly beyond 2s, however slightly, means an open
    gap. A value strictly beyond the opposite target -2s puts the knot in
    a gap of the other sign, across a band from its own: PropertyViolation.
    """
    s = gap_sign(c.p, j)
    target = 2 * s
    n, q = scaled_trace_exact(c, x)
    if s * (n + target * q) < 0:
        raise PropertyViolation(f"knot {x} of gap {j} lies across a band: exact D is beyond {-target:+d}")
    return s * (n - target * q) <= 0


def _newton_edge(residual, lo, hi, rising, x, tol):
    """The root in [lo, hi] of residual, by safeguarded Newton from x.

    residual(t) returns (D(t) - target, D'(t)), and D - target changes
    sign once on [lo, hi]: from negative to positive if rising, else the
    other way. The bracket keeps that sign change. A Newton step is taken
    when it lands strictly inside the bracket and is under half the
    previous step; otherwise the bracket is bisected (rtsafe; Press et
    al., Numerical Recipes, section 9.4). A seed x outside (lo, hi) is
    replaced by the midpoint. D - target has only real roots r_i, so
    f'/f = sum 1/(x - r_i), and |f/f'| <= tol puts a root within p * tol
    of x: then x - f/f', clamped into the bracket, is returned. From a
    Floquet eigenvalue this takes one evaluation of the residual.
    """
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    step = hi - lo
    for _ in range(_STEP_BUDGET):
        f, slope = residual(x)
        if f == 0.0:
            return x
        if (f > 0.0) == rising:
            hi = x
        else:
            lo = x
        dx = f / slope if slope != 0.0 else math.inf
        if abs(dx) <= tol:
            return min(max(x - dx, lo), hi)
        if lo < x - dx < hi and abs(dx) < 0.5 * step:
            x, step = x - dx, abs(dx)
            continue
        step = 0.5 * (hi - lo)
        x = lo + step
        if step <= tol or not lo < x < hi:
            return x
    raise NonConvergence(f"edge budget exhausted on [{lo}, {hi}]")


def _float_residual(c, target, x):
    """Residual of `_newton_edge`: D(x) - target and D'(x) in floats, without error bounds."""
    value, slope = eval_discriminant_and_slope(c, x)
    return value - target, slope


def _exact_residual(c, target, x):
    """Residual of `_newton_edge`: D(x) - target exact and rounded to a float once, D'(x) in floats.

    target is the int 2 or -2. With D = N / Q from `scaled_trace_exact`,
    D - target is the quotient (N - target * Q) / Q, which int division
    rounds correctly, with no gcd. A quotient beyond the float range is
    +/-inf, as the float evaluator would give.
    """
    n, q = scaled_trace_exact(c, x)
    top = n - target * q
    try:
        f = top / q
    except OverflowError:
        f = math.inf if top > 0 else -math.inf
    return f, eval_discriminant_and_slope(c, x)[1]


# An open gap whose two Floquet eigenvalues lie closer than this fraction of
# the spectrum is flat: the bands beside it solve on the exact residual.
_FLAT_GAP_TRIGGER = 1e-4


def band_structure(d: DiscriminantData) -> BandStructure:
    """Extract the p bands and p-1 gaps from a discriminant.

    Edges are refined to absolute accuracy `_EDGE_RTOL` times the width of
    the search interval. Exactly p bands are always returned. A gap is
    closed exactly when its knot touches: `build_discriminant` left the
    knot undecided, within its error bound of the target, and `_touches`,
    an exact sign with no tolerance, decides so. It then appears as a
    zero-length gap, both edges the knot, never as merged bands. The Floquet eigenvalues the knots were built from seed
    every edge solve and pick its residual: gap j's edges are eigenvalues
    j - 1 and j of its sign, and a band beside a flat gap solves on
    `_exact_residual` and raises EdgeCountMismatch if inverted.
    """
    c = d.coeffs
    lo_bound, hi_bound = search_interval(d.summary)
    tol = _EDGE_RTOL * (hi_bound - lo_bound)

    p = c.p
    plus, minus = d.floquet_eigenvalues
    if len(d.knots) != p - 1 or len(d.knot_open) != p - 1:
        raise EdgeCountMismatch(f"{len(d.knots)} knots for period {p}; expected {p - 1}")
    flags = tuple(
        not is_open and _touches(c, x, j) for j, (x, is_open) in enumerate(zip(d.knots, d.knot_open), start=1)
    )
    knots = [(lo_bound, False), *zip(d.knots, flags), (hi_bound, False)]
    cut = _FLAT_GAP_TRIGGER * (max(plus[-1], minus[-1]) - min(plus[0], minus[0]))
    flat = [False] * (p + 1)
    for j in range(1, p):
        same = plus if gap_sign(p, j) > 0 else minus
        flat[j] = not flags[j - 1] and same[j] - same[j - 1] < cut
    bands: list[Interval] = []
    for n in range(p):
        # By interlacing D has the sign -up at knot n and up at knot n + 1,
        # so the edge of target 2 up, the upper one, lies toward knot n + 1.
        (xl, touch_l), (xr, touch_r) = knots[n], knots[n + 1]
        up = gap_sign(p, n + 1)
        rising = up > 0
        seed_up, seed_down = (plus[n], minus[n]) if rising else (minus[n], plus[n])
        exact = flat[n] or flat[n + 1]
        residual = partial(_exact_residual if exact else _float_residual, c)
        hi = xr if touch_r else _newton_edge(partial(residual, 2 * up), xl, xr, rising, seed_up, tol)
        lo = xl if touch_l else _newton_edge(partial(residual, -2 * up), xl, xr, rising, seed_down, tol)
        if lo > hi:
            if exact:
                raise EdgeCountMismatch(f"band {n} inverted: lower edge {lo} > upper edge {hi}")
            lo, hi = hi, lo
        bands.append(Interval(lo, hi))
    for n in range(p - 1):
        if bands[n].hi > bands[n + 1].lo:
            raise EdgeCountMismatch(
                f"band {n} upper edge {bands[n].hi} exceeds band {n + 1} lower edge {bands[n + 1].lo}"
            )
    gaps = tuple(Interval(bands[n - 1].hi, bands[n].lo) for n in range(1, p))
    span = bands[-1].hi - bands[0].lo
    open_lengths = [g.length for g, closed in zip(gaps, flags) if not closed]
    min_gap = None if p == 1 else min(open_lengths, default=math.inf)
    return BandStructure(
        bands=tuple(bands),
        gaps=gaps,
        s=span,
        total_band_measure=math.fsum(b.length for b in bands),
        min_gap=min_gap,
        closed_gap_flags=flags,
    )


def bands_to_csv(bs: BandStructure, target) -> None:
    """Write bands then gaps as CSV rows to a path or text file object."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", newline="", encoding="utf-8") if own else target
    try:
        writer = csv.writer(fh)
        writer.writerow(["band_index", "lo", "hi", "length"])
        for n, band in enumerate(bs.bands, start=1):
            writer.writerow([n, repr(band.lo), repr(band.hi), repr(band.length)])
        writer.writerow(["gap_index", "lo", "hi", "length"])
        for n, gap in enumerate(bs.gaps, start=1):
            writer.writerow([n, repr(gap.lo), repr(gap.hi), repr(gap.length)])
    finally:
        if own:
            fh.close()
