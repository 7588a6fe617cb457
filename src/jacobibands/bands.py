"""Band-gap structure as the preimage of [-2, 2] under the discriminant.

The knots are the p - 1 Dirichlet eigenvalues, one in the closure of
each gap, where the discriminant has a sign known from interlacing; with
the two ends of the padded Gershgorin interval they cut the line into p
pieces, each holding exactly one band. On a piece, discriminant - 2 and
discriminant + 2 change sign exactly once, so solving both per piece
(`polynomial.float_root`, then a secant polish) yields the 2p edges,
including touching bands. A knot whose value sits within evaluation noise
of the gap's target +/-2 is either a touching point, where the slope is
in noise too, or the edge of an open gap, which is moved to the gap's
critical point. At a knot of either kind, one exact rational evaluation
arbitrates for both neighboring pieces between a genuine touch (both
edges snap onto the knot, gap length exactly zero) and a microscopic
open gap (refined as usual). Edges around narrow open gaps, whose flat
crossings would otherwise scatter by noise over slope, are re-refined
exactly as well.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .coefficients import PeriodicCoefficients
from .discriminant import (
    TRUSTED_PERIOD,
    DiscriminantData,
    eval_discriminant_bounded,
    eval_discriminant_slope,
    eval_discriminant_stable,
    exact_root,
    gap_sign,
    offdiag_product_exact,
    scaled_trace_exact,
    search_interval,
    trace_side,
)
from .errors import EdgeCountMismatch
from .floquet import band_edges_oracle
from .polynomial import float_root

DEFAULT_CLOSED_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class BandStructure:
    """Ordered bands and gaps of one operator.

    edge_labels holds, per band, the discriminant target (+1 for +2,
    -1 for -2) that defined its lower and upper edge. min_gap is the
    smallest open gap, +inf when every gap is closed, and None when p = 1
    and no gap exists at all.
    """

    bands: tuple[Interval, ...]
    gaps: tuple[Interval, ...]
    edge_labels: tuple[tuple[int, int], ...]
    s: float
    total_band_measure: float
    min_gap: float | None
    closed_gap_flags: tuple[bool, ...]
    closed_tol: float

    @property
    def p(self) -> int:
        return len(self.bands)

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


def _crossing_beyond_resolution(c, x, target, err_bound):
    """Exact arbitration at a knot, flat to within noise, whose float value sits in noise.

    Evaluates the discriminant minus target exactly. A value at the target
    or on the band side means a touching point (the knot, a Dirichlet
    eigenvalue or a searched critical point, carries position error
    ~1e-12 at most, which perturbs its value only at order curvature *
    1e-24). A value strictly beyond the target means an open
    gap, but the float refiner can only place its edges to within the
    evaluation noise; gaps whose exact overshoot is inside that noise are
    reported as touching. Returns the corrected sign of value - target,
    or None to snap.
    """
    ap = offdiag_product_exact(c)
    side = trace_side(scaled_trace_exact(c, x), Fraction(target) * ap, Fraction(0.5 * err_bound) * ap)
    if side == 0 or (side > 0) != (target > 0):
        return None
    return 1.0 if target > 0 else -1.0


def _in_noise(g, err, target):
    """Whether the residual g = value - target is within the evaluation noise err."""
    return abs(g) <= 4.0 * err + 1e-14 * (1.0 + abs(target))


def _knot_residual(c, x, value, err, target, critical):
    """value - target at knot x, sign-corrected where it sits in noise.

    At a critical point within the float evaluation noise of the target
    the sign comes from exact arbitration; None means the edges on both
    sides snap to x (touching bands, gap length exactly zero).
    """
    g = value - target
    if critical and _in_noise(g, err, target):
        corrected = _crossing_beyond_resolution(c, x, target, err)
        if corrected is None:
            return None
        g = corrected * max(abs(g), 1e-300)
    return g


def _gap_knot(c, x, value, err, s, left, right, tol):
    """Knot of a gap with sign s, from its Dirichlet eigenvalue x.

    left and right are the neighbouring Dirichlet eigenvalues (or the ends
    of the search interval). Returns (knot, residual for target 2s,
    residual for target -2s). The second residual takes its sign from
    interlacing, never from the float value. A value clearly beyond 2s
    keeps the knot. Otherwise x is a touching point, where the slope is in
    noise as well, or an edge of an open gap, which the solvers of both
    neighbouring pieces could mistake for their own crossing; the knot
    then moves to the gap's critical point.
    """
    target = 2.0 * s
    g = value - target
    if s * g <= 0.0 or _in_noise(g, err, target):
        _, _, slope, slope_err = eval_discriminant_slope(c, x)
        if abs(slope) > 4.0 * slope_err:
            x = _gap_critical_point(c, x, s, slope, left if s * slope < 0.0 else right, tol)
            value, err = eval_discriminant_bounded(c, x)
        g = _knot_residual(c, x, value, err, target, True)
    return x, g, s * max(abs(value + target), 1e-300)


def _gap_critical_point(c, x, s, slope, stop, tol):
    """Critical point of the gap with sign s, searched from x toward stop.

    s * D grows from x toward stop, the next Dirichlet eigenvalue (or end
    of the search interval) on that side. Between them a point is short
    of the gap's critical point exactly while D' keeps its sign at x and D
    keeps the gap sign: past the critical point D' turns, and where it
    turns back, beyond the next critical point, D has the other gap's
    sign. So the indicator below changes sign once on [x, stop], at the
    critical point, and stop is beyond it by interlacing.
    """
    sense = 1.0 if s * slope > 0.0 else -1.0

    def short(t):
        value, _, d, _ = eval_discriminant_slope(c, t)
        if s * value > 0.0:
            return sense * s * d
        return -max(abs(d), 1e-300)

    f_x, f_stop = abs(slope), -abs(slope)
    if x < stop:
        lo, f_lo, hi, f_hi = float_root(short, x, f_x, stop, f_stop, tol)
    else:
        lo, f_lo, hi, f_hi = float_root(short, stop, f_stop, x, f_x, tol)
    return lo if f_lo >= 0.0 else hi


def _solve_on_piece(c, xl, gl, xr, gr, target, left_is_critical, right_is_critical, tol):
    """Unique solution of discriminant = target on a piece between knots.

    gl and gr are the knot residuals (`_gap_knot`) at the piece ends; None
    at an interior knot means the edge is that knot (touching bands).
    """
    if gl is None or gl == 0.0:
        return xl
    if gr is None or gr == 0.0:
        return xr
    if (gl > 0.0) == (gr > 0.0):
        # Same sign beyond noise: the crossing exists but sits below float
        # resolution next to a critical endpoint. Snap to the nearer one.
        if left_is_critical and (not right_is_critical or abs(gl) <= abs(gr)):
            return xl
        if right_is_critical:
            return xr
        raise EdgeCountMismatch(
            f"no sign change for target {target} on [{xl}, {xr}]: residuals ({gl}, {gr})"
        )
    lo, flo, hi, fhi = float_root(lambda t: eval_discriminant_stable(c, t) - target, xl, gl, xr, gr, tol)
    return _secant_polish(c, target, lo, flo, hi, fhi, xl, xr)


def _secant_polish(c, target, x0, f0, x1, f1, piece_lo, piece_hi):
    """Sharpen a refined edge to float resolution with secant steps.

    The refined bracket is tol-wide; on steep edges that leaves the
    evaluated discriminant far from the target even though the position
    is fine. A few secant iterations push the residual down to the
    evaluation noise floor. Steps are confined to the piece.
    """
    best_x, best_f = (x0, f0) if abs(f0) <= abs(f1) else (x1, f1)
    for _ in range(4):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (piece_lo <= x2 <= piece_hi) or x2 == x1:
            break
        f2 = eval_discriminant_stable(c, x2) - target
        if abs(f2) < abs(best_f):
            best_x, best_f = x2, f2
        if f2 == 0.0:
            break
        x0, f0, x1, f1 = x1, f1, x2, f2
    return best_x


# Open gaps narrower than this fraction of the spectrum carry flat
# crossings whose float edges scatter by eval-noise / slope; those edges
# get re-refined with exact arithmetic.
_FLAT_GAP_TRIGGER = 1e-4


def _exact_edge_position(c, x, target, inner, span):
    """Edge position, exact to 1e-13 relative, between the band and the gap.

    inner is a point inside the open gap, where the discriminant provably
    overshoots the target; the outer bracket end is stepped into the band
    until the exact signs straddle. Falls back to x if no bracket forms.
    """
    tgt = Fraction(target) * offdiag_product_exact(c)
    s_inner = scaled_trace_exact(c, inner)
    side_inner = trace_side(s_inner, tgt)
    if side_inner == 0:
        return inner
    if (side_inner > 0) != (target > 0):
        return x  # inner point is not beyond the target: touching, no bracket
    step = max(4.0 * span, 1e-12 * max(1.0, abs(x)))
    for _ in range(8):
        outer = x - step if x < inner else x + step
        s_outer = scaled_trace_exact(c, outer)
        side_outer = trace_side(s_outer, tgt)
        if side_outer == 0:
            return outer
        if side_outer != side_inner:
            t, _ = exact_root(lambda t: scaled_trace_exact(c, t), tgt, Fraction(inner), Fraction(outer),
                              s_inner, s_outer, wtol=Fraction(1e-13 * max(1.0, abs(x))))
            return float(t)
        step *= 4.0
    return x


def _sharpen_flat_gap_edges(c, bands, labels):
    """Re-refine the two edges around every narrow open gap.

    Raises EdgeCountMismatch when a sharpened edge crosses the other edge
    of its band: the float edge it passed is then wrong by more than the
    band is long.
    """
    cut = _FLAT_GAP_TRIGGER * max(1.0, bands[-1].hi - bands[0].lo)
    out = list(bands)
    for n in range(len(bands) - 1):
        gap = out[n + 1].lo - out[n].hi
        if not 0.0 < gap < cut:
            continue
        inner = 0.5 * (out[n].hi + out[n + 1].lo)
        hi_edge = _exact_edge_position(c, out[n].hi, 2.0 * labels[n][1], inner, gap)
        lo_edge = _exact_edge_position(c, out[n + 1].lo, 2.0 * labels[n + 1][0], inner, gap)
        out[n] = Interval(out[n].lo, hi_edge)
        out[n + 1] = Interval(lo_edge, out[n + 1].hi)
    for n, band in enumerate(out):
        if band.lo > band.hi:
            raise EdgeCountMismatch(
                f"band {n} inverted by exact edge sharpening: lower edge {band.lo} > upper edge {band.hi}"
            )
    return out


def _assemble(
    c: PeriodicCoefficients,
    bands: list[Interval],
    labels: list[tuple[int, int]],
    closed_tol: float,
) -> BandStructure:
    bands = _sharpen_flat_gap_edges(c, bands, labels)
    p = len(bands)
    gaps = tuple(Interval(bands[n - 1].hi, bands[n].lo) for n in range(1, p))
    s = bands[-1].hi - bands[0].lo
    total = math.fsum(b.length for b in bands)
    min_gap, flags = _gap_stats(gaps, s, closed_tol, p)
    return BandStructure(
        bands=tuple(bands),
        gaps=gaps,
        edge_labels=tuple(labels),
        s=s,
        total_band_measure=total,
        min_gap=min_gap,
        closed_gap_flags=flags,
        closed_tol=closed_tol,
    )


def _gap_stats(gaps, s, closed_tol, p):
    if p == 1:
        return None, ()
    scale = closed_tol * max(1.0, s)
    flags = tuple(g.length <= scale for g in gaps)
    open_lengths = [g.length for g, closed in zip(gaps, flags) if not closed]
    min_gap = min(open_lengths) if open_lengths else math.inf
    return min_gap, flags


def band_structure(
    d: DiscriminantData,
    tol: float | None = None,
    closed_tol: float = DEFAULT_CLOSED_TOL,
    use_oracle: bool | None = None,
) -> BandStructure:
    """Extract the p bands and p-1 gaps from a discriminant.

    Edges are refined to absolute accuracy tol (default 1e-12 times the
    Gershgorin width). Exactly p bands are always returned; closed gaps
    appear as zero-length gaps between them, never as merged bands.

    use_oracle=None solves on the Dirichlet pieces up to TRUSTED_PERIOD;
    beyond it Floquet eigenvalues supply the edge brackets.
    """
    c = d.coeffs
    if use_oracle is None:
        use_oracle = c.p > TRUSTED_PERIOD
    lo_bound, hi_bound = search_interval(c)
    if tol is None:
        tol = 1e-12 * max(1.0, hi_bound - lo_bound)
    if not (tol > 0.0 and closed_tol > 0.0):
        raise ValueError("tolerances must be positive")

    if use_oracle:
        return _band_structure_from_oracle(c, tol, closed_tol)

    p = c.p
    if len(d.knots) != p - 1 or len(d.knot_values) != p - 1:
        raise EdgeCountMismatch(f"{len(d.knots)} knots for period {p}; expected {p - 1}")
    seeds = (lo_bound, *d.knots, hi_bound)
    v_lo, _ = eval_discriminant_bounded(c, lo_bound)
    v_hi, _ = eval_discriminant_bounded(c, hi_bound)
    knots, plus, minus = [lo_bound], [v_lo - 2.0], [v_lo + 2.0]
    for j, (x, (value, err)) in enumerate(zip(d.knots, d.knot_values), start=1):
        s = gap_sign(p, j)
        x, near, far = _gap_knot(c, x, value, err, s, seeds[j - 1], seeds[j + 1], tol)
        knots.append(x)
        plus.append(near if s > 0.0 else far)
        minus.append(far if s > 0.0 else near)
    knots.append(hi_bound)
    plus.append(v_hi - 2.0)
    minus.append(v_hi + 2.0)
    bands: list[Interval] = []
    labels: list[tuple[int, int]] = []
    for n in range(p):
        xl, xr = knots[n], knots[n + 1]
        e_plus = _solve_on_piece(c, xl, plus[n], xr, plus[n + 1], 2.0, n > 0, n < p - 1, tol)
        e_minus = _solve_on_piece(c, xl, minus[n], xr, minus[n + 1], -2.0, n > 0, n < p - 1, tol)
        if e_plus <= e_minus:
            bands.append(Interval(e_plus, e_minus))
            labels.append((1, -1))
        else:
            bands.append(Interval(e_minus, e_plus))
            labels.append((-1, 1))
    for n in range(p - 1):
        if bands[n].hi > bands[n + 1].lo:
            raise EdgeCountMismatch(
                f"band {n} upper edge {bands[n].hi} exceeds band {n + 1} lower edge {bands[n + 1].lo}"
            )
    return _assemble(c, bands, labels, closed_tol)


def _refine_near_oracle(c, x, target, tol, scale, roots):
    """Edge refined from a sign change around an oracle eigenvalue; keeps x on failure.

    roots holds the eigenvalues of x's Floquet matrix, the solutions of
    discriminant = target. The bracket x +/- h widens only while h stays
    below half the distance to the nearest of them that is distinct from
    x, so any sign change found belongs to x. At a touching edge (a double
    eigenvalue) no sign change forms and x stays.
    """
    h = max(1e-12 * scale, 1e-15 * max(1.0, abs(x)))
    reach = 0.5 * min((abs(y - x) for y in roots if abs(y - x) > 2.0 * h), default=math.inf)
    for _ in range(40):
        if h >= reach:
            return x
        lo, hi = x - h, x + h
        fl = eval_discriminant_stable(c, lo) - target
        fh = eval_discriminant_stable(c, hi) - target
        if fl == 0.0:
            return lo
        if fh == 0.0:
            return hi
        if (fl > 0.0) != (fh > 0.0):
            lo, fl, hi, fh = float_root(lambda t: eval_discriminant_stable(c, t) - target, lo, fl, hi, fh, tol)
            return _secant_polish(c, target, lo, fl, hi, fh, lo, hi)
        h *= 8.0
    return x


def _band_structure_from_oracle(c, tol, closed_tol) -> BandStructure:
    """Bands from Floquet eigenvalues refined on the stable evaluation."""
    plus, minus = band_edges_oracle(c)
    lo_bound, hi_bound = search_interval(c)
    scale = hi_bound - lo_bound
    if len(plus) + len(minus) != 2 * c.p:
        raise EdgeCountMismatch(f"oracle produced {len(plus) + len(minus)} edges, expected {2 * c.p}")
    refined = [
        (_refine_near_oracle(c, x, 2.0 * lab, tol, scale, roots), lab)
        for lab, roots in ((1, plus), (-1, minus))
        for x in roots
    ]
    refined.sort()
    bands: list[Interval] = []
    labels: list[tuple[int, int]] = []
    for n in range(c.p):
        (e_lo, lab_lo), (e_hi, lab_hi) = refined[2 * n], refined[2 * n + 1]
        if lab_lo == lab_hi:
            raise EdgeCountMismatch(
                f"band {n} edges carry the same discriminant sign {lab_lo}"
            )
        bands.append(Interval(e_lo, e_hi))
        labels.append((lab_lo, lab_hi))
    return _assemble(c, bands, labels, closed_tol)


def gap_report(bs: BandStructure, closed_tol: float = DEFAULT_CLOSED_TOL):
    """Recompute (min open gap, closed flags) under a different closed_tol."""
    return _gap_stats(bs.gaps, bs.s, closed_tol, bs.p)


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
