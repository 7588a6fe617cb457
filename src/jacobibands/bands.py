"""Band-gap structure as the preimage of [-2, 2] under the discriminant.

The knots are the p - 1 Dirichlet eigenvalues, one in the closure of
each gap, where the discriminant has a sign known from interlacing; with
the two ends of the padded Gershgorin interval they cut the line into p
pieces, each holding exactly one band. On a piece, discriminant - 2 and
discriminant + 2 change sign exactly once, so solving both per piece
yields the 2p edges, including touching bands. Each solve is a Newton
iteration safeguarded by bisection inside that sign bracket, started at
the Floquet eigenvalue of the edge (`floquet.band_edges_oracle`, called
once per operator): the k-th solution of discriminant = +/-2 in sorted
order lies in the k-th piece, doubled solutions included. The
eigenvalues only seed: a wrong one costs steps, never moves an edge, and
fails the oracle comparison of `ensemble.run_trial`, which reads them off
the result. A knot whose value sits within evaluation noise of the gap's
target +/-2 is either a touching point, where the slope is in noise too,
or the edge of an open gap, which is moved to the gap's critical point.
At a knot of either kind, one exact rational evaluation arbitrates for
both neighboring pieces: its sign alone, with no tolerance, tells a
genuine touch (value on the target or on the band side: both edges snap
onto the knot, gap length exactly zero) from an open gap, however
shallow (refined as usual). Edges around narrow open gaps, whose flat
crossings would otherwise scatter by noise over slope, are re-refined
exactly as well, each bracketed by the gap's knot. This is the one path
at every period.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .discriminant import (
    DiscriminantData,
    eval_discriminant,
    eval_discriminant_and_slope,
    eval_discriminant_bounded,
    eval_discriminant_slope,
    exact_root,
    gap_sign,
    offdiag_product_exact,
    scaled_trace_exact,
    search_interval,
    trace_side,
)
from .errors import EdgeCountMismatch, NonConvergence
from .floquet import band_edges_oracle

# A gap no longer than this times max(1, s), s the spectrum diameter, is closed.
DEFAULT_CLOSED_TOL = 1e-9

# Edges are solved to this times the width (at least 1) of the search interval.
_EDGE_RTOL = 1e-12

# Bound by name only for the ("jacobibands.bands", "eval_discriminant_stable")
# entry of perfbench/tracing.py TARGETS, which `Tracer.install` looks up;
# nothing calls it, so that "bands.float" span never opens.
eval_discriminant_stable = None

# Steps of `float_root` and `_newton_edge`. Each reaches tol or the float
# resolution floor in well under this many.
_STEP_BUDGET = 300


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
    and no gap exists at all. floquet_eigenvalues is the (plus, minus)
    pair of `band_edges_oracle` that seeded the edge solves.
    """

    bands: tuple[Interval, ...]
    gaps: tuple[Interval, ...]
    edge_labels: tuple[tuple[int, int], ...]
    s: float
    total_band_measure: float
    min_gap: float | None
    closed_gap_flags: tuple[bool, ...]
    floquet_eigenvalues: tuple[tuple[float, ...], tuple[float, ...]]

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


def float_root(f, lo, f_lo, hi, f_hi, tol):
    """Bracket of width <= tol around a sign change of f, by bisection.

    f_lo = f(lo) and f_hi = f(hi) are nonzero with opposite signs. Returns
    (lo, f_lo, hi, f_hi) once hi - lo <= tol or the bracket cannot be split
    in floats, and (x, 0.0, x, 0.0) at an exact zero.
    """
    for _ in range(_STEP_BUDGET):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or not lo < mid < hi:
            return lo, f_lo, hi, f_hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, f_mid, mid, f_mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise NonConvergence(f"root budget exhausted on [{lo}, {hi}]")


def _crossing_beyond_resolution(c, x, target):
    """Exact arbitration at a knot, flat to within noise, whose float value sits in noise.

    Evaluates the discriminant minus target exactly. A value at the target
    or on the band side means a touching point (the knot, a Dirichlet
    eigenvalue or a searched critical point, carries position error
    ~1e-12 at most, which perturbs its value only at order curvature *
    1e-24). A value strictly beyond the target, however slightly, means an
    open gap. Returns the exact sign of value - target, or None to snap.
    """
    side = trace_side(scaled_trace_exact(c, x), Fraction(target) * offdiag_product_exact(c))
    if side == 0 or (side > 0) != (target > 0):
        return None
    return 1.0 if target > 0 else -1.0


def _in_noise(g, err, target):
    """Whether the residual g = value - target is within the evaluation noise err."""
    return abs(g) <= 4.0 * err + 1e-14 * (1.0 + abs(target))


def _gap_knot(c, x, value, err, s, left, right, tol):
    """Knot of a gap with sign s, from its Dirichlet eigenvalue x.

    left and right are the neighbouring Dirichlet eigenvalues (or the ends
    of the search interval). Returns (knot, residual for target 2s,
    residual for target -2s). The second residual takes its sign from
    interlacing, never from the float value. A value clearly beyond 2s
    keeps the knot. Otherwise x is a touching point, where the slope is in
    noise as well, or an edge of an open gap, which the solvers of both
    neighbouring pieces could mistake for their own crossing; the knot
    then moves to the gap's critical point. A value there within the float
    evaluation noise of 2s takes its sign from exact arbitration, and a
    first residual of None means the edges on both sides snap to the knot
    (touching bands, gap length exactly zero).
    """
    target = 2.0 * s
    g = value - target
    if s * g <= 0.0 or _in_noise(g, err, target):
        _, _, slope, slope_err = eval_discriminant_slope(c, x)
        if abs(slope) > 4.0 * slope_err:
            x = _gap_critical_point(c, x, s, slope, left if s * slope < 0.0 else right, tol)
            value, err = eval_discriminant_bounded(c, x)
        g = value - target
        if _in_noise(g, err, target):
            side = _crossing_beyond_resolution(c, x, target)
            g = None if side is None else side * max(abs(g), 1e-300)
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
        value, d = eval_discriminant_and_slope(c, t)
        if s * value > 0.0:
            return sense * s * d
        return -max(abs(d), 1e-300)

    f_x, f_stop = abs(slope), -abs(slope)
    if x < stop:
        lo, f_lo, hi, f_hi = float_root(short, x, f_x, stop, f_stop, tol)
    else:
        lo, f_lo, hi, f_hi = float_root(short, stop, f_stop, x, f_x, tol)
    return lo if f_lo >= 0.0 else hi


def _solve_on_piece(c, xl, gl, xr, gr, target, left_is_critical, right_is_critical, seed, tol):
    """Unique solution of discriminant = target on a piece between knots.

    gl and gr are the knot residuals (`_gap_knot`) at the piece ends; None
    at an interior knot means the edge is that knot (touching bands). seed
    is the Floquet eigenvalue of the edge.
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
    return _newton_edge(c, target, xl, gl, xr, gr, seed, tol)


def _newton_edge(c, target, lo, f_lo, hi, f_hi, x, tol):
    """The solution of discriminant = target in [lo, hi], by safeguarded Newton from x.

    f_lo and f_hi carry the signs, which differ, of discriminant - target
    at lo and hi. The bracket keeps that sign change. A Newton step is
    taken when it lands strictly inside the bracket and is under half the
    previous step; otherwise the bracket is bisected (rtsafe; Press et al.,
    Numerical Recipes, section 9.4). A seed x outside (lo, hi) is replaced
    by the secant point of the ends. D - target has only real roots r_i,
    so f'/f = sum 1/(x - r_i), and |f/f'| <= tol puts a root within p * tol
    of x: then x - f/f', clamped into the bracket, is returned. From a
    Floquet eigenvalue this takes one evaluation of D and D'.
    """
    rising = f_hi > 0.0
    if not lo < x < hi:
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    step = hi - lo
    for _ in range(_STEP_BUDGET):
        value, slope = eval_discriminant_and_slope(c, x)
        f = value - target
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


# Open gaps narrower than this fraction of the spectrum carry flat
# crossings whose float edges scatter by eval-noise / slope; those edges
# get re-refined with exact arithmetic.
_FLAT_GAP_TRIGGER = 1e-4


def _exact_edge_position(c, x, target, inner, span):
    """Edge position, exact to 1e-13 relative, between the band and the gap.

    inner is the gap's knot, where the discriminant reaches or passes the
    target; the outer bracket end is stepped from x into the band, by
    multiples of span (negative for a band below the gap), until the exact
    signs straddle. Falls back to x if no bracket forms.
    """
    tgt = Fraction(target) * offdiag_product_exact(c)
    s_inner = scaled_trace_exact(c, inner)
    side_inner = trace_side(s_inner, tgt)
    if side_inner == 0:
        return inner
    if (side_inner > 0) != (target > 0):
        return x  # inner point is not beyond the target: touching, no bracket
    step = math.copysign(max(4.0 * abs(span), 1e-12 * max(1.0, abs(x))), span)
    for _ in range(8):
        outer = x + step
        s_outer = scaled_trace_exact(c, outer)
        side_outer = trace_side(s_outer, tgt)
        if side_outer == 0:
            return outer
        if side_outer != side_inner:
            t = exact_root(lambda t: scaled_trace_exact(c, t), tgt, Fraction(inner), Fraction(outer),
                           s_inner, s_outer, wtol=Fraction(1e-13 * max(1.0, abs(x))))
            return float(t)
        step *= 4.0
    return x


def _sharpen_flat_gap_edges(c, bands, labels, knots):
    """Re-refine the two edges around every narrow open gap.

    Each gap's knot (knots[n + 1] for the gap above band n) anchors the
    exact brackets: every edge solve is bracketed by it, so it lies
    between the two float edges even where the true gap is narrower than
    their scatter. Raises EdgeCountMismatch when a sharpened edge crosses
    the other edge of its band: the float edge it passed is then wrong by
    more than the band is long.
    """
    cut = _FLAT_GAP_TRIGGER * max(1.0, bands[-1].hi - bands[0].lo)
    out = list(bands)
    for n in range(len(bands) - 1):
        gap = out[n + 1].lo - out[n].hi
        if not 0.0 < gap < cut:
            continue
        inner = knots[n + 1]
        hi_edge = _exact_edge_position(c, out[n].hi, 2.0 * labels[n][1], inner, -gap)
        lo_edge = _exact_edge_position(c, out[n + 1].lo, 2.0 * labels[n + 1][0], inner, gap)
        out[n] = Interval(out[n].lo, hi_edge)
        out[n + 1] = Interval(lo_edge, out[n + 1].hi)
    for n, band in enumerate(out):
        if band.lo > band.hi:
            raise EdgeCountMismatch(
                f"band {n} inverted by exact edge sharpening: lower edge {band.lo} > upper edge {band.hi}"
            )
    return out


def band_structure(d: DiscriminantData) -> BandStructure:
    """Extract the p bands and p-1 gaps from a discriminant.

    Edges are refined to absolute accuracy `_EDGE_RTOL` times the width of
    the search interval. Exactly p bands are always returned; closed gaps
    (`DEFAULT_CLOSED_TOL`) appear as zero-length gaps between them, never
    as merged bands. The Floquet eigenvalues are computed once and seed
    every edge solve.
    """
    c = d.coeffs
    lo_bound, hi_bound = search_interval(d.summary)
    tol = _EDGE_RTOL * max(1.0, hi_bound - lo_bound)

    p = c.p
    eigenvalues = band_edges_oracle(c)
    if any(len(roots) != p for roots in eigenvalues):
        raise EdgeCountMismatch(
            f"oracle produced {len(eigenvalues[0])}/{len(eigenvalues[1])} edges, expected {p} each"
        )
    if len(d.knots) != p - 1 or len(d.knot_values) != p - 1:
        raise EdgeCountMismatch(f"{len(d.knots)} knots for period {p}; expected {p - 1}")
    seeds = (lo_bound, *d.knots, hi_bound)
    v_lo = eval_discriminant(c, lo_bound)
    v_hi = eval_discriminant(c, hi_bound)
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
    seed_plus, seed_minus = eigenvalues
    for n in range(p):
        xl, xr = knots[n], knots[n + 1]
        e_plus = _solve_on_piece(c, xl, plus[n], xr, plus[n + 1], 2.0, n > 0, n < p - 1, seed_plus[n], tol)
        e_minus = _solve_on_piece(c, xl, minus[n], xr, minus[n + 1], -2.0, n > 0, n < p - 1, seed_minus[n], tol)
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
    bands = _sharpen_flat_gap_edges(c, bands, labels, knots)
    gaps = tuple(Interval(bands[n - 1].hi, bands[n].lo) for n in range(1, p))
    span = bands[-1].hi - bands[0].lo
    flags = tuple(g.length <= DEFAULT_CLOSED_TOL * max(1.0, span) for g in gaps)
    open_lengths = [g.length for g, closed in zip(gaps, flags) if not closed]
    min_gap = None if p == 1 else min(open_lengths, default=math.inf)
    return BandStructure(
        bands=tuple(bands),
        gaps=gaps,
        edge_labels=tuple(labels),
        s=span,
        total_band_measure=math.fsum(b.length for b in bands),
        min_gap=min_gap,
        closed_gap_flags=flags,
        floquet_eigenvalues=eigenvalues,
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
