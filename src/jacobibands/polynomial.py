"""Dense real polynomials with certified real-root isolation.

Coefficients are stored in the monomial basis, index k holding the
coefficient of x**k. Root isolation uses a Sturm remainder sequence to
count distinct roots, `float_root` (safeguarded Illinois regula falsi) to
refine each isolated root with a sign change, and derivative probes to
tag multiplicities. `float_root` also refines the band edges.

Floating-point Sturm chains cannot separate roots closer than roughly
1e-6 of the coefficient scale; such clusters collapse to one reported
root inside the cluster, and the multiplicity tag then reflects what the
derivative probes can still distinguish there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInterval, NonConvergence

# Relative size below which a remainder in the Sturm chain is treated as
# the zero polynomial (gcd reached). Chain members are normalized to unit
# max coefficient before dividing.
_CHAIN_DROP = 1e-13

# |p^(k)(r)| / majorant below this is treated as a vanishing derivative
# when tagging multiplicities.
_MULT_REL = 1e-9

# Steps of `float_root` and of the Sturm-count bisection. Either reaches tol
# or the float resolution floor in well under this many steps.
_STEP_BUDGET = 300

# Halvings by which the bracket of `float_root` may lag plain bisection
# before every further step bisects.
_LAG = 8


class Poly:
    """Immutable dense real polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [float(c) for c in coeffs]
        for c in cs:
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {c!r}")
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            cs = [0.0]
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Highest index with a nonzero coefficient; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def __call__(self, t: float) -> float:
        return _eval(self.coeffs, t)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(_add(self.coeffs, [-c for c in other.coeffs]))

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(_mul(self.coeffs, other.coeffs))

    def derivative(self) -> "Poly":
        return Poly(_derive(self.coeffs))

    def scaled(self, factor: float) -> "Poly":
        return Poly([factor * c for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


def poly_arith(x: Poly, y: Poly, op: str) -> Poly:
    """Functional form of +, -, * used by code that dispatches on a name."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    raise ValueError(f"unknown op {op!r}")


def poly_eval(x: Poly, t: float) -> float:
    if not math.isfinite(t):
        raise ValueError(f"evaluation point must be finite, got {t!r}")
    return x(t)


def poly_derivative(x: Poly) -> Poly:
    return x.derivative()


@dataclass(frozen=True)
class Root:
    """One distinct real root with its multiplicity tag."""

    value: float
    multiplicity: int


# ---------------------------------------------------------------------------
# raw coefficient-list helpers (hot paths work on lists, not Poly objects)


def _eval(cs, t):
    acc = 0.0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def _add(xs, ys):
    n = max(len(xs), len(ys))
    out = [0.0] * n
    for i, c in enumerate(xs):
        out[i] += c
    for i, c in enumerate(ys):
        out[i] += c
    return out


def _mul(xs, ys):
    out = [0.0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x == 0.0:
            continue
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out


def _derive(cs):
    if len(cs) == 1:
        return [0.0]
    return [k * cs[k] for k in range(1, len(cs))]


def _trim_leading(cs, rel):
    """Drop trailing (highest-degree) coefficients below rel * max|c|."""
    scale = max(abs(c) for c in cs)
    if scale == 0.0:
        return [0.0]
    cut = rel * scale
    out = list(cs)
    while len(out) > 1 and abs(out[-1]) <= cut:
        out.pop()
    return out


def _unit(cs):
    """Scale to unit max coefficient; positive scaling keeps all signs."""
    scale = max(abs(c) for c in cs)
    if scale == 0.0:
        return [0.0]
    return [c / scale for c in cs]


def _rem(num, den):
    """Remainder of polynomial long division; den's leading coefficient nonzero."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if dd == 0:
        return [0.0]
    while len(num) - 1 >= dd:
        k = len(num) - 1 - dd
        q = num[-1] / lead
        for i in range(dd + 1):
            num[k + i] -= q * den[i]
        num.pop()
        if not num:
            break
    return num if num else [0.0]


def _sturm_chain(p: Poly):
    """Normalized Sturm remainder sequence of p, truncated at the gcd."""
    chain = [_unit(list(p.coeffs))]
    d = _derive(chain[0])
    if len(d) == 1 and d[0] == 0.0:
        return chain
    chain.append(_unit(d))
    while len(chain[-1]) > 1:
        rem = _trim_leading(_rem(chain[-2], chain[-1]), _CHAIN_DROP)
        if max(abs(c) for c in rem) <= _CHAIN_DROP:
            break
        chain.append(_unit([-c for c in rem]))
    return chain


def _sign_changes(chain, x):
    prev = 0
    changes = 0
    for cs in chain:
        v = _eval(cs, x)
        if v == 0.0:
            continue
        s = 1 if v > 0.0 else -1
        if prev != 0 and s != prev:
            changes += 1
        prev = s
    return changes


def sturm_count(x: Poly, lo: float, hi: float) -> int:
    """Number of distinct real roots of x in the half-open interval (lo, hi]."""
    chain = _sturm_chain(x)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _majorant(cs, r):
    m = max(1.0, abs(r))
    acc = 0.0
    power = 1.0
    for c in cs:
        acc += abs(c) * power
        power *= m
    return acc


def _multiplicity(p: Poly, r: float) -> int:
    cs = list(p.coeffs)
    deg = len(cs) - 1
    for k in range(deg + 1):
        if k > 0:
            cs = _derive(cs)
        bound = _majorant(cs, r)
        if bound > 0.0 and abs(_eval(cs, r)) > _MULT_REL * bound:
            return max(k, 1) if k > 0 else 1
    return max(deg, 1)


def float_root(f, lo, f_lo, hi, f_hi, tol):
    """Bracket of width <= tol around a sign change of f, by Illinois regula falsi.

    f_lo = f(lo) and f_hi = f(hi) are nonzero with opposite signs. Returns
    (lo, f_lo, hi, f_hi) once hi - lo <= tol or the bracket cannot be split
    in floats, and (x, 0.0, x, 0.0) at an exact zero. Each step takes the
    secant point of the ends, kept tol/2 inside the bracket so that a point
    next to the root lands on its far side and closes the bracket. An end
    kept twice in a row has its value halved for the secant (Dowell &
    Jarratt, BIT 11, 1971). Regula falsi can crawl from one side for many
    steps, so the bracket after step j must be within 2^(_LAG - j) of the
    first one; while it is not, the steps bisect. That bounds the work at
    _LAG + 1 evaluations more than bisection needs.
    """
    g_lo, g_hi = f_lo, f_hi  # the values the secant uses, Illinois-halved
    kept = 0  # -1 if the last step kept lo, +1 if it kept hi
    allowed = hi - lo  # 2^(_LAG - j) times the first width, from step _LAG on
    for step in range(_STEP_BUDGET):
        width = hi - lo
        if width <= tol:
            return lo, f_lo, hi, f_hi
        mid = 0.5 * (lo + hi)
        x = mid
        if width <= allowed:
            x = min(max(lo + width * (g_lo / (g_lo - g_hi)), lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:
            if not lo < mid < hi:
                return lo, f_lo, hi, f_hi  # float resolution floor
            x = mid
        fx = f(x)
        if fx == 0.0:
            return x, fx, x, fx
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo, g_lo = x, fx, fx
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, f_hi, g_hi = x, fx, fx
            if kept == -1:
                g_lo *= 0.5
            kept = -1
        if step >= _LAG:
            allowed *= 0.5
    raise NonConvergence(f"root budget exhausted on [{lo}, {hi}]")


def _refine_count(chain, x0, x1, v0, tol):
    """Bisection keeping the half that still holds the single counted root."""
    for _ in range(_STEP_BUDGET):
        if x1 - x0 <= tol:
            return x0, x1
        mid = 0.5 * (x0 + x1)
        if not (x0 < mid < x1):
            return x0, x1
        vm = _sign_changes(chain, mid)
        if v0 - vm >= 1:
            x1 = mid
        else:
            x0, v0 = mid, vm
    raise NonConvergence(f"count bisection budget exhausted on [{x0}, {x1}]")


def real_roots_in(x: Poly, lo: float, hi: float, tol: float | None = None) -> list[Root]:
    """All real roots of x in [lo, hi], sorted, each with a multiplicity tag.

    Each distinct root is bracketed by Sturm sign-change counts and then
    refined to an absolute width <= tol: by `float_root` where x changes
    sign, by Sturm-count bisection where it does not.
    """
    if x.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if not (lo < hi):
        raise DegenerateInterval(f"need lo < hi, got [{lo}, {hi}]")
    if tol is None:
        tol = 1e-12 * max(1.0, hi - lo)
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")

    if x.degree == 0:
        return []

    chain = _sturm_chain(x)
    # signs from the chain's own first member, so that they agree with the counts
    cs = chain[0]

    results: list[Root] = []
    if _eval(cs, lo) == 0.0:
        # Sturm counts roots in (lo, hi]; an exact hit at lo is kept too.
        results.append(Root(lo, _multiplicity(x, lo)))

    v_lo = _sign_changes(chain, lo)
    v_hi = _sign_changes(chain, hi)
    stack = [(lo, hi, v_lo, v_hi)]
    isolated: list[tuple[float, float, int, int]] = []  # (x0, x1, v0, cluster)
    floor = 4.0 * 2.2e-16 * max(1.0, abs(lo), abs(hi))
    while stack:
        x0, x1, v0, v1 = stack.pop()
        n = v0 - v1
        if n <= 0:
            continue
        if n == 1:
            isolated.append((x0, x1, v0, 1))
            continue
        if x1 - x0 <= max(tol, floor):
            isolated.append((x0, x1, v0, n))  # unresolvable cluster
            continue
        mid = 0.5 * (x0 + x1)
        vm = _sign_changes(chain, mid)
        stack.append((x0, mid, v0, vm))
        stack.append((mid, x1, vm, v1))

    for x0, x1, v0, cluster in isolated:
        if cluster > 1:
            results.append(Root(0.5 * (x0 + x1), cluster))
            continue
        f0, f1 = _eval(cs, x0), _eval(cs, x1)
        if f1 == 0.0:
            # the half-open interval's own root is an exact hit at the end
            results.append(Root(x1, _multiplicity(x, x1)))
            continue
        if f0 != 0.0 and (f0 > 0.0) != (f1 > 0.0):
            a, _, b, _ = float_root(lambda t: _eval(cs, t), x0, f0, x1, f1, tol)
        else:
            # even multiplicity, or a split point that is itself a root of x
            a, b = _refine_count(chain, x0, x1, v0, tol)
        r = 0.5 * (a + b)
        results.append(Root(r, _multiplicity(x, r)))

    results.sort(key=lambda root: root.value)
    return results
