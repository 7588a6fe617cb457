"""Discriminant of a periodic Jacobi operator.

The discriminant D is the trace of the one-period transfer-matrix
product, a degree-p polynomial in the spectral parameter. The band
pipeline never expands it: it evaluates D stably through the 2x2 matrix
product (with a running error bound, and in forward mode with its
derivative), and takes its knots from the Dirichlet eigenvalues, the
eigenvalues of the operator with site 0 deleted. By Cauchy interlacing
the j-th of these p - 1 values lies in the closure of the j-th gap,
where D has the sign (-1)^(p-j) and |D| >= 2 (van Moerbeke, Invent.
Math. 37, 1976), so they cut the line into p pieces holding one band
each. The monomial expansion, with its Sturm-isolated roots and critical
points, is still available on demand for inspection and for long-period
diagnostics. An exact rational evaluator backs up the float path where
cancellation would otherwise dominate.

The exact evaluator works in integers. Every float coefficient is a dyadic
rational, so one operator converts once (and is cached) to integer
numerators over a common denominator. A point t = T/D joins that
denominator through an lcm, and the cleared-denominator transfer product
then runs in plain int arithmetic: no Fraction and no gcd inside the
loop. The result stays an unreduced integer pair: reducing it costs a gcd
on the full-size numerator, and callers only need it compared with a
rational (`trace_side`, by integer cross products) or as a float
(`trace_ratio`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .coefficients import PeriodicCoefficients, offdiag_product, scalar_summary
from .errors import IndexOutOfRange, JacobiBandsError, PropertyViolation
from .floquet import tridiagonal_eigenvalues
from .polynomial import Poly, real_roots_in

# unit roundoff with headroom; used by the running error bound
_U = 2.3e-16

# Beyond this period the float discriminant at the knots is not trusted:
# build_discriminant only warns when a check fails, and band extraction
# falls back to stable evaluation with Floquet brackets.
TRUSTED_PERIOD = 30


@dataclass(frozen=True)
class TransferMatrix:
    """One-site transfer step [[(x - b_n)/a_n, -a_{n-1}/a_n], [1, 0]]."""

    entries: tuple[tuple[Poly, Poly], tuple[Poly, Poly]]


def transfer_matrix(c: PeriodicCoefficients, n: int) -> TransferMatrix:
    """Transfer step for 1-based site index n; a_0 wraps to a_p."""
    if not 1 <= n <= c.p:
        raise IndexOutOfRange(f"site index {n} outside 1..{c.p}")
    an = c.a[n - 1]
    a_prev = c.a[n - 2]  # n=1 wraps to a[p-1]
    bn = c.b[n - 1]
    return TransferMatrix(
        (
            (Poly([-bn / an, 1.0 / an]), Poly([-a_prev / an])),
            (Poly([1.0]), Poly([0.0])),
        )
    )


def _matmul(x, y):
    (x00, x01), (x10, x11) = x
    (y00, y01), (y10, y11) = y
    return (
        (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11),
        (x10 * y00 + x11 * y10, x10 * y01 + x11 * y11),
    )


@dataclass(frozen=True)
class DiscriminantData:
    """The operator plus the knots that split its spectrum into bands.

    knots are the p - 1 Dirichlet eigenvalues, sorted; knot_values holds
    `eval_discriminant_bounded` at each, as (value, error bound). The
    monomial expansion (delta, leading, critical_points: the roots of the
    derivative inside the padded Gershgorin interval, sorted; expanded_ok:
    whether the expansion passed its structural checks) is computed on
    first access; no pipeline stage reads it.
    """

    coeffs: PeriodicCoefficients
    knots: tuple[float, ...]
    knot_values: tuple[tuple[float, float], ...]

    @property
    def p(self) -> int:
        return self.coeffs.p

    @functools.cached_property
    def _expansion(self) -> tuple[Poly, float, tuple[float, ...], tuple[str, ...]]:
        return _expand(self.coeffs)

    @property
    def delta(self) -> Poly:
        return self._expansion[0]

    @property
    def leading(self) -> float:
        return self._expansion[1]

    @property
    def critical_points(self) -> tuple[float, ...]:
        return self._expansion[2]

    @property
    def expanded_ok(self) -> bool:
        return not self._expansion[3]


def search_interval(c: PeriodicCoefficients, pad_fraction: float = 0.01) -> tuple[float, float]:
    """Gershgorin interval padded by a fraction of its width.

    Every root of the discriminant and of discriminant +/- 2 lies strictly
    inside; the padding guarantees |trace| > 2 at both endpoints.
    """
    s = scalar_summary(c)
    pad = pad_fraction * (s.gershgorin_hi - s.gershgorin_lo)
    return s.gershgorin_lo - pad, s.gershgorin_hi + pad


def eval_discriminant_stable(c: PeriodicCoefficients, t: float) -> float:
    """Trace of the numeric transfer product at t, taken site p down to 1."""
    a, b = c.a, c.b
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for n in range(c.p):
        t00 = (t - b[n]) / a[n]
        t01 = -a[n - 1] / a[n]
        m00, m01, m10, m11 = (
            t00 * m00 + t01 * m10,
            t00 * m01 + t01 * m11,
            m00,
            m01,
        )
    return m00 + m11


def eval_discriminant_bounded(c: PeriodicCoefficients, t: float) -> tuple[float, float]:
    """Stable evaluation plus a running forward-error bound.

    The bound tracks |T|*E + u*|T|*|M| through the product and is used to
    decide when a critical value is indistinguishable from +/-2.
    """
    a, b = c.a, c.b
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    e00 = e01 = e10 = e11 = 0.0
    for n in range(c.p):
        t00 = (t - b[n]) / a[n]
        t01 = -a[n - 1] / a[n]
        at0, at1 = abs(t00), abs(t01)
        n00 = t00 * m00 + t01 * m10
        n01 = t00 * m01 + t01 * m11
        f00 = at0 * e00 + at1 * e10 + 4.0 * _U * (at0 * abs(m00) + at1 * abs(m10))
        f01 = at0 * e01 + at1 * e11 + 4.0 * _U * (at0 * abs(m01) + at1 * abs(m11))
        m00, m01, m10, m11 = n00, n01, m00, m01
        e00, e01, e10, e11 = f00, f01, e00, e01
    value = m00 + m11
    return value, e00 + e11 + _U * abs(value)


def eval_discriminant_slope(c: PeriodicCoefficients, t: float) -> tuple[float, float, float, float]:
    """(value, bound, slope, bound): D and D' at t by a forward-mode transfer product.

    Each step T = [[(t - b_n)/a_n, -a_{n-1}/a_n], [1, 0]] has the derivative
    T' = [[1/a_n, 0], [0, 0]], so the product's derivative follows
    (T M)' = T' M + T M' in the same loop. Both bounds are running
    forward-error bounds built like `eval_discriminant_bounded`'s; the one
    on D' also carries the error of M through T'.
    """
    a, b = c.a, c.b
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    d00 = d01 = d10 = d11 = 0.0
    e00 = e01 = e10 = e11 = 0.0
    f00 = f01 = f10 = f11 = 0.0
    for n in range(c.p):
        inv = 1.0 / a[n]
        t00 = (t - b[n]) / a[n]
        t01 = -a[n - 1] / a[n]
        ai, at0, at1 = abs(inv), abs(t00), abs(t01)
        n00 = t00 * m00 + t01 * m10
        n01 = t00 * m01 + t01 * m11
        s00 = inv * m00 + t00 * d00 + t01 * d10
        s01 = inv * m01 + t00 * d01 + t01 * d11
        g00 = at0 * e00 + at1 * e10 + 4.0 * _U * (at0 * abs(m00) + at1 * abs(m10))
        g01 = at0 * e01 + at1 * e11 + 4.0 * _U * (at0 * abs(m01) + at1 * abs(m11))
        h00 = ai * e00 + at0 * f00 + at1 * f10 + 5.0 * _U * (ai * abs(m00) + at0 * abs(d00) + at1 * abs(d10))
        h01 = ai * e01 + at0 * f01 + at1 * f11 + 5.0 * _U * (ai * abs(m01) + at0 * abs(d01) + at1 * abs(d11))
        m00, m01, m10, m11 = n00, n01, m00, m01
        d00, d01, d10, d11 = s00, s01, d00, d01
        e00, e01, e10, e11 = g00, g01, e00, e01
        f00, f01, f10, f11 = h00, h01, f00, f01
    value = m00 + m11
    slope = d00 + d11
    return value, e00 + e11 + _U * abs(value), slope, f00 + f11 + _U * abs(slope)


@functools.lru_cache(maxsize=4)
def _integer_form(c: PeriodicCoefficients) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(den, A, B) with a = A / den and b = B / den exactly.

    den is the lcm of the coefficients' denominators, a power of two for
    float entries. The cache is bounded: the exact callers work on one
    operator at a time, so a few entries suffice to convert each once.
    """
    ratios = [x.as_integer_ratio() for x in c.a + c.b]
    den = math.lcm(*(d for _, d in ratios))
    nums = [n * (den // d) for n, d in ratios]
    return den, tuple(nums[: c.p]), tuple(nums[c.p :])


@functools.lru_cache(maxsize=4)
def offdiag_product_exact(c: PeriodicCoefficients) -> Fraction:
    """Exact product of the off-diagonal floats as a rational, cached like `_integer_form`."""
    den, a, _ = _integer_form(c)
    return Fraction(math.prod(a), den**c.p)


def scaled_trace_exact(c: PeriodicCoefficients, t) -> tuple[int, int]:
    """Exact trace of the product of the cleared-denominator transfer steps.

    Each step (1/a_n) * [[t - b_n, -a_{n-1}], [a_n, 0]] contributes its
    1/a_n to a common prefactor, so this trace equals the discriminant
    times prod(a). With t = T/D and the operator's integer form over den,
    every step times L = lcm(den, D) is an integer matrix, so the product
    is an integer matrix over L^p. t may be a float, an int or any
    rational. Returns (numerator, denominator) with denominator L^p > 0,
    not reduced to lowest terms.
    """
    den, a_num, b_num = _integer_form(c)
    t = Fraction(t)
    scale = math.lcm(den, t.denominator)
    k = scale // den
    a_num = [x * k for x in a_num]
    b_num = [x * k for x in b_num]
    tn = t.numerator * (scale // t.denominator)
    m00, m01, m10, m11 = 1, 0, 0, 1
    for n in range(c.p):
        s00 = tn - b_num[n]
        s01 = -a_num[n - 1]
        an = a_num[n]
        m00, m01, m10, m11 = (
            s00 * m00 + s01 * m10,
            s00 * m01 + s01 * m11,
            an * m00,
            an * m01,
        )
    return m00 + m11, scale**c.p


def eval_discriminant_exact(c: PeriodicCoefficients, t) -> Fraction:
    """Exact rational discriminant value at a rational point t.

    Floats convert to exact dyadic rationals, so this is an arbitrary-
    precision oracle for the float paths. The work is p steps of integer
    multiplication on numbers of about p * log2(lcm of denominators) bits,
    plus one gcd to reduce the result and one division by the exact
    off-diagonal product.
    """
    return Fraction(*scaled_trace_exact(c, t)) / offdiag_product_exact(c)


def _residual(s, y: Fraction) -> tuple[int, int]:
    """s - y for a `scaled_trace_exact` pair s, as an unreduced pair over a positive denominator."""
    return s[0] * y.denominator - y.numerator * s[1], s[1] * y.denominator


def trace_side(s, y: Fraction, bound: Fraction = Fraction(0)) -> int:
    """Sign of s - y for a `scaled_trace_exact` pair s; 0 where |s - y| <= bound."""
    n, d = _residual(s, y)
    if abs(n) * bound.denominator <= bound.numerator * d:
        return 0
    return 1 if n > 0 else -1


def trace_ratio(s, y: Fraction) -> float:
    """s / y for a `scaled_trace_exact` pair s, correctly rounded to a float."""
    return s[0] * y.denominator / (s[1] * y.numerator)


def exact_root(f, y: Fraction, a: Fraction, b: Fraction, f_a, f_b, rtol=Fraction(0), wtol=Fraction(0)):
    """Solve f(t) = y exactly between dyadic a and b by Illinois regula falsi.

    f maps rationals to (numerator, positive denominator) integer pairs;
    f_a = f(a) and f_b = f(b) lie strictly on opposite sides of y, and
    y is a Fraction. Returns (t, f(t)) at the first secant point with
    |f(t) - y| <= rtol, or at the latest once the bracket is within wtol.
    Points are integers over a power of two, each rounded to a grid of 2^-k
    of the bracket (k the fewest bits for a step under 1/16 of the
    tolerance) and clamped strictly inside. A point on the side of the last
    one halves the residual of the end kept (Dowell & Jarratt, BIT 11, 1971).
    A bracket a few ulps wide is linear to many digits: one step meets rtol.
    """
    den = math.lcm(a.denominator, b.denominator)
    a, b = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    (na, da), (nb, db) = _residual(f_a, y), _residual(f_b, y)
    for _ in range(100):
        u, w = abs(na * db), abs(nb * da)  # the secant point is u / (u + w) of the way to b
        q = (16 * (u + w) * rtol.denominator // (da * db * rtol.numerator) if rtol
             else 16 * abs(b - a) * wtol.denominator // (den * wtol.numerator))
        k = max(q.bit_length(), 1)
        m = (a << k) + (b - a) * min(max((u << k) // (u + w), 1), (1 << k) - 1)
        a, b, den = a << k, b << k, den << k
        t = Fraction(m, den)
        v = f(t)
        nm, dm = _residual(v, y)
        if (nm > 0) == (nb > 0):
            da <<= 1
        else:
            a, na, da = b, nb, db
        b, nb, db = m, nm, dm
        if abs(nm) * rtol.denominator <= rtol.numerator * dm or abs(b - a) * wtol.denominator <= wtol.numerator * den:
            break
    return t, v


def dirichlet_eigenvalues(c: PeriodicCoefficients) -> tuple[float, ...]:
    """Eigenvalues of the operator with site 0 deleted, sorted.

    The remaining block is tridiagonal already: diagonal b_2..b_p,
    off-diagonal a_2..a_{p-1}.
    """
    return tridiagonal_eigenvalues(c.b[1:], c.a[1 : c.p - 1])


def gap_sign(p: int, j: int) -> float:
    """Sign of the discriminant on the j-th gap (1-based) of a period-p operator."""
    return 1.0 if (p - j) % 2 == 0 else -1.0


def build_discriminant(c: PeriodicCoefficients) -> DiscriminantData:
    """Dirichlet knots of the discriminant, checked against interlacing.

    At the j-th Dirichlet eigenvalue the discriminant must have the sign
    (-1)^(p-j) and |D| >= 2, each within the float error bound.

    Raises PropertyViolation when the check fails for p <= TRUSTED_PERIOD.
    For longer periods failures, and failures of the expanded
    discriminant's own checks, downgrade to a warning.
    """
    p = c.p
    knots = dirichlet_eigenvalues(c)
    values = tuple(eval_discriminant_bounded(c, x) for x in knots)
    problems: list[str] = []
    for j, (x, (value, err)) in enumerate(zip(knots, values), start=1):
        s = gap_sign(p, j)
        if s * value < 2.0 - (1e-9 + 4.0 * err):
            problems.append(
                f"D({x}) = {value} at Dirichlet eigenvalue {j} of {p - 1}; "
                f"expected sign {s:+.0f} and |D| >= 2"
            )
            break
    data = DiscriminantData(coeffs=c, knots=knots, knot_values=values)
    if p <= TRUSTED_PERIOD:
        if problems:
            raise PropertyViolation("; ".join(problems))
    else:
        problems.extend(data._expansion[3])
        if problems:
            message = "; ".join(problems)
            warnings.warn(f"expanded discriminant not trusted for p={p}: {message}", RuntimeWarning, stacklevel=2)
    return data


def _expand(c: PeriodicCoefficients) -> tuple[Poly, float, tuple[float, ...], tuple[str, ...]]:
    """Monomial expansion of the discriminant and its structural checks.

    Checks, each within float tolerance: degree equals p; leading
    coefficient equals 1/(a_1...a_p); p distinct real roots; |value| >= 2
    at every critical point. Returns (delta, leading coefficient,
    critical points, failed checks).
    """
    p = c.p
    prod = transfer_matrix(c, p).entries
    for n in range(p - 1, 0, -1):
        prod = _matmul(prod, transfer_matrix(c, n).entries)
    delta = prod[0][0] + prod[1][1]

    lo, hi = search_interval(c)
    root_tol = 1e-12 * max(1.0, hi - lo)

    problems: list[str] = []
    if delta.degree != p:
        problems.append(f"degree {delta.degree} != p = {p}")
    leading = delta.coeffs[-1]
    if leading <= 0.0:
        problems.append(f"leading coefficient {leading} not positive")
    else:
        # leading * prod(a) == 1, tested in log space to dodge overflow
        drift = math.expm1(math.log(leading) + math.fsum(math.log(x) for x in c.a))
        if abs(drift) > 1e-9:
            problems.append(f"leading coefficient drift {drift:.3e}")

    criticals: tuple[float, ...] = ()
    if not problems:
        try:
            roots = real_roots_in(delta, lo, hi, root_tol)
            if sum(r.multiplicity for r in roots) != p:
                problems.append(
                    f"found {sum(r.multiplicity for r in roots)} roots (with multiplicity), expected {p}"
                )
            elif len(roots) != p:
                # Root separation below float resolution; positions are still
                # good, so downstream checks (Floquet agreement) take over.
                warnings.warn(
                    f"{p - len(roots)} near-coincident discriminant roots merged at float resolution",
                    RuntimeWarning,
                    stacklevel=2,
                )
            if p >= 2:
                crit_roots = real_roots_in(delta.derivative(), lo, hi, root_tol)
                criticals = tuple(r.value for r in crit_roots)
                if len(criticals) != p - 1:
                    problems.append(f"{len(criticals)} critical points, expected {p - 1}")
                else:
                    for x in criticals:
                        value, err = eval_discriminant_bounded(c, x)
                        if abs(value) < 2.0 - (1e-9 + 4.0 * err):
                            problems.append(f"|D({x})| = {abs(value)} < 2 beyond tolerance")
                            break
        except JacobiBandsError as exc:
            problems.append(f"root isolation failed: {exc}")
    return delta, leading, criticals, tuple(problems)


def chebyshev_scale(c: PeriodicCoefficients) -> float:
    """Product a_1...a_p; multiplying the discriminant by this makes it monic."""
    return offdiag_product(c)
