"""Discriminant of a periodic Jacobi operator.

The discriminant D is the trace of the one-period transfer-matrix
product, a degree-p polynomial in the spectral parameter. The band
pipeline never expands it: it evaluates D stably through the 2x2 matrix
product, and takes its knots from the Dirichlet eigenvalues, the
eigenvalues of the operator with site 0 deleted. By Cauchy interlacing
the j-th of these p - 1 values lies in the closure of the j-th gap,
where D has the sign (-1)^(p-j) and |D| >= 2 (van Moerbeke, Invent.
Math. 37, 1976), so they cut the line into p pieces holding one band
each. No stage expands D in the monomial basis, which is ill-conditioned
from p of about 20 on. An exact rational evaluator backs up the float
path where cancellation would otherwise dominate.

Four float evaluators run the product. `eval_discriminant` gives D and
`eval_discriminant_and_slope` gives D and D' (forward mode); the Newton
edge solves, the critical-point search and the edge values of
`potential` call these. `eval_discriminant_bounded`
and `eval_discriminant_slope` repeat the same float operations in the
same order, so their values are the same bit for bit, and add running
forward-error bounds. Only the callers that read a bound call them: the
knot check of `build_discriminant`, the knot arbitration of
`bands._gap_knot` and the steep-edge certificate of
`potential._crossing_certified`.

The exact evaluator works in integers. Every float coefficient is a dyadic
rational, so one operator converts once to integer numerators over a
common denominator; that conversion is the one cache. A point t = T/D
joins that denominator through an lcm, and the cleared-denominator
transfer product then runs in plain int arithmetic: no Fraction and no
gcd inside the loop. The result is D itself as one unreduced integer
quotient N / Q, Q > 0 the product of the cleared off-diagonal numerators.
Reducing it costs a gcd on the full-size numerator, and no caller needs
that: against an int target, the exact side is the sign of the int
N - target * Q, and the edge solves of `bands` beside a flat gap take
that int over Q, rounded to a float once.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .coefficients import PeriodicCoefficients, ScalarSummary, scalar_summary
from .errors import NonFiniteEntry, PropertyViolation
from .floquet import tridiagonal_eigenvalues

# unit roundoff with headroom; used by the running error bound
_U = 2.3e-16

# Range of the log of the off-diagonal product: beyond it the product is not a normal float.
_LOG_FLOAT_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))

# Each end of the search interval lies this fraction of the Gershgorin
# width beyond it.
_SEARCH_PAD = 0.01

# Bound by name only for the ("jacobibands.discriminant", "real_roots_in")
# entry of perfbench/tracing.py TARGETS, which `Tracer.install` looks up;
# nothing calls it, so its "polynomial" span never opens.
real_roots_in = None


@dataclass(frozen=True)
class DiscriminantData:
    """The operator plus the knots that split its spectrum into bands.

    knots are the p - 1 Dirichlet eigenvalues, sorted; knot_values holds
    `eval_discriminant_bounded` at each, as (value, error bound). summary
    is the operator's `scalar_summary`, computed once for every stage.
    """

    coeffs: PeriodicCoefficients
    summary: ScalarSummary
    knots: tuple[float, ...]
    knot_values: tuple[tuple[float, float], ...]

    @property
    def p(self) -> int:
        return self.coeffs.p


def search_interval(s: ScalarSummary) -> tuple[float, float]:
    """Gershgorin interval of an operator's summary, padded by `_SEARCH_PAD` of its width.

    Every root of the discriminant and of discriminant +/- 2 lies strictly
    inside; the padding guarantees |trace| > 2 at both endpoints.
    """
    pad = _SEARCH_PAD * (s.gershgorin_hi - s.gershgorin_lo)
    return s.gershgorin_lo - pad, s.gershgorin_hi + pad


def eval_discriminant(c: PeriodicCoefficients, t: float) -> float:
    """Trace of the numeric transfer product at t, taken site p down to 1.

    The same float operations in the same order as
    `eval_discriminant_bounded`, so the value is the same bit for bit,
    without the running error bound.
    """
    a, b = c.a, c.b
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    prev = a[-1]
    for an, bn in zip(a, b):
        t00 = (t - bn) / an
        t01 = -prev / an
        prev = an
        m00, m01, m10, m11 = t00 * m00 + t01 * m10, t00 * m01 + t01 * m11, m00, m01
    return m00 + m11


def eval_discriminant_bounded(c: PeriodicCoefficients, t: float) -> tuple[float, float]:
    """`eval_discriminant` at t with a running error bound.

    The bound tracks |T|*E + u*|T|*|M| through the product and is used to
    decide when a value is indistinguishable from +/-2. The bottom row of
    M is the previous top row, so its magnitudes carry over from the
    previous step.
    """
    a, b = c.a, c.b
    u4 = 4.0 * _U
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    am00, am01, am10, am11 = 1.0, 0.0, 0.0, 1.0
    e00 = e01 = e10 = e11 = 0.0
    prev = a[-1]
    for an, bn in zip(a, b):
        t00 = (t - bn) / an
        t01 = -prev / an
        prev = an
        at0, at1 = abs(t00), abs(t01)
        n00 = t00 * m00 + t01 * m10
        n01 = t00 * m01 + t01 * m11
        f00 = at0 * e00 + at1 * e10 + u4 * (at0 * am00 + at1 * am10)
        f01 = at0 * e01 + at1 * e11 + u4 * (at0 * am01 + at1 * am11)
        m00, m01, m10, m11 = n00, n01, m00, m01
        am00, am01, am10, am11 = abs(n00), abs(n01), am00, am01
        e00, e01, e10, e11 = f00, f01, e00, e01
    value = m00 + m11
    return value, e00 + e11 + _U * abs(value)


def eval_discriminant_and_slope(c: PeriodicCoefficients, t: float) -> tuple[float, float]:
    """(value, slope): D and D' at t by a forward-mode transfer product.

    Each step T = [[(t - b_n)/a_n, -a_{n-1}/a_n], [1, 0]] has the derivative
    T' = [[1/a_n, 0], [0, 0]], so the product's derivative follows
    (T M)' = T' M + T M' in the same loop. The same float operations in
    the same order as `eval_discriminant_slope`, without its bounds.
    """
    a, b = c.a, c.b
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    d00 = d01 = d10 = d11 = 0.0
    prev = a[-1]
    for an, bn in zip(a, b):
        inv = 1.0 / an
        t00 = (t - bn) / an
        t01 = -prev / an
        prev = an
        s00 = inv * m00 + t00 * d00 + t01 * d10
        s01 = inv * m01 + t00 * d01 + t01 * d11
        m00, m01, m10, m11 = t00 * m00 + t01 * m10, t00 * m01 + t01 * m11, m00, m01
        d00, d01, d10, d11 = s00, s01, d00, d01
    return m00 + m11, d00 + d11


def eval_discriminant_slope(c: PeriodicCoefficients, t: float) -> tuple[float, float, float, float]:
    """(value, bound, slope, bound): `eval_discriminant_and_slope` with error bounds.

    Both bounds are running forward-error bounds built like
    `eval_discriminant_bounded`'s; the one on D' also carries the error of
    M through T'. Magnitudes of the bottom rows of M and M' carry over
    from the previous step.
    """
    a, b = c.a, c.b
    u4, u5 = 4.0 * _U, 5.0 * _U
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    am00, am01, am10, am11 = 1.0, 0.0, 0.0, 1.0
    d00 = d01 = d10 = d11 = 0.0
    ad00 = ad01 = ad10 = ad11 = 0.0
    e00 = e01 = e10 = e11 = 0.0
    f00 = f01 = f10 = f11 = 0.0
    prev = a[-1]
    for an, bn in zip(a, b):
        inv = 1.0 / an
        t00 = (t - bn) / an
        t01 = -prev / an
        prev = an
        ai, at0, at1 = abs(inv), abs(t00), abs(t01)
        n00 = t00 * m00 + t01 * m10
        n01 = t00 * m01 + t01 * m11
        s00 = inv * m00 + t00 * d00 + t01 * d10
        s01 = inv * m01 + t00 * d01 + t01 * d11
        g00 = at0 * e00 + at1 * e10 + u4 * (at0 * am00 + at1 * am10)
        g01 = at0 * e01 + at1 * e11 + u4 * (at0 * am01 + at1 * am11)
        h00 = ai * e00 + at0 * f00 + at1 * f10 + u5 * (ai * am00 + at0 * ad00 + at1 * ad10)
        h01 = ai * e01 + at0 * f01 + at1 * f11 + u5 * (ai * am01 + at0 * ad01 + at1 * ad11)
        m00, m01, m10, m11 = n00, n01, m00, m01
        am00, am01, am10, am11 = abs(n00), abs(n01), am00, am01
        d00, d01, d10, d11 = s00, s01, d00, d01
        ad00, ad01, ad10, ad11 = abs(s00), abs(s01), ad00, ad01
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


def scaled_trace_exact(c: PeriodicCoefficients, t) -> tuple[int, int]:
    """Exact discriminant at t as an unreduced integer quotient (N, Q): D(t) = N / Q.

    Each step (1/a_n) * [[t - b_n, -a_{n-1}], [a_n, 0]] contributes its
    1/a_n to a common prefactor. With t = T/D and the operator's integer
    form over den, every step times L = lcm(den, D) is an integer matrix
    whose off-diagonal numerator is A_n = L * a_n, so the trace N of the
    integer product over Q = prod(A_n) > 0 is D. t may be a float, an int
    or any rational. Against an int target the sign of D - target is the
    sign of N - target * Q, and its float is (N - target * Q) / Q,
    rounded once by int division.
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
    return m00 + m11, math.prod(a_num)


def eval_discriminant_exact(c: PeriodicCoefficients, t) -> Fraction:
    """Exact rational discriminant value at a rational point t.

    Floats convert to exact dyadic rationals, so this is an arbitrary-
    precision oracle for the float paths: `scaled_trace_exact` reduced
    by one gcd.
    """
    return Fraction(*scaled_trace_exact(c, t))


def dirichlet_eigenvalues(c: PeriodicCoefficients) -> tuple[float, ...]:
    """Eigenvalues of the operator with site 0 deleted, sorted.

    The remaining block is tridiagonal already: diagonal b_2..b_p,
    off-diagonal a_2..a_{p-1}.
    """
    return tridiagonal_eigenvalues(c.b[1:], c.a[1 : c.p - 1])


def gap_sign(p: int, j: int) -> int:
    """Sign of the discriminant on the j-th gap (1-based) of a period-p operator: 1 or -1."""
    return 1 if (p - j) % 2 == 0 else -1


def build_discriminant(c: PeriodicCoefficients) -> DiscriminantData:
    """Dirichlet knots of the discriminant, checked against interlacing.

    At the j-th Dirichlet eigenvalue the discriminant must have the sign
    (-1)^(p-j) and |D| >= 2, each within the float error bound.

    Raises NonFiniteEntry when a field of the operator's `scalar_summary`
    or the sum of its Gershgorin ends (twice the midpoint where an edge
    solve starts) is not finite, the off-diagonal product leaves the
    normal float range, or a knot's value or error bound is not finite,
    and PropertyViolation at the first knot that fails, at every period.
    """
    summary = scalar_summary(c)
    checked = {**vars(summary), "gershgorin_lo + gershgorin_hi": summary.gershgorin_lo + summary.gershgorin_hi}
    for name, value in checked.items():
        if not math.isfinite(value):
            raise NonFiniteEntry(f"{name} = {value} is beyond the float range")
    log_product = math.fsum(math.log(x) for x in c.a)
    if not _LOG_FLOAT_RANGE[0] <= log_product <= _LOG_FLOAT_RANGE[1]:
        raise NonFiniteEntry(f"off-diagonal product exp({log_product:.6g}) is beyond the float range")
    p = c.p
    knots = dirichlet_eigenvalues(c)
    values = tuple(eval_discriminant_bounded(c, x) for x in knots)
    for j, (x, (value, err)) in enumerate(zip(knots, values), start=1):
        if not (math.isfinite(value) and math.isfinite(err)):
            raise NonFiniteEntry(
                f"D({x}) = {value} (error bound {err}) at Dirichlet eigenvalue {j} of {p - 1} "
                "is beyond the float range"
            )
        s = gap_sign(p, j)
        if s * value < 2.0 - (1e-9 + 4.0 * err):
            raise PropertyViolation(
                f"D({x}) = {value} at Dirichlet eigenvalue {j} of {p - 1}; "
                f"expected sign {s:+.0f} and |D| >= 2"
            )
    return DiscriminantData(coeffs=c, summary=summary, knots=knots, knot_values=values)
