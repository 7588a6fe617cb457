"""Discriminant of a periodic Jacobi operator.

The discriminant D is the trace of the one-period transfer-matrix
product, a degree-p polynomial in the spectral parameter. The band
pipeline never expands it: it evaluates D stably through the 2x2 matrix
product, and takes its knots from the Floquet eigenvalues
(`floquet.band_edges_oracle`), the solutions of D = +2 and D = -2. The
j-th gap runs between eigenvalues j - 1 and j of its sign, where D has
the sign (-1)^(p-j) and |D| >= 2 (van Moerbeke, Invent. Math. 37, 1976),
so their midpoint is a point of its closure, and the p - 1 midpoints cut
the line into p pieces holding one band each. No stage expands D in the
monomial basis, which is ill-conditioned from p of about 20 on. An exact
rational evaluator backs up the float path where cancellation would
otherwise dominate.

Three float evaluators run the product. `eval_discriminant` gives D and
`eval_discriminant_and_slope` gives D and D' (forward mode); the Newton
edge solves and the edge values of `potential` call these.
`eval_discriminant_bounded` repeats the same float operations in the
same order, so its value is the same bit for bit, and adds a running
forward-error bound. Only the callers that read a bound call it: the
knot check of `build_discriminant`, whose bounds the touch decision of
`bands.band_structure` reads as well, and the steep-edge certificate of
`potential._crossing_certified`.

The exact evaluator works in integers. Every float coefficient is a dyadic
rational, so one operator converts once to integer numerators over a
common denominator, with the squares of the off-diagonal ones and their
product; that conversion is the one cache. A point t = T/D joins that
denominator through an lcm, and the cleared-denominator transfer product
then runs in plain int arithmetic, each step conjugated so that it costs
four multiplies: no Fraction and no gcd inside the loop. The result is D
itself as one unreduced integer quotient N / Q, Q > 0 the product of the
cleared off-diagonal numerators.
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
from .floquet import band_edges_oracle

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

    floquet_eigenvalues is the (plus, minus) pair of `band_edges_oracle`.
    knots holds, per gap, the midpoint of its two eigenvalues of the
    gap's sign; knot_values holds `eval_discriminant_bounded` at each, as
    (value, error bound). summary is the operator's `scalar_summary`,
    computed once for every stage.
    """

    coeffs: PeriodicCoefficients
    summary: ScalarSummary
    knots: tuple[float, ...]
    knot_values: tuple[tuple[float, float], ...]
    floquet_eigenvalues: tuple[tuple[float, ...], tuple[float, ...]]

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

    The bound tracks E' = |T|*E + 4u*|T|*|M| through the product and is
    used to decide when a value is indistinguishable from +/-2. It carries
    W = E + 4u*|M| in one pass: a step is F = |T|*W, the new top row of
    E, and W's top row becomes F + 4u*|N| for the new top row N of M.
    The bottom rows of M, E and W are their previous top rows, so they
    carry over. Since a > 0, |t01| is q = a_{n-1}/a_n, and t00*m - q*m'
    equals t00*m + t01*m' with t01 = -q bit for bit, so D is the value of
    `eval_discriminant`. The bound is the trace of the final E plus u*|D|.
    """
    a, b = c.a, c.b
    u4 = 4.0 * _U
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    w00, w01, w10, w11 = u4, 0.0, 0.0, u4
    f00 = f01 = 0.0
    prev = a[-1]
    for an, bn in zip(a, b):
        t00 = (t - bn) / an
        q = prev / an
        prev = an
        m00, m01, m10, m11 = t00 * m00 - q * m10, t00 * m01 - q * m11, m00, m01
        at0 = abs(t00)
        e11 = f01
        f00, f01 = at0 * w00 + q * w10, at0 * w01 + q * w11
        w00, w01, w10, w11 = f00 + u4 * abs(m00), f01 + u4 * abs(m01), w00, w01
    value = m00 + m11
    return value, f00 + e11 + _U * abs(value)


def eval_discriminant_and_slope(c: PeriodicCoefficients, t: float) -> tuple[float, float]:
    """(value, slope): D and D' at t by a forward-mode transfer product.

    Each step T = [[(t - b_n)/a_n, -a_{n-1}/a_n], [1, 0]] has the derivative
    T' = [[1/a_n, 0], [0, 0]], so the product's derivative follows
    (T M)' = T' M + T M' in the same loop; D takes the same float
    operations in the same order as `eval_discriminant`.
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


@functools.lru_cache(maxsize=4)
def _integer_form(c: PeriodicCoefficients) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """(den, B, S, Q) with b = B / den exactly and, for A = a * den,
    S[n] = A[n - 1]^2 (S[0] = A[p - 1]^2 closes the ring) and Q = prod(A).

    den is the lcm of the coefficients' denominators, a power of two for
    float entries. The cache is bounded: the exact callers work on one
    operator at a time, so a few entries suffice to convert each once.
    """
    ratios = [x.as_integer_ratio() for x in c.a + c.b]
    den = math.lcm(*(d for _, d in ratios))
    nums = [n * (den // d) for n, d in ratios]
    a_num = nums[: c.p]
    squares = tuple(a_num[n - 1] * a_num[n - 1] for n in range(c.p))
    return den, tuple(nums[c.p :]), squares, math.prod(a_num)


def scaled_trace_exact(c: PeriodicCoefficients, t) -> tuple[int, int]:
    """Exact discriminant at t as an unreduced integer quotient (N, Q): D(t) = N / Q.

    Each step (1/a_n) * [[t - b_n, -a_{n-1}], [a_n, 0]] contributes its
    1/a_n to a common prefactor. With t = T/D and the operator's integer
    form over den, every step times L = lcm(den, D) is the integer matrix
    S_n = [[T' - B_n, -A_{n-1}], [A_n, 0]] with A_n = L * a_n, so the
    trace N of the integer product over Q = prod(A_n) > 0 is D. Since
    S_n = diag(1, A_n) [[T' - B_n, -A_{n-1}^2], [1, 0]] diag(1, 1/A_{n-1})
    and A_{-1} = A_{p-1} closes the ring, the product of the middle
    factors is similar to that of the S_n and has the same trace N. Its
    bottom row is the previous top row, so a step takes four big-int
    multiplies where S_n takes six.

    t may be a float or any rational (`numbers.Rational`): a float's ratio
    comes from `as_integer_ratio`, any other's from its numerator and
    denominator, with no Fraction built. Against an int target the sign of
    D - target is the sign of N - target * Q, and its float is
    (N - target * Q) / Q, rounded once by int division.
    """
    den, b_num, squares, q = _integer_form(c)
    tn, td = t.as_integer_ratio() if isinstance(t, float) else (t.numerator, t.denominator)
    if den % td:
        # the point's denominator joins the operator's: rescale by k
        scale = math.lcm(den, td)
        k = scale // den
        tn *= scale // td
        b_num = [x * k for x in b_num]
        squares = [x * k * k for x in squares]
        q *= k**c.p
    else:
        tn *= den // td
    m00, m01, m10, m11 = 1, 0, 0, 1
    for bn, sq in zip(b_num, squares):
        s = tn - bn
        m00, m01, m10, m11 = s * m00 - sq * m10, s * m01 - sq * m11, m00, m01
    return m00 + m11, q


def eval_discriminant_exact(c: PeriodicCoefficients, t) -> Fraction:
    """Exact rational discriminant value at a rational point t.

    Floats convert to exact dyadic rationals, so this is an arbitrary-
    precision oracle for the float paths: `scaled_trace_exact` reduced
    by one gcd.
    """
    return Fraction(*scaled_trace_exact(c, t))


def gap_sign(p: int, j: int) -> int:
    """Sign of the discriminant on the j-th gap (1-based) of a period-p operator: 1 or -1."""
    return 1 if (p - j) % 2 == 0 else -1


def build_discriminant(c: PeriodicCoefficients) -> DiscriminantData:
    """Knots of the discriminant at the Floquet gap midpoints, checked against interlacing.

    Knot j is the midpoint of gap j's two Floquet eigenvalues of its sign,
    j - 1 and j (1-based). There the discriminant must have the sign
    (-1)^(p-j) and |D| >= 2, each within the float error bound.

    Raises NonFiniteEntry when a field of the operator's `scalar_summary`
    or the sum of its Gershgorin ends (twice the midpoint where an edge
    solve starts) is not finite, the off-diagonal product leaves the
    normal float range, or a knot's value or error bound is not finite,
    PropertyViolation at the first knot that fails, at every period, and
    NonConvergence when the oracle's QL iterations do not converge.
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
    plus, minus = eigenvalues = band_edges_oracle(c)
    knots = []
    for j in range(1, p):
        same = plus if gap_sign(p, j) > 0 else minus
        knots.append(0.5 * (same[j - 1] + same[j]))
    values = tuple(eval_discriminant_bounded(c, x) for x in knots)
    for j, (x, (value, err)) in enumerate(zip(knots, values), start=1):
        if not (math.isfinite(value) and math.isfinite(err)):
            raise NonFiniteEntry(
                f"D({x}) = {value} (error bound {err}) at knot {j} of {p - 1} is beyond the float range"
            )
        s = gap_sign(p, j)
        if s * value < 2.0 - (1e-9 + 4.0 * err):
            raise PropertyViolation(
                f"D({x}) = {value} at knot {j} of {p - 1}; expected sign {s:+.0f} and |D| >= 2"
            )
    return DiscriminantData(
        coeffs=c, summary=summary, knots=tuple(knots), knot_values=values, floquet_eigenvalues=eigenvalues
    )
