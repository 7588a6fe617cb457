"""One period of Jacobi coefficients and the scalar quantities derived from it.

A period-p operator is described by p positive off-diagonal entries ``a``
and p real diagonal entries ``b``. Everything downstream (discriminant,
bands, bounds) is a function of these two tuples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import LengthMismatch, NonFiniteEntry, NonPositiveOffDiagonal


@dataclass(frozen=True)
class PeriodicCoefficients:
    """Validated coefficients over one period. Immutable.

    ``a[n]`` couples sites n and n+1; indices wrap with period p, so the
    entry "before" a[0] is a[p-1].
    """

    a: tuple[float, ...]
    b: tuple[float, ...]

    @property
    def p(self) -> int:
        return len(self.a)

    def rotated(self, k: int) -> "PeriodicCoefficients":
        """Cyclic shift of both sequences by k positions."""
        k %= self.p
        return PeriodicCoefficients(self.a[k:] + self.a[:k], self.b[k:] + self.b[:k])

    def scaled(self, factor: float) -> "PeriodicCoefficients":
        """(a, b) -> (factor*a, factor*b); factor must be positive."""
        if not (factor > 0.0):
            raise NonPositiveOffDiagonal(f"scale factor must be positive, got {factor}")
        return new_periodic([factor * x for x in self.a], [factor * x for x in self.b])

    def shifted(self, t: float) -> "PeriodicCoefficients":
        """b -> b + t, leaving a unchanged."""
        return new_periodic(self.a, [x + t for x in self.b])


@dataclass(frozen=True)
class ScalarSummary:
    """Scalars computed directly from one period of coefficients.

    log_offdiag_product  log of the product of the off-diagonal entries
    geom_mean_a          geometric mean of the off-diagonal entries
    diag_spread          max(b) - min(b)
    gershgorin_lo/hi     endpoints of the Gershgorin enclosure of the spectrum
    gershgorin_spread    max of the two one-sided Gershgorin/diagonal spreads
    """

    log_offdiag_product: float
    geom_mean_a: float
    min_a: float
    max_a: float
    diag_spread: float
    gershgorin_lo: float
    gershgorin_hi: float
    gershgorin_spread: float


def new_periodic(a, b) -> PeriodicCoefficients:
    """Validate raw sequences and build a PeriodicCoefficients value.

    Raises LengthMismatch, NonPositiveOffDiagonal or NonFiniteEntry (an
    integer beyond the float range included).
    """
    try:
        a = tuple(float(x) for x in a)
        b = tuple(float(x) for x in b)
    except OverflowError as exc:
        raise NonFiniteEntry(f"coefficient beyond the float range: {exc}") from None
    if len(a) == 0 or len(a) != len(b):
        raise LengthMismatch(f"need equal nonempty sequences, got len(a)={len(a)}, len(b)={len(b)}")
    for x in a + b:
        if not math.isfinite(x):
            raise NonFiniteEntry(f"non-finite coefficient {x!r}")
    for n, x in enumerate(a):
        if not (x > 0.0):
            raise NonPositiveOffDiagonal(f"a[{n}] = {x} must be strictly positive")
    return PeriodicCoefficients(a, b)


def scalar_summary(c: PeriodicCoefficients) -> ScalarSummary:
    """Compute all scalar invariants of one period.

    The off-diagonal product is kept as its log, summed once, so that very
    long periods neither overflow nor underflow; the geometric mean is
    taken from it.
    """
    p = c.p
    log_product = math.fsum(math.log(x) for x in c.a)
    # Gershgorin rows: b[n] +/- (a[n] + a[n-1]) with the wrap a[-1] = a[p-1].
    lo_rows = [c.b[n] - c.a[n] - c.a[n - 1] for n in range(p)]
    hi_rows = [c.b[n] + c.a[n] + c.a[n - 1] for n in range(p)]
    g_lo = min(lo_rows)
    g_hi = max(hi_rows)
    spread = max(max(hi_rows) - min(c.b), max(c.b) - min(lo_rows))
    return ScalarSummary(
        log_offdiag_product=log_product,
        geom_mean_a=math.exp(log_product / p),
        min_a=min(c.a),
        max_a=max(c.a),
        diag_spread=max(c.b) - min(c.b),
        gershgorin_lo=g_lo,
        gershgorin_hi=g_hi,
        gershgorin_spread=spread,
    )


def load_operator(path) -> PeriodicCoefficients:
    """Read an operator from a JSON file of the form {"a": [...], "b": [...]}.

    Integer literals parse as floats, so one beyond the float range, of
    any length, is +/-inf and raises NonFiniteEntry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh, parse_int=float)
    return parse_operator(payload)


def parse_operator(payload) -> PeriodicCoefficients:
    """Build coefficients from a decoded {"a": [...], "b": [...]} object.

    Raises LengthMismatch unless "a" and "b" are arrays, and NonFiniteEntry
    for an entry that is not a number (strings and booleans included).
    """
    if not isinstance(payload, dict) or "a" not in payload or "b" not in payload:
        raise LengthMismatch('operator JSON must be an object with keys "a" and "b"')
    for key in ("a", "b"):
        if not isinstance(payload[key], list):
            raise LengthMismatch(f'operator JSON "{key}" must be an array, got {payload[key]!r}')
        for n, x in enumerate(payload[key]):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise NonFiniteEntry(f"{key}[{n}] = {x!r} is not a number")
    return new_periodic(payload["a"], payload["b"])
