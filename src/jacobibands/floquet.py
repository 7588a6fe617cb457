"""Independent band-edge oracle via Floquet boundary conditions.

Imposing periodic (phase 0) or antiperiodic (phase pi) boundary conditions
over one period reduces the operator to a real symmetric p x p matrix whose
eigenvalues are exactly the solutions of discriminant = +2 and -2. That
matrix is tridiagonal apart from the wrap entry +/-a_p in its corners.
This module folds the ring so that the matrix is a band of width 2,
chases it down to tridiagonal form with plane rotations, and finds the
eigenvalues with implicit QL iterations.

The band path calls `band_edges_oracle` once per operator, in
`discriminant.build_discriminant`: the knots are the midpoints of its
gaps, each edge solve starts at its eigenvalue, and a band beside an open
gap whose two eigenvalues nearly coincide solves on the exact residual.
So the knots, the seeds and the oracle comparison of `ensemble.run_trial`
all rest on these eigenvalues, and a wrong one is caught by the sign of
D: at a knot moved into a band the knot check or the exact touch
decision of `bands` fails, and otherwise the edges, solved as the roots
of D = +/-2 between the knots, fail the oracle comparison. Set to 0,
shifted by 1e-6 or eigenvalue k moved by 1e-3 * k, every one of the first
300 seed-42 operators of each benchmark workload fails the discriminant
or the oracle family first, and none passes. A fault in the QL kernel
shows the same way.
"""

from __future__ import annotations

import math

from .coefficients import PeriodicCoefficients
from .errors import NonConvergence

# An off-diagonal counts as zero once it is at most this times the summed
# magnitudes of its two neighbouring diagonal entries.
_DEFLATE_RTOL = 1e-13

# QL steps per eigenvalue before NonConvergence; symmetric input deflates
# in about two.
_QL_BUDGET = 100


def tridiagonal_eigenvalues(d, e) -> tuple[float, ...]:
    """All eigenvalues, sorted ascending, of the symmetric tridiagonal matrix
    with diagonal d and off-diagonal e (e[i] couples i and i + 1, so
    len(e) == len(d) - 1).

    QL iterations with Wilkinson shifts (EISPACK tql1; Bowdler, Martin,
    Reinsch & Wilkinson, Numer. Math. 11, 1968) deflate the matrix one
    eigenvalue at a time, at `_DEFLATE_RTOL`. NonConvergence is raised
    when an eigenvalue takes more than `_QL_BUDGET` steps.
    """
    d = list(d)
    e = [*e, 0.0][: len(d)]
    _implicit_ql(d, e)
    return tuple(sorted(d))


def _folded_tridiagonal(c: PeriodicCoefficients, sign: float) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of a tridiagonal matrix similar to the
    Floquet matrix of c with wrap entry sign * a_p (+1 periodic, -1
    antiperiodic).

    Site i goes to row min(2i, 2(p - i) - 1), which orders the ring
    0, p-1, 1, p-2, 2, ...: every ring neighbour then lies within two
    rows, and the matrix is pentadiagonal. The wrap adds to the one
    off-diagonal for p = 2 and twice to the diagonal for p = 1. A plane
    rotation in rows (r - 1, r) zeroes each entry two below the diagonal
    and leaves one three below it, two rows further down, which the next
    rotation chases off the end (Schwarz, Numer. Math. 12, 1968; EISPACK
    bandr). A rotation touches rows and columns r - 3..r + 2 only, and no
    update sums more than two terms, so the result does not depend on the
    Python version.
    """
    p = c.p
    row = [min(2 * i, 2 * (p - i) - 1) for i in range(p)]
    m = [[0.0] * p for _ in range(p)]
    for i in range(p):
        x, y = row[i], row[(i + 1) % p]
        w = c.a[i] if i < p - 1 else sign * c.a[i]
        m[x][x] += c.b[i]
        m[x][y] += w
        m[y][x] += w
    hypot = math.hypot
    for k in range(p - 2):
        r, col = k + 2, k
        while r < p:
            top, bottom = m[r - 1], m[r]
            x, y = top[col], bottom[col]
            if y == 0.0:
                break
            h = hypot(x, y)
            cs, sn = x / h, y / h
            window = range(max(r - 3, 0), min(r + 3, p))
            for j in window:
                u, v = top[j], bottom[j]
                top[j], bottom[j] = cs * u + sn * v, cs * v - sn * u
            for j in window:
                mj = m[j]
                u, v = mj[r - 1], mj[r]
                mj[r - 1], mj[r] = cs * u + sn * v, cs * v - sn * u
            bottom[col] = m[col][r] = 0.0
            r, col = r + 2, r - 1
    return [m[i][i] for i in range(p)], [m[i + 1][i] for i in range(p - 1)]


def _implicit_ql(d: list[float], e: list[float]) -> None:
    """Eigenvalues of the tridiagonal (d, e) into d, in place.

    Each QL step on the unreduced block [l, m] takes the Wilkinson shift
    from its leading 2 x 2 submatrix and chases the bulge down with plane
    rotations.
    """
    hypot, copysign = math.hypot, math.copysign
    tol, budget = _DEFLATE_RTOL, _QL_BUDGET
    n = len(d)
    for l in range(n):
        steps = 0
        while True:
            m = l
            dm = abs(d[m])
            while m < n - 1:
                dn = abs(d[m + 1])
                if not abs(e[m]) > tol * (dm + dn):
                    break
                m += 1
                dm = dn
            if m == l:
                break
            if steps == budget:
                raise NonConvergence(
                    f"QL iteration did not converge in {budget} steps for eigenvalue {l}"
                )
            steps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            below = d[m]  # d[i + 1], carried from one step to the next
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # underflow: the block splits at i + 1
                    d[i + 1] = below - p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = below - p
                below = d[i]
                r = (below - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def band_edges_oracle(c: PeriodicCoefficients) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Band edges as Floquet eigenvalues.

    Returns (edges at phase 0, edges at phase pi): the multisets of
    solutions of discriminant = +2 and = -2, each of size p, sorted.
    """
    plus = tridiagonal_eigenvalues(*_folded_tridiagonal(c, 1.0))
    minus = tridiagonal_eigenvalues(*_folded_tridiagonal(c, -1.0))
    return plus, minus
