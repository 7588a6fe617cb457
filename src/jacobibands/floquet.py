"""Independent band-edge oracle via Floquet boundary conditions.

Imposing periodic (phase 0) or antiperiodic (phase pi) boundary conditions
over one period reduces the operator to a real symmetric p x p matrix whose
eigenvalues are exactly the solutions of discriminant = +2 and -2. That
matrix is tridiagonal apart from the wrap entry +/-a_p in its corners.
This module folds the ring so that the matrix is a band of width 2,
held in O(p) band storage, chases it down to tridiagonal form with plane
rotations, and finds the eigenvalues with implicit QL iterations.

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
or the oracle family first (the discriminant family in 81, 583 and 300
of the 600), and none passes. A fault in the QL kernel shows the same
way.
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
    bandr).

    The symmetric matrix is held in O(p) floats: its diagonal d, its
    first and second subdiagonals e1 and e2 (e1[j] couples rows j + 1
    and j, e2[j] rows j + 2 and j), and its third subdiagonal, which
    holds at most the one bulge, as a scalar. Each rotation is one
    symmetric update of the entries it changes: the 2 x 2 block on rows
    r - 1, r in closed form, the pair it zeroes, the one pair left of the
    block in a chase step, and the two pairs below it, one of which
    becomes the next bulge. Every update is plain IEEE arithmetic with
    sums of at most three terms, in a fixed order and with no `sum` or
    `fsum`, so the result does not depend on the Python version.
    """
    p = c.p
    a, b = c.a, c.b
    row = [min(2 * i, 2 * (p - i) - 1) for i in range(p)]
    d = [0.0] * p
    e1 = [0.0] * (p - 1)
    e2 = [0.0] * max(p - 2, 0)
    diagonals = (d, e1, e2)
    for i in range(p):
        x, y = row[i], row[(i + 1) % p]
        w = a[i] if i < p - 1 else sign * a[i]
        d[x] += b[i]
        if x == y:  # p = 1: the wrap is both off-diagonal entries of the one site
            w += w
        diagonals[abs(x - y)][min(x, y)] += w
    hypot = math.hypot
    for k in range(p - 2):
        y = e2[k]
        if y == 0.0:
            continue
        x = e1[k]
        h = hypot(x, y)
        cs, sn = x / h, y / h
        e1[k], e2[k] = h, 0.0
        r = k + 2
        while True:
            # the 2 x 2 block on rows r - 1, r
            cc, ss, csn = cs * cs, sn * sn, cs * sn
            u, v, z = d[r - 1], e1[r - 1], d[r]
            t = 2.0 * csn * v
            d[r - 1] = cc * u + t + ss * z
            d[r] = ss * u - t + cc * z
            e1[r - 1] = csn * (z - u) + (cc - ss) * v
            # the pairs of rows r + 1 and r + 2; the second is (0, e2[r]),
            # and its first entry becomes the bulge y
            if r + 1 < p:
                u, v = e2[r - 1], e1[r]
                e2[r - 1], e1[r] = cs * u + sn * v, cs * v - sn * u
            if r + 2 >= p:
                break
            v = e2[r]
            y = sn * v
            e2[r] = cs * v
            if y == 0.0:
                break
            # the next rotation zeroes the bulge, then the pair left of its block
            x = e2[r - 1]
            h = hypot(x, y)
            cs, sn = x / h, y / h
            e2[r - 1] = h
            r += 2
            u, v = e1[r - 2], e2[r - 2]
            e1[r - 2], e2[r - 2] = cs * u + sn * v, cs * v - sn * u
    return d, e1


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
