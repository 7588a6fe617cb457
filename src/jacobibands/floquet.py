"""Independent band-edge oracle via Floquet boundary conditions.

Imposing periodic (phase 0) or antiperiodic (phase pi) boundary conditions
over one period reduces the operator to a real symmetric p x p matrix whose
eigenvalues are exactly the solutions of discriminant = +2 and -2. That
matrix is tridiagonal apart from the wrap entry +/-a_p in its corners.
This module folds the ring so that the matrix is a band of width 2,
chases it down to tridiagonal form with plane rotations, and finds the
eigenvalues with implicit QL iterations.

The QL kernel (`tridiagonal_eigenvalues`) is shared: the band path uses
it for the Dirichlet eigenvalues that serve as its knots. The band path
also calls `band_edges_oracle` once per operator and starts each edge
solve at its eigenvalue. At every period those eigenvalues only seed:
each edge is still the one solution of discriminant = +/-2 in a bracket
cut by the independent Dirichlet knots, each knot checked by the sign of
the discriminant there, so a wrong eigenvalue costs Newton steps but not
the edge, and shows as an edge mismatch when `ensemble.run_trial` compares
the edges against the eigenvalues the BandStructure carries. The oracle
builds its own folded boundary-condition matrices, wrap entries included,
and reduces them itself. A fault in the shared kernel shows either as a
failed knot check or as an edge mismatch.
"""

from __future__ import annotations

import math

from .coefficients import PeriodicCoefficients
from .errors import NonConvergence


def tridiagonal_eigenvalues(
    d, e, tol: float = 1e-13, max_sweeps: int = 100
) -> tuple[float, ...]:
    """All eigenvalues, sorted ascending, of the symmetric tridiagonal matrix
    with diagonal d and off-diagonal e (e[i] couples i and i + 1, so
    len(e) == len(d) - 1).

    QL iterations with Wilkinson shifts (EISPACK tql1; Bowdler, Martin,
    Reinsch & Wilkinson, Numer. Math. 11, 1968) deflate the matrix one
    eigenvalue at a time. An off-diagonal counts as zero once it is at
    most tol times the sum of the magnitudes of its two neighbouring
    diagonal entries. max_sweeps is the QL iteration budget per
    eigenvalue; NonConvergence is raised when it runs out, which does not
    happen for symmetric input at the default budget.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    d = list(d)
    e = [*e, 0.0][: len(d)]
    _implicit_ql(d, e, tol, max_sweeps)
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
    for k in range(p - 2):
        r, col = k + 2, k
        while r < p and m[r][col] != 0.0:
            h = math.hypot(m[r - 1][col], m[r][col])
            cs, sn = m[r - 1][col] / h, m[r][col] / h
            window = range(max(r - 3, 0), min(r + 3, p))
            top, bottom = m[r - 1], m[r]
            for j in window:
                u, v = top[j], bottom[j]
                top[j], bottom[j] = cs * u + sn * v, cs * v - sn * u
            for j in window:
                u, v = m[j][r - 1], m[j][r]
                m[j][r - 1], m[j][r] = cs * u + sn * v, cs * v - sn * u
            m[r][col] = m[col][r] = 0.0
            r, col = r + 2, r - 1
    return [m[i][i] for i in range(p)], [m[i + 1][i] for i in range(p - 1)]


def _implicit_ql(d: list[float], e: list[float], tol: float, budget: int) -> None:
    """Eigenvalues of the tridiagonal (d, e) into d, in place.

    Each QL step on the unreduced block [l, m] takes the Wilkinson shift
    from its leading 2 x 2 submatrix and chases the bulge down with plane
    rotations.
    """
    hypot, copysign = math.hypot, math.copysign
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
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # underflow: the block splits at i + 1
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
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
