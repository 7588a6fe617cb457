"""Independent band-edge oracle via Floquet boundary conditions.

Imposing periodic (phase 0) or antiperiodic (phase pi) boundary conditions
over one period reduces the operator to a real symmetric p x p matrix whose
eigenvalues are exactly the solutions of discriminant = +2 and -2. This
module finds those eigenvalues with a Householder reduction to tridiagonal
form followed by implicit QL iterations.

The QL kernel (`tridiagonal_eigenvalues`) is shared: the band path uses
it for the Dirichlet eigenvalues that serve as its knots. The band path
also calls `band_edges_oracle` once per operator and starts each edge
solve at its eigenvalue. At every period those eigenvalues only seed:
each edge is still the one solution of discriminant = +/-2 in a bracket
cut by the independent Dirichlet knots, each knot checked by the sign of
the discriminant there, so a wrong eigenvalue costs Newton steps but not
the edge, and shows as an edge mismatch when `ensemble.run_trial` compares
the edges against the eigenvalues the BandStructure carries. The oracle
builds its own boundary-condition matrices, wrap entries included, and
reduces them with its own Householder pass. A fault in the shared kernel
shows either as a failed knot check or as an edge mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .coefficients import PeriodicCoefficients
from .errors import NonConvergence

PHASE_PERIODIC = 0.0
PHASE_ANTIPERIODIC = math.pi


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix stored as a full tuple-of-tuples."""

    entries: tuple[tuple[float, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries)


def floquet_matrix(c: PeriodicCoefficients, phase: float) -> SymMatrix:
    """Symmetric p x p reduction of the operator at quasimomentum phase 0 or pi.

    Diagonal is b, the first off-diagonal is a_1..a_{p-1}, and the wrap
    entry +/-a_p sits in the corners. For p = 2 the wrap lands on the
    off-diagonal (a_1 +/- a_2); for p = 1 it lands on the diagonal twice.
    """
    if phase == PHASE_PERIODIC:
        sign = 1.0
    elif phase == PHASE_ANTIPERIODIC:
        sign = -1.0
    else:
        raise ValueError(f"phase must be 0 or pi, got {phase!r}")
    p = c.p
    m = [[0.0] * p for _ in range(p)]
    for i in range(p):
        m[i][i] = c.b[i]
    for i in range(p - 1):
        m[i][i + 1] += c.a[i]
        m[i + 1][i] += c.a[i]
    if p == 1:
        m[0][0] += sign * 2.0 * c.a[0]
    else:
        m[0][p - 1] += sign * c.a[p - 1]
        m[p - 1][0] += sign * c.a[p - 1]
    return SymMatrix(tuple(tuple(row) for row in m))


def symmetric_eigenvalues(
    mat: SymMatrix, tol: float = 1e-13, max_sweeps: int = 100
) -> tuple[float, ...]:
    """All eigenvalues, sorted ascending: Householder reduction, then implicit QL.

    One Householder pass (EISPACK tred1; Martin, Reinsch & Wilkinson,
    Numer. Math. 11, 1968) reduces the matrix to tridiagonal form; QL
    iterations with Wilkinson shifts (EISPACK tql1; Bowdler, Martin,
    Reinsch & Wilkinson, Numer. Math. 11, 1968) then deflate it one
    eigenvalue at a time. An off-diagonal counts as zero once it is at
    most tol times the sum of the magnitudes of its two neighbouring
    diagonal entries. max_sweeps is the QL iteration budget per
    eigenvalue; NonConvergence is raised when it runs out, which does not
    happen for symmetric input at the default budget.
    """
    d, e = _tridiagonalize(mat)
    return tridiagonal_eigenvalues(d, e[:-1], tol, max_sweeps)


def tridiagonal_eigenvalues(
    d, e, tol: float = 1e-13, max_sweeps: int = 100
) -> tuple[float, ...]:
    """All eigenvalues, sorted ascending, of the symmetric tridiagonal matrix
    with diagonal d and off-diagonal e (e[i] couples i and i + 1, so
    len(e) == len(d) - 1), by implicit QL. tol and max_sweeps are as in
    `symmetric_eigenvalues`.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    d = list(d)
    e = [*e, 0.0][: len(d)]
    _implicit_ql(d, e, tol, max_sweeps)
    return tuple(sorted(d))


def _tridiagonalize(mat: SymMatrix) -> tuple[list[float], list[float]]:
    """Diagonal d and off-diagonal e (e[i] couples i and i + 1, e[-1] = 0)
    of a tridiagonal matrix similar to mat.

    Step i reflects row i onto its last subdiagonal entry with the
    Householder matrix I - u u^T / h, and applies it to the leading i x i
    block as the rank-two update A - u q^T - q u^T. Rows shrink to the
    active block as the reduction moves up. Sums use math.fsum, which
    rounds once, so the result does not depend on the Python version
    (sum() of floats compensates from 3.12 on).
    """
    a = [list(row) for row in mat.entries]
    n = len(a)
    d = [0.0] * n
    e = [0.0] * n
    for i in range(n - 1, 0, -1):
        row = a[i]
        d[i] = row[i]
        x = row[:i]
        scale = math.fsum(map(abs, x))
        if i == 1 or scale == 0.0:
            e[i - 1] = x[-1]
            continue
        u = [v / scale for v in x]
        h = math.fsum(v * v for v in u)
        f = u[-1]
        g = -math.copysign(math.sqrt(h), f)
        e[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        # p = A u / h, then q = p - (u.p / 2h) u
        pv = [math.fsum(map(mul, a[j], u)) / h for j in range(i)]
        k = math.fsum(map(mul, u, pv)) / (h + h)
        q = [pj - k * uj for pj, uj in zip(pv, u)]
        for j in range(i):
            uj, qj = u[j], q[j]
            a[j] = [ajk - uj * qk - qj * uk for ajk, qk, uk in zip(a[j], q, u)]
    d[0] = a[0][0]
    return d, e


def _implicit_ql(d: list[float], e: list[float], tol: float, budget: int) -> None:
    """Eigenvalues of the tridiagonal (d, e) into d, in place.

    Each QL step on the unreduced block [l, m] takes the Wilkinson shift
    from its leading 2 x 2 submatrix and chases the bulge down with plane
    rotations.
    """
    n = len(d)
    for l in range(n):
        steps = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > tol * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if steps == budget:
                raise NonConvergence(
                    f"QL iteration did not converge in {budget} steps for eigenvalue {l}"
                )
            steps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
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


def band_edges_oracle(
    c: PeriodicCoefficients, tol: float = 1e-13
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Band edges as Floquet eigenvalues.

    Returns (edges at phase 0, edges at phase pi): the multisets of
    solutions of discriminant = +2 and = -2, each of size p, sorted.
    """
    plus = symmetric_eigenvalues(floquet_matrix(c, PHASE_PERIODIC), tol)
    minus = symmetric_eigenvalues(floquet_matrix(c, PHASE_ANTIPERIODIC), tol)
    return plus, minus
