"""Global assembly of the stabilization-free weak Galerkin system.

DoF layout: all face DoFs first (edge-major, k+1 each), then all cell
DoFs (cell-major, dim P_{k+1} each). Dirichlet data is assigned strongly
to boundary face DoFs and eliminated symmetrically; static condensation
removes the cell block, whose per-cell SPD sub-blocks make the interior
recovery exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .polymesh import PolyMesh, SubTriangulation
from .quadbasis import (MAX_TRIANGLE_DEGREE, edge_rule, face_monomials,
                        map_to_edge, triangle_rule)
from .weakgrad import (CoefficientField, DofMap, element_groups,
                       face_diagonal, face_projection_Qb)

__all__ = [
    "AssemblyError",
    "CondensationError",
    "DofMap",
    "BoundarySpec",
    "GlobalSystem",
    "CondensedSystem",
    "build_dof_map",
    "assemble_system",
    "static_condensation",
    "write_matrix_market",
]


class AssemblyError(Exception):
    pass


class CondensationError(Exception):
    pass


def build_dof_map(mesh: PolyMesh, k: int) -> DofMap:
    # the load rule has degree 2(k+1), and triangle rules stop at
    # MAX_TRIANGLE_DEGREE
    max_k = (MAX_TRIANGLE_DEGREE - 2) // 2
    if not 0 <= k <= max_k:
        raise AssemblyError(f"polynomial degree k must be in 0..{max_k}")
    return DofMap(k=k, num_faces=mesh.num_edges, num_cells=mesh.num_cells)


class BoundarySpec:
    """Boundary conditions keyed by edge marker.

    dirichlet / neumann map marker tags to callables on (n, 2) point
    arrays; all_dirichlet, if given, covers every unlisted tag. Every
    boundary face must be covered by exactly one condition.
    """

    def __init__(self, dirichlet=None, neumann=None,
                 all_dirichlet: Callable | None = None):
        self.dirichlet = dict(dirichlet or {})
        self.neumann = dict(neumann or {})
        overlap = set(self.dirichlet) & set(self.neumann)
        if overlap:
            raise AssemblyError(f"markers {sorted(overlap)} listed twice")
        self.all_dirichlet = all_dirichlet

    @classmethod
    def dirichlet_everywhere(cls, g) -> "BoundarySpec":
        return cls(all_dirichlet=g)

    def condition_for(self, tag: int):
        if tag in self.dirichlet:
            return "dirichlet", self.dirichlet[tag]
        if tag in self.neumann:
            return "neumann", self.neumann[tag]
        if self.all_dirichlet is not None:
            return "dirichlet", self.all_dirichlet
        raise AssemblyError(f"boundary marker {tag} has no boundary condition")


@dataclass
class GlobalSystem:
    """Assembled system, before and after Dirichlet elimination.

    A_full / b_full cover every DoF; A / b are restricted to the free set,
    as the reference the tests check the condensed solve against and as
    the matrix --matrix-market writes. The condensed solve reads none of
    A_full, A and b, which are built on first use. fixed_dofs and
    fixed_values record the eliminated Dirichlet data; groups hold the
    element operators, one ElementGroup per cell valence.
    """
    mesh: PolyMesh
    subtri: SubTriangulation
    dofmap: DofMap
    k: int
    coeff: CoefficientField
    flux_sign: int
    b_full: np.ndarray
    free: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray
    groups: list = field(repr=False, default_factory=list)

    @property
    def rhs_degree(self) -> int:
        """Degree of the fan-triangle rule the load integrates f with."""
        return 2 * (self.k + 1)

    @cached_property
    def A_full(self) -> sp.csr_matrix:
        triplets = [_block_triplets(grp.dofs, grp.A) for grp in self.groups]
        return _symmetric_csr(self.dofmap.total, *zip(*triplets))

    @cached_property
    def A(self) -> sp.csr_matrix:
        return self.A_full[self.free][:, self.free].tocsr()

    @cached_property
    def b(self) -> np.ndarray:
        return self.b_full[self.free] \
            - self.A_full[self.free][:, self.fixed_dofs] @ self.fixed_values


def _symmetric_csr(n, rows, cols, vals) -> sp.csr_matrix:
    """Exactly symmetric CSR from triplets of exactly symmetric local
    blocks, in one COO-to-CSR pass. Triplets with a negative index are
    dropped.

    Every entry receives at most two triplets: a pair of face DoFs lies in
    at most the two cells of an edge, and a Crouzeix-Raviart spoke in the
    two fan triangles on either side of it. Since a + b == b + a, entries
    (i, j) and (j, i) sum the same two numbers and come out bitwise equal,
    whatever the summation order. Entries whose triplets add to exactly
    zero are then dropped, so the result stores no explicit zero.
    """
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    keep = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(n, n)).tocsr()
    A.eliminate_zeros()
    return A


def _block_triplets(dofs, blocks):
    """COO (rows, cols, vals) of local blocks (g, n, n) on DoFs (g, n)."""
    n = dofs.shape[1]
    return (np.repeat(dofs, n, axis=1).ravel(), np.tile(dofs, n).ravel(),
            blocks.ravel())


def assemble_system(mesh: PolyMesh, subtri: SubTriangulation, k: int,
                    coeff: CoefficientField, f: Callable, bc: BoundarySpec,
                    flux_sign: int = 1) -> GlobalSystem:
    """Assemble stiffness and load for (G_w u, G_w v) = (f, v_0).

    The load integrates f against the cell basis with a fan-triangle rule
    of degree 2(k+1); Neumann faces add flux_sign * <g_N, v_b>; Dirichlet
    faces are projected with face_projection_Qb, which interpolates the
    boundary values at k+1 Gauss points, and eliminated.
    """
    dofmap = build_dof_map(mesh, k)
    rhs_rule = triangle_rule(2 * (k + 1))
    groups = element_groups(mesh, subtri, k, coeff)

    b = np.zeros(dofmap.total)
    for grp in groups:
        # the group keeps these points through the solve for _balance; at
        # k = 0 they are element_groups' own volume points
        pts, wts = grp.fan_quadrature(rhs_rule)
        fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(wts.shape)
        b[dofmap.cell_dofs(grp.cells)] += np.einsum(
            "gtqc,gtq->gc", grp.cell_basis(pts), fv * wts)

    edges = mesh.boundary_edges
    tags = mesh.edge_markers[edges]
    ends = mesh.vertices[mesh.edges[edges]]
    dirichlet = np.zeros(len(edges), dtype=bool)
    values = np.zeros((len(edges), k + 1))
    erule = edge_rule(max(k + 1, 2))
    psi = face_monomials(erule.points - 0.5, k)
    for tag in np.unique(tags):
        kind, g = bc.condition_for(int(tag))
        sel = tags == tag
        a, bb = ends[sel, 0], ends[sel, 1]
        if kind == "dirichlet":
            dirichlet[sel] = True
            values[sel] = face_projection_Qb(a, bb, k, g)
        else:
            pts, wts = map_to_edge(erule, a, bb)
            gv = np.asarray(g(pts.reshape(-1, 2)), dtype=float).reshape(
                wts.shape)
            b[dofmap.face_dofs(edges[sel])] += flux_sign * ((gv * wts) @ psi)

    fixed_dofs = dofmap.face_dofs(edges[dirichlet]).ravel()
    mask = np.ones(dofmap.total, dtype=bool)
    mask[fixed_dofs] = False
    return GlobalSystem(mesh=mesh, subtri=subtri, dofmap=dofmap, k=k,
                        coeff=coeff, flux_sign=flux_sign, b_full=b,
                        free=np.flatnonzero(mask), fixed_dofs=fixed_dofs,
                        fixed_values=values[dirichlet].ravel(),
                        groups=groups)


@dataclass
class CondensedSystem:
    """Face-only Schur complement system with exact interior recovery.

    factors holds, per element group, L^{-1} (g, nc, nc) for the interior
    blocks A_cc = L L^T of its cell matrices, L their Cholesky factors, and
    Y the group's Y = L^{-1} [A_cf | b_c] (g, nc, m(k+1) + 1).
    """
    system: GlobalSystem
    S: sp.csr_matrix            # reduced to free face DoFs
    b: np.ndarray
    free_faces: np.ndarray      # free face DoF ids (global numbering)
    factors: list = field(repr=False, default_factory=list)
    Y: list = field(repr=False, default_factory=list)

    def recover(self, x_faces) -> np.ndarray:
        """Full DoF vector from the free-face solution.

        Interior DoFs solve their local equations exactly,
        u_c = L^{-T} (Y_b - Y_f u_f), which is what makes the recovered
        flux locally conservative independent of the face-solver tolerance.
        """
        sys = self.system
        full = np.zeros(sys.dofmap.total)
        full[self.free_faces] = x_faces
        full[sys.fixed_dofs] = sys.fixed_values
        for grp, Linv, Y in zip(sys.groups, self.factors, self.Y):
            nfl = grp.n_face_dofs
            rhs = Y[:, :, nfl:] - Y[:, :, :nfl] @ full[grp.dofs[:, :nfl],
                                                       None]
            full[grp.dofs[:, nfl:]] = (np.swapaxes(Linv, 1, 2) @ rhs)[..., 0]
        return full


def batched_cholesky(mats, cells):
    """Lower Cholesky factors of a stack of matrices, one per cell.

    Raises CondensationError naming the first cell whose matrix is not SPD.
    """
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        for c, mat in zip(cells, mats):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError as exc:
                raise CondensationError(
                    f"cell {c}: singular interior block") from exc
        raise


def lower_inverse(L):
    """Inverses of stacked lower triangular matrices (..., n, n), by forward
    substitution on one row of every matrix at a time."""
    X = np.zeros_like(L)
    for i in range(L.shape[-1]):
        X[..., i, i] = 1.0
        X[..., i, :i + 1] -= (L[..., i, None, :i]
                              @ X[..., :i, :i + 1])[..., 0, :]
        X[..., i, :i + 1] /= L[..., i, i, None]
    return X


def static_condensation(system: GlobalSystem) -> CondensedSystem:
    """Eliminate the cell block by per-cell Schur complements.

    Each group's stiffness blocks (ElementGroup.blocks) are formed chunk by
    chunk and go straight into the Cholesky factor L of A_cc, L^{-1} and
    Y = L^{-1} [A_cf | b_c]; cell K adds S_K = A_ff - Y_f^T Y_f on the free
    face DoFs and -Y_f^T Y_b - S_K u_fixed to their load. No local
    stiffness matrix is formed whole.
    """
    nf = system.dofmap.n_face_dofs
    free_faces = system.free[system.free < nf]
    row = np.full(nf, -1)       # row in S, -1 on Dirichlet DoFs
    row[free_faces] = np.arange(len(free_faces))
    fixed = np.zeros(nf)
    fixed[system.fixed_dofs] = system.fixed_values
    fixed_face = row < 0
    triplets = []
    b_s = system.b_full[:nf].copy()
    factors, Ys = [], []
    for grp in system.groups:
        g, nfl = len(grp.cells), grp.n_face_dofs
        fdofs, cdofs = grp.dofs[:, :nfl], grp.dofs[:, nfl:]
        Linv = np.empty((g, cdofs.shape[1], cdofs.shape[1]))
        Y = np.empty((g, cdofs.shape[1], nfl + 1))
        Y[:, :, nfl] = system.b_full[cdofs]
        S_local = np.empty((g, nfl, nfl))
        load = np.empty((g, nfl))
        diag = face_diagonal(grp.n_edges, system.k + 1)
        for rows in grp.chunks:
            A_ff, Y[rows, :, :nfl], A_cc = grp.blocks(rows)
            Linv[rows] = lower_inverse(batched_cholesky(A_cc, grp.cells[rows]))
            Y[rows] = Linv[rows] @ Y[rows]
            Z = np.swapaxes(Y[rows, :, :nfl], 1, 2) @ Y[rows]
            S = S_local[rows]
            np.add(Z[:, :, :nfl], np.swapaxes(Z[:, :, :nfl], 1, 2), out=S)
            S *= -0.5
            S[:, diag[0], diag[1]] += A_ff.reshape(len(S), -1)
            load[rows] = Z[:, :, nfl]
        # the Dirichlet lift, on the cells that have a fixed face
        lift = np.flatnonzero(fixed_face[fdofs].any(axis=1))
        load[lift] += (S_local[lift] @ fixed[fdofs[lift]][..., None])[..., 0]
        triplets.append(_block_triplets(row[fdofs], S_local))
        b_s -= np.bincount(fdofs.ravel(), load.ravel(), minlength=nf)
        factors.append(Linv)
        Ys.append(Y)

    return CondensedSystem(system=system,
                           S=_symmetric_csr(len(free_faces), *zip(*triplets)),
                           b=b_s[free_faces], free_faces=free_faces,
                           factors=factors, Y=Ys)


def write_matrix_market(system: GlobalSystem, path) -> None:
    """Export the reduced matrix A in Matrix Market format."""
    # scipy.io loads only for --matrix-market runs
    from scipy.io import mmwrite
    # write through a handle: mmwrite appends .mtx to bare path names
    with open(path, "wb") as fh:
        mmwrite(fh, system.A, symmetry="symmetric")
