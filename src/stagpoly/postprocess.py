"""Flux recovery, error norms, conservation residuals, convergence studies,
and the Crouzeix-Raviart equivalence cross-check.

Discrete error norms, summed over the fan triangles of each cell:
    e_1h^2    = sum_K ( |grad u - grad u_0|_K^2 + h_K^{-1} |Qb(u_0) - u_b|_dK^2 )
    e_L2      = |u - u_0|
    e_s0h^2   = sum_K ( |s - s_h|_K^2 + h_K |(s - s_h).n|_dK^2 )
with h_K the cell diameter and Qb the face L2 projection (so the face
term of e_1h vanishes on reproduced polynomial solutions). Quadrature mode
"paper" evaluates these with the three edge-midpoint rule on each fan
triangle (the fan around the cell's star point) plus face midpoints; "high"
uses a triangle rule of degree max(6, 2k + 2) and max(4, k + 2)-point Gauss
on faces, which integrate every discrete term exactly at every k.

Mode "paper" samples u, grad u and K at the midpoints of each fan
triangle's edges, one of them on the cell's own edge: where K or grad u
jumps across a mesh edge, its volume norms read whichever side the
callables return there (e_sigma_L2 0.144 on squares 4 for a reproduced
piecewise-linear u, where "high" reads 1.3e-14). Use "high" there.

The paper's own norm definitions are not recorded in this repository, so
mode "paper" is this package's convention, not a transcription. Against the
published example1 triangle table (k = 0, Chebyshev star points) it gives
e_sigma_L2 within 0.3% at every level, and e_L2 a steady factor 0.991 below
the published column from the second level on (0.984 at the first). e_L2 is
sensitive to the convention: mode "high" puts it 25-27% above the published
column, and fans around the area centroid put it 7-8% above (measured when
the centroid was still offered as a star point; it no longer is), while
e_sigma_L2 stays within 0.5% of the published column in both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .assembly import (BoundarySpec, CondensationError, GlobalSystem,
                       _block_triplets, _symmetric_csr, assemble_system)
from .polymesh import PolyMesh, build_subtriangulation
from .quadbasis import (derivative_table, edge_rule, face_monomials,
                        monomials, triangle_rule)
from .weakgrad import (flux_basis, flux_values, identity_coefficient,
                       outer_edge, weak_gradient_coeffs)

__all__ = [
    "PostprocessError",
    "SolutionField",
    "FluxField",
    "recover_flux",
    "error_norms",
    "conservation_residuals",
    "scaled_conservation_residuals",
    "flux_jump_report",
    "h1h_distance",
    "ConvergenceReport",
    "convergence_study",
    "cr_equivalence",
    "write_vtk",
]


class PostprocessError(Exception):
    pass


@dataclass
class SolutionField:
    """Discrete solution: u_b per face, u_0 per cell, over one system."""
    system: GlobalSystem
    dofs: np.ndarray

    def __post_init__(self):
        if len(self.dofs) != self.system.dofmap.total:
            raise PostprocessError("coefficient vector length mismatch")

    def u0_values(self, c: int, pts) -> np.ndarray:
        fan = self.system.subtri.fans[c]
        grp, r = self.system.groups[fan.group], fan.row
        return monomials(pts, grp.xbar[r], grp.h[r], grp.k + 1) \
            @ self.dofs[self.system.dofmap.cell_dofs(c)]


@dataclass
class FluxField:
    """Piecewise P_k vector flux on the fan sub-triangulation.

    coeffs holds one (g, d) array of flux coefficients per element group,
    in (fan triangle, frame, basis function) order, as
    weak_gradient_coeffs gives them.
    """
    system: GlobalSystem
    coeffs: list = field(repr=False, default_factory=list)

    def tri_values(self, c: int, i: int, pts) -> np.ndarray:
        """Flux values on fan triangle i of cell c at physical points."""
        fan = self.system.subtri.fans[c]
        grp, r = self.system.groups[fan.group], fan.row
        star, m = grp.star[r], grp.n_edges
        J = (grp.loop[r, [i, (i + 1) % m]] - star).T
        ref = np.linalg.solve(J, (np.asarray(pts, dtype=float) - star).T).T
        coeffs = self.coeffs[fan.group].reshape(len(grp.cells), m, 2, -1)[r, i]
        return flux_basis(ref, grp.k) @ (coeffs.T @ grp.frames[r, i])


def recover_flux(solution: SolutionField) -> FluxField:
    """Per-cell flux flux_sign*K*(weak gradient): C B times the local DoFs,
    from each group's kept blocks (weak_gradient_coeffs)."""
    system = solution.system
    sign = system.flux_sign
    coeffs = [sign * weak_gradient_coeffs(grp, solution.dofs[grp.dofs])
              for grp in system.groups]
    return FluxField(system=system, coeffs=coeffs)


def _norm_rules(system: GlobalSystem, mode: str):
    k = system.k
    if mode == "paper":
        return triangle_rule(2), edge_rule(1)
    if mode == "high":
        return triangle_rule(max(6, 2 * k + 2)), edge_rule(max(4, k + 2))
    raise PostprocessError(f"unknown quadrature mode {mode!r}")


def _at(fn, pts, shape=()) -> np.ndarray:
    """A callable on (n, 2) point arrays at points (..., 2)."""
    vals = fn(pts.reshape(-1, 2))
    return np.asarray(vals, dtype=float).reshape(pts.shape[:-1] + shape)


def _face_jump_sq(grp, uc, ub, rule) -> np.ndarray:
    """Per row of a group, sum over its faces of |Q_b(u_0) - u_b|_F^2 for
    cell coefficients uc (g, nc), face coefficients ub (g, m, k+1) and a
    Gauss rule of at least k + 1 points.

    |Q_b d|_F^2 is |F| times the sum of the squared moments of d against
    the Legendre polynomials of degree <= k, orthonormal on [0, 1] and, in
    such a rule, exactly so; a sum of squares cannot round to a negative
    number. Reversing a face only flips the signs of odd moments, so one
    reference basis serves either loop direction."""
    pts, _ = grp.edge_quadrature(rule)
    dub = np.einsum("gtqc,gc->gtq", grp.cell_basis(pts), uc) \
        - np.einsum("gtqp,gtp->gtq", grp.face_basis(rule.points), ub)
    legendre = np.polynomial.legendre.legvander(2.0 * rule.points - 1.0,
                                                grp.k)
    wleg = legendre * rule.weights[:, None] \
        * np.sqrt(2.0 * np.arange(grp.k + 1) + 1.0)
    # one product over all faces: a stack of (q, p) products costs a call each
    mom = dub.reshape(-1, len(wleg)) @ wleg
    return np.sum((mom ** 2).sum(axis=1).reshape(grp.lengths.shape)
                  * grp.lengths, axis=1)


def _split(grp, dofs):
    """Cell (g, nc) and face (g, m, k+1) coefficients of a group's rows."""
    local = dofs[grp.dofs]
    nfl = grp.n_face_dofs
    return local[:, nfl:], local[:, :nfl].reshape(len(local), grp.n_edges, -1)


def _u0_grad(grp, uc, phi) -> np.ndarray:
    """grad u_0 (g, m, q, 2) of each row of a group from its cell
    coefficients uc (g, nc) and its cell basis phi (g, m, q, nc) at the
    points: the first n_mono columns of phi, P_k, over h times
    derivative_table(k + 1) uc."""
    g, nm = len(uc), grp.n_mono
    pk = phi[..., :nm] / grp.h[:, None, None, None]
    duc = np.einsum("bcx,gc->gbx", derivative_table(grp.k + 1), uc)
    # one product per row, 1.4-2x faster than an einsum over the basis axis
    return (pk.reshape(g, -1, nm) @ duc).reshape(phi.shape[:-1] + (2,))


def _sq(v) -> np.ndarray:
    """|v|^2 of vectors v (..., 2), by components: numpy reduces a short
    last axis slowly."""
    return v[..., 0] ** 2 + v[..., 1] ** 2


def _normal_part(values, grp) -> np.ndarray:
    """sigma . n on the outer edges from values (g, m, q, 2)."""
    n = grp.frames[:, :, None, 0]
    return values[..., 0] * n[..., 0] + values[..., 1] * n[..., 1]


def error_norms(solution: SolutionField, u_exact: Callable,
                grad_u_exact: Callable, flux: FluxField,
                mode: str = "paper") -> dict:
    """Discrete error norms e_L2, e_1h, e_sigma_L2 and e_sigma_0h against
    an exact solution and its gradient, for a recovered flux (the exact
    flux is sign * K grad u)."""
    system = solution.system
    vol_rule, face_rule = _norm_rules(system, mode)
    # the 1,h face term measures the projected jump Q_b(u_0) - u_b, so the
    # face rule must determine the P_k projection; the flux face term is raw
    jump_rule = edge_rule(max(len(face_rule.points), system.k + 1))
    coeff = system.coeff
    sign = system.flux_sign

    l2_sq = 0.0
    e1h_sq = 0.0
    s_vol_sq = 0.0
    s_0h_sq = 0.0
    diam = system.mesh.diameters
    for gi, grp in enumerate(system.groups):
        hK = diam[grp.cells]
        uc, ub = _split(grp, solution.dofs)
        pts, wts = grp.fan_quadrature(vol_rule)
        phi = grp.cell_basis(pts)
        du = _at(u_exact, pts) - np.einsum("gtqc,gc->gtq", phi, uc)
        l2_sq += float(np.sum(wts * du ** 2))
        grads = _at(grad_u_exact, pts, (2,))
        dg = grads - _u0_grad(grp, uc, phi)
        e1h_sq += float(np.sum(wts * _sq(dg)))
        e1h_sq += float(np.sum(_face_jump_sq(grp, uc, ub, jump_rule) / hK))
        ds = sign * _exact_flux(coeff, grads, pts) \
            - flux_values(grp, flux.coeffs[gi], vol_rule.points)
        s_vol_sq += float(np.sum(wts * _sq(ds)))
        pts, wts = grp.edge_quadrature(face_rule)
        grads = _at(grad_u_exact, pts, (2,))
        ds = sign * _exact_flux(coeff, grads, pts) \
            - flux_values(grp, flux.coeffs[gi], outer_edge(face_rule))
        s_0h_sq += float(np.sum(hK * np.sum(
            wts * _normal_part(ds, grp) ** 2, axis=(1, 2))))

    return {"e_L2": float(np.sqrt(l2_sq)), "e_1h": float(np.sqrt(e1h_sq)),
            "e_sigma_L2": float(np.sqrt(s_vol_sq)),
            "e_sigma_0h": float(np.sqrt(s_vol_sq + s_0h_sq))}


def _exact_flux(coeff, grads, pts) -> np.ndarray:
    """K grad u at points (..., 2) from grad u there, grads (..., 2)."""
    if coeff.is_identity:
        return grads
    K = coeff.at(pts.reshape(-1, 2)).reshape(pts.shape + (2,))
    return np.einsum("...ij,...j->...i", K, grads)


def _balance(flux: FluxField, f: Callable):
    """Per element group: the group, the cell loads int_K f (g,) and the
    weighted normal flux w sigma.n at the edge quadrature points (g, m, q).

    The load uses the assembly's rule on the same fan quadrature, so the
    discrete balance identity is reproduced exactly.
    """
    system = flux.system
    rhs_rule = triangle_rule(system.rhs_degree)
    erule = edge_rule(system.k + 1)
    for gi, grp in enumerate(system.groups):
        pts, wts = grp.fan_quadrature(rhs_rule)
        load = np.sum(wts * _at(f, pts), axis=(1, 2))
        sn = _normal_part(flux_values(grp, flux.coeffs[gi],
                                      outer_edge(erule)), grp)
        yield grp, load, erule.weights * grp.lengths[..., None] * sn


def conservation_residuals(flux: FluxField, f: Callable) -> np.ndarray:
    """Per-cell residual (int_K f + sign * int_dK sigma.n) / |K|.

    With the Darcy sign baked into sigma this is the balance defect
    (int f - int sigma.n)/|K|.
    """
    out = np.zeros(flux.system.mesh.num_cells)
    sign = flux.system.flux_sign
    for grp, load, wsn in _balance(flux, f):
        out[grp.cells] = (load + sign * np.sum(wsn, axis=(1, 2))) \
            / grp.areas.sum(axis=1)
    return out


def scaled_conservation_residuals(flux: FluxField, f: Callable) -> np.ndarray:
    """Per-cell |K| |r_K| / (|int_K f| + int_dK |sigma.n|).

    The balance defect relative to the terms it balances: round-off reads
    near machine epsilon whatever the size of f, K or the cell, where the
    raw residual is divided by |K|.
    """
    out = np.zeros(flux.system.mesh.num_cells)
    sign = flux.system.flux_sign
    for grp, load, wsn in _balance(flux, f):
        defect = np.abs(load + sign * np.sum(wsn, axis=(1, 2)))
        out[grp.cells] = defect / np.maximum(
            np.abs(load) + np.sum(np.abs(wsn), axis=(1, 2)), 1e-300)
    return out


def flux_jump_report(flux: FluxField) -> dict:
    """Normal-jump moments of the flux across interior primal faces.

    Moments are tested against the face basis and scaled by face length
    times the larger side's max |sigma| component, so the report is
    dimensionless. Each side takes its moments of sigma . n, with its own
    outward normal, on the unit reference edge in its loop direction (so
    the length cancels) and turns them to the edge's direction by
    orient^p; an interior face's jump is the sum of its two sides'.

    The recovered flux's normal moments are continuous across every
    interior face by construction, so on a solved flux the report reads
    round-off (5e-14 to 4e-12 on tri16 and Voronoi 256 at k = 0-3 and on
    squares16): it checks the flux recovery, not the discretization
    error.
    """
    system = flux.system
    mesh, k = system.mesh, system.k
    erule = edge_rule(k + 1)
    wpsi = face_monomials(erule.points - 0.5, k) * erule.weights[:, None]
    # side 0 is the cell whose loop runs along the edge (orient +1)
    moments = np.zeros((mesh.num_edges, 2, k + 1))
    peak = np.zeros((mesh.num_edges, 2))
    for gi, grp in enumerate(system.groups):
        vals = flux_values(grp, flux.coeffs[gi], outer_edge(erule))
        side = (grp.orient < 0).astype(np.intp)
        # one product over all faces: a stack of (q, p) products costs a
        # call each
        mom = _normal_part(vals, grp).reshape(-1, len(wpsi)) @ wpsi
        moments[grp.edge_ids, side] = mom.reshape(grp.orient.shape + (-1,)) \
            * grp.orient[..., None] ** np.arange(k + 1)
        # pairwise maxima over the points and components: numpy reduces a
        # short axis slowly
        flat = np.abs(vals).reshape(grp.orient.shape + (-1,))
        peak[grp.edge_ids, side] = reduce(np.maximum,
                                          np.moveaxis(flat, -1, 0))
    inner = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    jump = moments[inner, 0] + moments[inner, 1]
    scale = np.maximum(np.maximum(peak[inner, 0], peak[inner, 1]), 1e-30)
    rel = np.abs(jump).max(axis=1) / scale
    if not len(rel) or rel.max() <= 0.0:
        return {"max_scaled_jump": 0.0, "face": -1}
    worst = int(np.argmax(rel))
    return {"max_scaled_jump": float(rel[worst]), "face": int(inner[worst])}


def h1h_distance(system: GlobalSystem, dofs_a: np.ndarray,
                 dofs_b: np.ndarray) -> float:
    """1,h-norm of the difference of two discrete solutions (exact rules)."""
    k = system.k
    vol_rule = triangle_rule(2 * k)
    erule = edge_rule(k + 2)
    delta = np.asarray(dofs_a) - np.asarray(dofs_b)
    total = 0.0
    diam = system.mesh.diameters
    for grp in system.groups:
        uc, ub = _split(grp, delta)
        pts, wts = grp.fan_quadrature(vol_rule)
        total += float(np.sum(wts * _sq(_u0_grad(grp, uc,
                                                 grp.cell_basis(pts)))))
        total += float(np.sum(_face_jump_sq(grp, uc, ub, erule)
                              / diam[grp.cells]))
    return float(np.sqrt(total))


@dataclass
class ConvergenceRow:
    h: float
    n_cells: int
    errors: dict
    rates: dict


@dataclass
class ConvergenceReport:
    problem: str
    k: int
    columns: list
    rows: list = field(default_factory=list)

    def add(self, h: float, n_cells: int, errors: dict) -> None:
        rates = {}
        if self.rows:
            prev = self.rows[-1]
            for key in self.columns:
                e0, e1 = prev.errors[key], errors[key]
                if e0 > 0 and e1 > 0 and prev.h > h:
                    rates[key] = float(np.log(e0 / e1) / np.log(prev.h / h))
        self.rows.append(ConvergenceRow(h=h, n_cells=n_cells,
                                        errors=errors, rates=rates))

    def to_csv(self) -> str:
        header = ["h", "N_K"]
        for key in self.columns:
            header += [key, f"{key}_rate"]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [f"{row.h:.6e}", str(row.n_cells)]
            for key in self.columns:
                cells.append(f"{row.errors[key]:.6e}")
                cells.append(f"{row.rates[key]:.2f}" if key in row.rates else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        widths = 12
        header = ["h".rjust(10), "N_K".rjust(7)]
        for key in self.columns:
            header += [key.rjust(widths), "rate".rjust(6)]
        lines = ["  ".join(header)]
        for row in self.rows:
            cells = [f"{row.h:10.4e}", f"{row.n_cells:7d}"]
            for key in self.columns:
                cells.append(f"{row.errors[key]:{widths}.5e}")
                cells.append(f"{row.rates[key]:6.2f}" if key in row.rates
                             else "    --")
            lines.append("  ".join(cells))
        return "\n".join(lines)


def convergence_study(problem, meshes, k: int = 0, mode: str = "paper",
                      solver_opts: dict | None = None) -> ConvergenceReport:
    """Solve a problem on a mesh family and tabulate errors with rates."""
    from .solver import SolverError, solve_system

    if len(meshes) < 1:
        raise PostprocessError("need at least one mesh level")
    report = ConvergenceReport(problem=problem.name, k=k,
                               columns=list(problem.table_columns))
    for level, mesh in enumerate(meshes, start=1):
        subtri = build_subtriangulation(mesh)
        system = assemble_system(mesh, subtri, k, problem.coeff, problem.f,
                                 problem.bc, flux_sign=problem.flux_sign)
        try:
            dofs, _ = solve_system(system, **(solver_opts or {}))
        except (SolverError, CondensationError) as exc:
            # same type, so the CLI still reports a solver failure
            raise type(exc)(f"solve failed at level {level}: {exc}") from exc
        sol = SolutionField(system, dofs)
        flux = recover_flux(sol)
        errs = error_norms(sol, problem.u, problem.grad_u, flux=flux, mode=mode)
        h = mesh.h_report if mesh.h_report is not None \
            else float(mesh.diameters.max())
        report.add(h=h, n_cells=mesh.num_cells, errors=errs)
    return report


def cr_equivalence(mesh: PolyMesh) -> float:
    """Scaled max-norm gap between the assembled matrix and E^T A_CR E.

    A_CR is the P1 nonconforming stiffness matrix on the fan refinement
    (star points as interior nodes), assembled one valence group at a time;
    E maps face DoFs to primal-edge CR DoFs and cell linears to
    spoke-midpoint values (the exact edge average of an affine function).
    Requires k = 0; any polygon mesh.
    """
    subtri = build_subtriangulation(mesh)
    system = assemble_system(
        mesh, subtri, 0, identity_coefficient(),
        f=lambda pts: np.zeros(len(pts)),
        bc=BoundarySpec.dirichlet_everywhere(lambda pts: np.zeros(len(pts))))
    ne, n_cr = mesh.num_edges, mesh.num_edges + int(mesh.cell_ptr[-1])
    triplets, e_rows, e_cols, e_vals = [], [np.arange(ne)], [np.arange(ne)], \
        [np.ones(ne)]
    for grp in system.groups:
        m = grp.n_edges
        # CR DoFs: the primal edges, then ne + cell_ptr[c] + i at the
        # midpoint of the spoke from the star point of cell c to its loop
        # vertex i
        spoke = ne + mesh.cell_ptr[grp.cells, None] + np.arange(m)
        Jinv = np.linalg.inv(grp.jacobians)
        grads = np.concatenate([-(Jinv[..., :1, :] + Jinv[..., 1:, :]), Jinv],
                               axis=-2)
        S = 4.0 * grp.areas[..., None, None] \
            * (grads @ np.swapaxes(grads, -1, -2))
        local = np.stack([grp.edge_ids, np.roll(spoke, -1, axis=1), spoke],
                         axis=-1)
        triplets.append(_block_triplets(local.reshape(-1, 3),
                                        S.reshape(-1, 3, 3)))
        # E per cell: the m x 3 map from its P1 coefficients to its
        # spoke-midpoint values
        mid = 0.5 * (grp.star[:, None] + grp.loop)
        e_vals.append(np.concatenate(
            [np.ones(mid.shape[:-1] + (1,)),
             (mid - grp.xbar[:, None]) / grp.h[:, None, None]], axis=-1))
        e_rows.append(np.broadcast_to(spoke[..., None], e_vals[-1].shape))
        e_cols.append(np.broadcast_to(grp.dofs[:, None, m:],
                                      e_vals[-1].shape))
    A_cr = _symmetric_csr(n_cr, *zip(*triplets))
    E = sp.csr_matrix((np.concatenate([v.ravel() for v in e_vals]),
                       (np.concatenate([r.ravel() for r in e_rows]),
                        np.concatenate([c.ravel() for c in e_cols]))),
                      shape=(n_cr, system.dofmap.total))
    gap = system.A_full - E.T @ A_cr @ E
    denom = float(abs(A_cr).sum(axis=1).max())
    return float(abs(gap).sum(axis=1).max()) / denom


def write_vtk(path, solution: SolutionField, flux: FluxField | None = None) -> None:
    """Legacy ASCII VTK of the fan triangulation.

    Points are duplicated per triangle so the discontinuous u_0 renders
    faithfully as point data; the flux is one vector per triangle, at its
    centroid. Triangles are listed cell by cell.
    """
    system = solution.system
    # fan triangle t of cell c is the cell's loop slot cell_ptr[c] + t
    first, ntri = system.mesh.cell_ptr[:-1], int(system.mesh.cell_ptr[-1])
    corners = np.zeros((ntri, 3, 2))
    u0 = np.zeros((ntri, 3))
    sigma = np.zeros((ntri, 2))
    for gi, grp in enumerate(system.groups):
        slots = first[grp.cells, None] + np.arange(grp.n_edges)
        tris = grp.triangles
        corners[slots] = tris
        u0[slots] = np.einsum("gtpc,gc->gtp", grp.cell_basis(tris),
                              _split(grp, solution.dofs)[0])
        if flux is not None:
            sigma[slots] = flux_values(grp, flux.coeffs[gi],
                                       np.full((1, 2), 1.0 / 3.0))[:, :, 0]

    npts = 3 * ntri
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\nstagpoly solution\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {npts} double\n")
        np.savetxt(fh, corners.reshape(npts, 2), fmt="%.10e %.10e 0.0")
        fh.write(f"CELLS {ntri} {4 * ntri}\n")
        np.savetxt(fh, np.arange(npts).reshape(ntri, 3), fmt="3 %d %d %d")
        fh.write(f"CELL_TYPES {ntri}\n" + "5\n" * ntri)
        fh.write(f"POINT_DATA {npts}\nSCALARS u0 double 1\n"
                 "LOOKUP_TABLE default\n")
        np.savetxt(fh, u0.reshape(npts), fmt="%.10e")
        if flux is not None:
            fh.write(f"CELL_DATA {ntri}\nVECTORS sigma double\n")
            np.savetxt(fh, sigma, fmt="%.10e %.10e 0.0")
    os.replace(tmp, str(path))
