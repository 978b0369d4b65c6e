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
uses a degree-6 triangle rule and 4-point Gauss on faces.

The paper's own norm definitions are not recorded in this repository, so
mode "paper" is this package's convention, not a transcription. Against the
published example1 triangle table (k = 0, Chebyshev star points) it gives
e_sigma_L2 within 0.3% at every level, and e_L2 a steady factor 0.991 below
the published column from the second level on (0.984 at the first). e_L2 is
sensitive to the convention: mode "high" puts it 25-27% above the published
column and centroid star points 7-8% above, while e_sigma_L2 stays within
0.5% of the published column in both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import BoundarySpec, GlobalSystem, assemble_system
from .polymesh import (PolyMesh, build_subtriangulation, cell_diameters,
                       compute_star_points, mesh_size)
from .quadbasis import edge_rule, map_to_edge, map_to_triangle, triangle_rule
from .weakgrad import identity_coefficient, weak_gradient_coeffs

__all__ = [
    "PostprocessError",
    "SolutionField",
    "FluxField",
    "recover_flux",
    "error_norms",
    "conservation_residuals",
    "flux_jump_report",
    "flux_norms",
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

    def cell_coeffs(self, c: int) -> np.ndarray:
        return self.dofs[self.system.dofmap.cell_dofs(c)]

    def face_coeffs(self, e: int) -> np.ndarray:
        return self.dofs[self.system.dofmap.face_dofs(e)]

    def u0_values(self, c: int, pts) -> np.ndarray:
        return self.system.elem_ops[c].cellb.eval(pts) @ self.cell_coeffs(c)

    def ub_values(self, c: int, local_face: int, pts) -> np.ndarray:
        op = self.system.elem_ops[c]
        e = op.fan.edge_ids[local_face]
        return op.face_bases[local_face].eval(pts) @ self.face_coeffs(e)

    def local_vector(self, c: int) -> np.ndarray:
        dm = self.system.dofmap
        op = self.system.elem_ops[c]
        parts = [self.dofs[dm.face_dofs(e)] for e in op.fan.edge_ids]
        parts.append(self.dofs[dm.cell_dofs(c)])
        return np.concatenate(parts)


@dataclass
class FluxField:
    """Piecewise P_k vector flux on the fan sub-triangulation."""
    system: GlobalSystem
    coeffs: list = field(repr=False, default_factory=list)
    sign: int = 1

    def tri_values(self, c: int, i: int, pts) -> np.ndarray:
        """Flux values on fan triangle i of cell c at physical points."""
        fb = self.system.elem_ops[c].fluxb
        mono = fb.mono_eval(i, np.asarray(pts, dtype=float))
        nm = fb.n_mono
        out = np.zeros((len(mono), 2))
        for frame in range(2):
            lo = fb.index(frame, i, 0)
            out += np.outer(mono @ self.coeffs[c][lo:lo + nm],
                            fb.frame_vector(frame, i))
        return out

    def cell_values(self, c: int, pts) -> np.ndarray:
        """Flux at arbitrary points of cell c (per-point home triangle)."""
        fb = self.system.elem_ops[c].fluxb
        pts = np.asarray(pts, dtype=float)
        out = np.zeros((len(pts), 2))
        for p, x in enumerate(pts):
            i = fb.home_triangle(x)
            out[p] = self.tri_values(c, i, x[None, :])[0]
        return out


def recover_flux(solution: SolutionField, sign: int | None = None) -> FluxField:
    """Per-cell flux sign*K*(weak gradient), exact from the mass solve."""
    system = solution.system
    if sign is None:
        sign = system.flux_sign
    coeffs = []
    for c, op in enumerate(system.elem_ops):
        s = weak_gradient_coeffs(op, solution.local_vector(c))
        coeffs.append(sign * s)
    return FluxField(system=system, coeffs=coeffs, sign=sign)


def _norm_rules(system: GlobalSystem, mode: str):
    k = system.k
    if mode == "paper":
        return triangle_rule(2), edge_rule(1)
    if mode == "high":
        return triangle_rule(6), edge_rule(4)
    if mode == "exact":
        return triangle_rule(min(2 * k + 2, 10)), edge_rule(min(k + 2, 6))
    raise PostprocessError(f"unknown quadrature mode {mode!r}")


def error_norms(solution: SolutionField, u_exact: Callable,
                grad_u_exact: Callable | None = None,
                flux: FluxField | None = None,
                mode: str = "paper") -> dict:
    """Discrete error norms against an exact solution.

    Returns e_L2 always, e_1h when grad_u_exact is given, and the flux
    norms e_sigma_L2 / e_sigma_0h when a recovered flux is given (the
    exact flux is sign * K grad u).
    """
    system = solution.system
    vol_rule, face_rule = _norm_rules(system, mode)
    # the 1,h face term measures the projected jump Q_b(u_0) - u_b, so the
    # face rule must determine the P_k projection; the flux face term is raw
    jump_rule = edge_rule(max(len(face_rule.points), system.k + 1))
    coeff = system.coeff
    if flux is not None and grad_u_exact is None:
        raise PostprocessError("flux norms need the exact gradient")

    l2_sq = 0.0
    e1h_sq = 0.0
    s_vol_sq = 0.0
    s_0h_sq = 0.0
    diam = cell_diameters(system.mesh)
    for c, op in enumerate(system.elem_ops):
        fan = op.fan
        hK = diam[c]
        uc = solution.cell_coeffs(c)
        for i in range(fan.n_edges):
            pts, wts = map_to_triangle(vol_rule, fan.triangle(i))
            du = np.asarray(u_exact(pts), dtype=float).reshape(len(pts)) \
                - op.cellb.eval(pts) @ uc
            l2_sq += float(wts @ du ** 2)
            if grad_u_exact is not None:
                dg = np.asarray(grad_u_exact(pts), dtype=float).reshape(-1, 2) \
                    - np.einsum("pid,i->pd", op.cellb.grad(pts), uc)
                e1h_sq += float(wts @ (dg ** 2).sum(axis=1))
            if flux is not None:
                ds = flux.sign * _apply_coeff(coeff, pts, grad_u_exact(pts)) \
                    - flux.tri_values(c, i, pts)
                s_vol_sq += float(wts @ (ds ** 2).sum(axis=1))

        face_sq = 0.0
        sface_sq = 0.0
        for i in range(fan.n_edges):
            a, b = fan.loop[i], fan.loop[(i + 1) % fan.n_edges]
            if grad_u_exact is not None:
                pts, wts = map_to_edge(jump_rule, a, b)
                dub = op.cellb.eval(pts) @ uc \
                    - solution.ub_values(c, i, pts)
                psi = op.face_bases[i].eval(pts)
                gram = psi.T @ (psi * wts[:, None])
                mom = psi.T @ (dub * wts)
                face_sq += float(mom @ np.linalg.solve(gram, mom))
            if flux is not None:
                pts, wts = map_to_edge(face_rule, a, b)
                ds = flux.sign * _apply_coeff(coeff, pts, grad_u_exact(pts)) \
                    - flux.tri_values(c, i, pts)
                sface_sq += float(wts @ (ds @ fan.normals[i]) ** 2)
        e1h_sq += face_sq / hK
        s_0h_sq += hK * sface_sq

    out = {"e_L2": float(np.sqrt(l2_sq))}
    if grad_u_exact is not None:
        out["e_1h"] = float(np.sqrt(e1h_sq))
    if flux is not None:
        out["e_sigma_L2"] = float(np.sqrt(s_vol_sq))
        out["e_sigma_0h"] = float(np.sqrt(s_vol_sq + s_0h_sq))
    return out


def _apply_coeff(coeff, pts, grads) -> np.ndarray:
    grads = np.asarray(grads, dtype=float).reshape(-1, 2)
    if coeff.is_identity:
        return grads
    return np.einsum("pij,pj->pi", coeff.at(pts), grads)


def conservation_residuals(flux: FluxField, f: Callable) -> np.ndarray:
    """Per-cell residual (int_K f + sign * int_dK sigma.n) / |K|.

    With the Darcy sign baked into sigma this is the balance defect
    (int f - int sigma.n)/|K|; the cell load reuses the assembly
    quadrature so the discrete identity is reproduced exactly.
    """
    system = flux.system
    rhs_rule = triangle_rule(system.rhs_degree)
    erule = edge_rule(system.k + 1)
    out = np.zeros(system.mesh.num_cells)
    for c, op in enumerate(system.elem_ops):
        fan = op.fan
        load = 0.0
        for i in range(fan.n_edges):
            pts, wts = map_to_triangle(rhs_rule, fan.triangle(i))
            load += float(wts @ np.asarray(f(pts), dtype=float).reshape(len(pts)))
        boundary = 0.0
        for i in range(fan.n_edges):
            a, b = fan.loop[i], fan.loop[(i + 1) % fan.n_edges]
            pts, wts = map_to_edge(erule, a, b)
            sn = flux.tri_values(c, i, pts) @ fan.normals[i]
            boundary += float(wts @ sn)
        out[c] = (load + flux.sign * boundary) / fan.area
    return out


def flux_jump_report(flux: FluxField) -> dict:
    """Normal-jump moments of the flux across interior primal faces.

    Moments are tested against the face basis and scaled by face length
    times the local flux magnitude, so the report is dimensionless.
    """
    system = flux.system
    mesh = system.mesh
    erule = edge_rule(system.k + 1)
    worst = 0.0
    worst_face = -1
    for e in range(mesh.num_edges):
        c0, c1 = mesh.edge_cells[e]
        if c1 < 0:
            continue
        sides = []
        for c in (c0, c1):
            op = system.elem_ops[c]
            i = int(np.flatnonzero(op.fan.edge_ids == e)[0])
            sides.append((c, i))
        a, b = mesh.vertices[mesh.edges[e, 0]], mesh.vertices[mesh.edges[e, 1]]
        pts, wts = map_to_edge(erule, a, b)
        t = (b - a) / np.linalg.norm(b - a)
        n = np.array([t[1], -t[0]])
        s0 = flux.tri_values(sides[0][0], sides[0][1], pts)
        s1 = flux.tri_values(sides[1][0], sides[1][1], pts)
        jump_n = (s0 - s1) @ n
        psi = system.elem_ops[c0].face_bases[sides[0][1]].eval(pts)
        moments = psi.T @ (jump_n * wts)
        length = float(np.linalg.norm(b - a))
        scale = max(float(np.abs(s0).max()), float(np.abs(s1).max()), 1e-30)
        rel = float(np.abs(moments).max()) / (length * scale)
        if rel > worst:
            worst, worst_face = rel, e
    return {"max_scaled_jump": worst, "face": worst_face}


def flux_norms(flux: FluxField) -> tuple:
    """(augmented 0h-norm, plain L2 norm) of a flux field."""
    system = flux.system
    k = system.k
    vol_rule = triangle_rule(max(2 * k, 2))
    erule = edge_rule(k + 1)
    vol_sq = 0.0
    face_sq = 0.0
    diam = cell_diameters(system.mesh)
    for c, op in enumerate(system.elem_ops):
        fan = op.fan
        hK = diam[c]
        for i in range(fan.n_edges):
            pts, wts = map_to_triangle(vol_rule, fan.triangle(i))
            sv = flux.tri_values(c, i, pts)
            vol_sq += float(wts @ (sv ** 2).sum(axis=1))
            a, b = fan.loop[i], fan.loop[(i + 1) % fan.n_edges]
            epts, ewts = map_to_edge(erule, a, b)
            sn = flux.tri_values(c, i, epts) @ fan.normals[i]
            face_sq += hK * float(ewts @ sn ** 2)
    return float(np.sqrt(vol_sq + face_sq)), float(np.sqrt(vol_sq))


def h1h_distance(system: GlobalSystem, dofs_a: np.ndarray,
                 dofs_b: np.ndarray) -> float:
    """1,h-norm of the difference of two discrete solutions (exact rules)."""
    k = system.k
    vol_rule = triangle_rule(max(2 * k, 2))
    erule = edge_rule(min(k + 2, 6))
    delta = SolutionField(system, np.asarray(dofs_a) - np.asarray(dofs_b))
    total = 0.0
    diam = cell_diameters(system.mesh)
    for c, op in enumerate(system.elem_ops):
        fan = op.fan
        hK = diam[c]
        uc = delta.cell_coeffs(c)
        face_sq = 0.0
        for i in range(fan.n_edges):
            pts, wts = map_to_triangle(vol_rule, fan.triangle(i))
            g = np.einsum("pid,i->pd", op.cellb.grad(pts), uc)
            total += float(wts @ (g ** 2).sum(axis=1))
            a, b = fan.loop[i], fan.loop[(i + 1) % fan.n_edges]
            epts, ewts = map_to_edge(erule, a, b)
            dub = op.cellb.eval(epts) @ uc - delta.ub_values(c, i, epts)
            psi = op.face_bases[i].eval(epts)
            gram = psi.T @ (psi * ewts[:, None])
            mom = psi.T @ (dub * ewts)
            face_sq += float(mom @ np.linalg.solve(gram, mom))
        total += face_sq / hK
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


def convergence_study(problem, meshes, k: int = 0, star: str = "chebyshev",
                      mode: str = "paper", solver_opts: dict | None = None,
                      columns: list | None = None) -> ConvergenceReport:
    """Solve a problem on a mesh family and tabulate errors with rates."""
    from .solver import solve_system

    if len(meshes) < 1:
        raise PostprocessError("need at least one mesh level")
    if columns is None:
        columns = list(problem.table_columns)
    report = ConvergenceReport(problem=problem.name, k=k, columns=columns)
    for level, mesh in enumerate(meshes):
        subtri = build_subtriangulation(mesh, star_points=None if star is None
                                        else compute_star_points(mesh, star))
        system = assemble_system(mesh, subtri, k, problem.coeff, problem.f,
                                 problem.bc, flux_sign=problem.flux_sign)
        try:
            dofs, _ = solve_system(system, **(solver_opts or {}))
        except Exception as exc:
            raise PostprocessError(f"solve failed at level {level}: {exc}") from exc
        sol = SolutionField(system, dofs)
        flux = recover_flux(sol)
        errs = error_norms(sol, problem.u, problem.grad_u, flux=flux, mode=mode)
        h = mesh.h_report if mesh.h_report is not None else mesh_size(mesh)
        report.add(h=h, n_cells=mesh.num_cells, errors=errs)
    return report


def cr_equivalence(mesh: PolyMesh, star_points=None) -> float:
    """Scaled max-norm gap between the assembled matrix and E^T A_CR E.

    A_CR is the P1 nonconforming stiffness matrix on the fan refinement
    (star points as interior nodes); E maps face DoFs to primal-edge CR
    DoFs and cell linears to spoke-midpoint values (the exact edge
    average of an affine function). Requires k = 0 and triangle cells.
    """
    if not mesh.is_triangle_mesh():
        raise PostprocessError("equivalence check requires a triangle mesh")
    subtri = build_subtriangulation(mesh, star_points=star_points)
    system = assemble_system(
        mesh, subtri, 0, identity_coefficient(),
        f=lambda pts: np.zeros(len(pts)),
        bc=BoundarySpec.dirichlet_everywhere(lambda pts: np.zeros(len(pts))))
    A_wg = system.A_full.toarray()

    ne, nc = mesh.num_edges, mesh.num_cells
    n_cr = ne + 3 * nc
    n_wg = system.dofmap.total
    A_cr = np.zeros((n_cr, n_cr))
    E = np.zeros((n_cr, n_wg))
    for e in range(ne):
        E[e, system.dofmap.face_dofs(e)[0]] = 1.0
    for c in range(nc):
        fan = subtri.fans[c]
        cdofs = system.dofmap.cell_dofs(c)
        for i in range(3):
            tri = fan.triangle(i)
            J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            Jinv = np.linalg.inv(J)
            grads = np.vstack([-(Jinv[0] + Jinv[1]), Jinv[0], Jinv[1]])
            local = np.array([fan.edge_ids[i],
                              ne + 3 * c + (i + 1) % 3,
                              ne + 3 * c + i])
            S = 4.0 * fan.areas[i] * (grads @ grads.T)
            A_cr[np.ix_(local, local)] += S
        for i in range(3):
            m = 0.5 * (fan.star + fan.loop[i])
            row = ne + 3 * c + i
            E[row, cdofs[0]] = 1.0
            E[row, cdofs[1]] = (m[0] - fan.xbar[0]) / fan.h
            E[row, cdofs[2]] = (m[1] - fan.xbar[1]) / fan.h
    gap = A_wg - E.T @ A_cr @ E
    denom = float(np.abs(A_cr).sum(axis=1).max())
    return float(np.abs(gap).sum(axis=1).max()) / denom


def write_vtk(path, solution: SolutionField, flux: FluxField | None = None) -> None:
    """Legacy ASCII VTK of the fan triangulation.

    Points are duplicated per triangle so the discontinuous u_0 renders
    faithfully as point data; the flux is one vector per triangle.
    """
    system = solution.system
    pts_lines = []
    cell_lines = []
    u0_lines = []
    sig_lines = []
    npts = 0
    ntri = 0
    for c, op in enumerate(system.elem_ops):
        fan = op.fan
        uc = solution.cell_coeffs(c)
        for i in range(fan.n_edges):
            tri = fan.triangle(i)
            vals = op.cellb.eval(tri) @ uc
            for p in range(3):
                pts_lines.append(f"{tri[p, 0]:.10e} {tri[p, 1]:.10e} 0.0")
                u0_lines.append(f"{vals[p]:.10e}")
            cell_lines.append(f"3 {npts} {npts + 1} {npts + 2}")
            npts += 3
            if flux is not None:
                centroid = tri.mean(axis=0)
                sv = flux.tri_values(c, i, centroid[None, :])[0]
                sig_lines.append(f"{sv[0]:.10e} {sv[1]:.10e} 0.0")
            ntri += 1

    lines = ["# vtk DataFile Version 2.0", "stagpoly solution", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {npts} double"]
    lines += pts_lines
    lines.append(f"CELLS {ntri} {4 * ntri}")
    lines += cell_lines
    lines.append(f"CELL_TYPES {ntri}")
    lines += ["5"] * ntri
    lines.append(f"POINT_DATA {npts}")
    lines.append("SCALARS u0 double 1")
    lines.append("LOOKUP_TABLE default")
    lines += u0_lines
    if flux is not None:
        lines.append(f"CELL_DATA {ntri}")
        lines.append("VECTORS sigma double")
        lines += sig_lines

    text = "\n".join(lines) + "\n"
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, str(path))
