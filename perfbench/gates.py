"""Correctness gates applied to the outputs of one pipeline pass.

Every gate returns (name, passed, value, limit). A NaN value fails its
gate, because every comparison with NaN is false.
"""

from __future__ import annotations

import numpy as np

from stagpoly.cli import TABLE1_REFERENCE
from stagpoly.quadbasis import (edge_rule, map_to_edge, map_to_triangle,
                                triangle_rule)

# ||A x - b|| over free rows, relative to || |A| |x| + |b| ||: the
# round-off scale of the assembled system. CG stops at 1e-10 of ||b_S||.
SYSTEM_RESIDUAL_TOL = 1e-8
# Scale-aware local conservation; round-off sits near 1e-14.
CONSERVATION_SCALED_TOL = 1e-10
# flux_jump_report max_scaled_jump; CG at 1e-10 leaves up to ~1e-7.
FLUX_JUMP_TOL = 1e-6
# example3 has u = 1 on the left wall, 0 on the right, no-flow elsewhere:
# cell values of u_0 stay within [0, 1] up to this margin.
MAX_PRINCIPLE_MARGIN = 1e-3


def system_residual(system, dofs) -> float:
    A, b, free = system.A_full, system.b_full, system.free
    r = (A @ dofs - b)[free]
    scale = (abs(A) @ np.abs(dofs) + np.abs(b))[free]
    return float(np.linalg.norm(r) / max(np.linalg.norm(scale), 1e-300))


def scaled_conservation(flux, f, raw) -> np.ndarray:
    """|K| |r_K| / (|int_K f| + int_dK |sigma.n|) per cell.

    Uses the quadrature of conservation_residuals, so the numerator is
    the program's own balance defect.
    """
    system = flux.system
    rhs_rule = triangle_rule(system.rhs_degree)
    erule = edge_rule(system.k + 1)
    out = np.empty(len(raw))
    for c, fan in enumerate(system.subtri.fans):
        load = 0.0
        boundary = 0.0
        for i in range(fan.n_edges):
            pts, wts = map_to_triangle(rhs_rule, fan.triangle(i))
            load += float(wts @ np.asarray(f(pts), dtype=float).reshape(-1))
            a, b = fan.loop[i], fan.loop[(i + 1) % fan.n_edges]
            pts, wts = map_to_edge(erule, a, b)
            boundary += float(wts @ np.abs(flux.tri_values(c, i, pts)
                                           @ fan.normals[i]))
        out[c] = fan.area * abs(raw[c]) / max(abs(load) + boundary, 1e-300)
    return out


def check(workload, problem, out) -> list[tuple]:
    """All gates that apply to this workload, on one pass's outputs."""
    gates = []
    # The solver's own flag, and the residual of the DoF vector it returned.
    res = system_residual(out.system, out.dofs)
    gates.append(("solver_converged",
                  bool(out.report.converged) and res <= SYSTEM_RESIDUAL_TOL,
                  res, SYSTEM_RESIDUAL_TOL))

    arrays = [out.dofs, out.residuals, *out.flux.coeffs,
              list(out.norms.values()), [out.jump["max_scaled_jump"]]]
    finite = all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)
    gates.append(("outputs_finite", finite, finite, True))

    scaled = float(np.max(out.scaled_residuals))
    gates.append(("conservation_scaled", scaled <= CONSERVATION_SCALED_TOL,
                  scaled, CONSERVATION_SCALED_TOL))
    jump = float(out.jump["max_scaled_jump"])
    gates.append(("flux_jump", jump <= FLUX_JUMP_TOL, jump, FLUX_JUMP_TOL))

    for key, (lo, hi) in workload.norm_band.items():
        val = out.norms[key]
        gates.append((f"norm_band.{key}", lo <= val <= hi, val, [lo, hi]))

    if workload.reference_tol is not None:
        n_cells = out.mesh.num_cells
        row = [r for r in TABLE1_REFERENCE if r[1] == n_cells]
        if not row:
            gates.append(("published_row", False, n_cells,
                          "a published row with this N_K"))
        else:
            _, _, sig_ref, u_ref = row[0]
            for key, ref in (("e_sigma_L2", sig_ref), ("e_L2", u_ref)):
                dev = abs(out.norms[key] - ref) / ref
                gates.append((f"published_row.{key}",
                              dev <= workload.reference_tol, dev,
                              workload.reference_tol))

    if problem.name == "example3":
        stars = out.system.subtri.star
        vals = [out.sol.u0_values(c, stars[c][None, :])[0]
                for c in range(len(stars))]
        lo, hi = float(np.min(vals)), float(np.max(vals))
        ok = -MAX_PRINCIPLE_MARGIN <= lo and hi <= 1 + MAX_PRINCIPLE_MARGIN
        gates.append(("max_principle", ok, [lo, hi],
                      [-MAX_PRINCIPLE_MARGIN, 1 + MAX_PRINCIPLE_MARGIN]))
    return gates


def same_outputs(dofs, ref_dofs) -> tuple:
    """Gate for later passes: the DoF vector repeats that of a gated pass."""
    if dofs.shape != ref_dofs.shape:
        return ("repeats_gated_pass", False, dofs.shape, ref_dofs.shape)
    scale = max(float(np.abs(ref_dofs).max()), 1e-300)
    diff = float(np.abs(dofs - ref_dofs).max()) / scale
    return ("repeats_gated_pass", diff <= 1e-12, diff, 1e-12)
