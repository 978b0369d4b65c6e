"""Polygonal meshes of planar domains.

A PolyMesh is a set of simple, counter-clockwise polygonal cells glued
along straight edges. Every cell carries a star point (an interior point
seeing the whole cell boundary) from which it is fanned into triangles;
the fans of all cells form the sub-triangulation that the flux space
lives on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.spatial import Delaunay, Voronoi

__all__ = [
    "MeshError",
    "MeshFormatError",
    "MeshValidationError",
    "StarShapeError",
    "GenerationError",
    "PolyMesh",
    "CellFan",
    "SubTriangulation",
    "MeshQualityReport",
    "build_polymesh",
    "load_mesh",
    "read_mesh",
    "mesh_document",
    "write_mesh",
    "gen_uniform_triangles",
    "gen_uniform_squares",
    "gen_voronoi_polygons",
    "gen_delaunay_triangles",
    "compute_star_points",
    "build_subtriangulation",
    "quality_report",
    "valence_groups",
    "fan_geometry",
    "cell_diameters",
    "mesh_size",
]

_WALL_TAGS = {"left": 1, "right": 2, "bottom": 3, "top": 4}


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class MeshFormatError(MeshError):
    """Mesh document cannot be parsed."""


class MeshValidationError(MeshError):
    """Mesh violates a structural invariant (orientation, manifoldness, ...)."""


class StarShapeError(MeshError):
    """A cell admits no valid star point / fan triangulation."""


class GenerationError(MeshError):
    """A mesh generator received degenerate input."""


class PolyMesh:
    """Immutable polygonal mesh.

    Attributes
    ----------
    vertices : (V, 2) float array
    cells : list of int arrays, CCW vertex loops
    edges : (E, 2) int array, canonical pairs with edges[e, 0] < edges[e, 1]
    edge_cells : (E, 2) int array; column 0 is the cell traversing the edge
        in canonical direction, column 1 the other cell or -1 on the boundary
    edge_markers : (E,) int array; 0 on interior edges, generator walls get
        1/2/3/4 for left/right/bottom/top
    cell_edges : list of int arrays; entry j is the edge id of the cell's
        loop segment from local vertex j to j+1
    h_report : reported mesh size (grid spacing for structured families,
        max cell diameter otherwise)
    """

    def __init__(self, vertices, cells, edges, edge_cells, edge_markers,
                 cell_edges, h_report=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = [np.asarray(c, dtype=np.intp) for c in cells]
        self.edges = np.asarray(edges, dtype=np.intp)
        self.edge_cells = np.asarray(edge_cells, dtype=np.intp)
        self.edge_markers = np.asarray(edge_markers, dtype=np.intp)
        self.cell_edges = [np.asarray(ce, dtype=np.intp) for ce in cell_edges]
        self.bbox = (self.vertices.min(axis=0), self.vertices.max(axis=0))
        self.h_report = float(h_report) if h_report is not None else None
        for arr in (self.vertices, self.edges, self.edge_cells, self.edge_markers):
            arr.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_edges(self):
        return np.flatnonzero(self.edge_cells[:, 1] < 0)

    def cell_vertices(self, c: int):
        return self.vertices[self.cells[c]]

    def cell_area(self, c: int) -> float:
        return _polygon_area(self.cell_vertices(c))

    def areas(self):
        return np.array([self.cell_area(c) for c in range(self.num_cells)])

    def is_triangle_mesh(self) -> bool:
        return all(len(c) == 3 for c in self.cells)


def _polygon_area(pts) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _polygon_centroid(pts):
    x, y = pts[:, 0], pts[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * cross.sum()
    cx = float(((x + np.roll(x, -1)) * cross).sum() / (6.0 * a))
    cy = float(((y + np.roll(y, -1)) * cross).sum() / (6.0 * a))
    return np.array([cx, cy])


def build_polymesh(vertices, cells, boundary_markers=None, h_report=None) -> PolyMesh:
    """Assemble and validate a PolyMesh from raw vertex/cell data.

    boundary_markers is an optional list of ((v0, v1), tag) pairs; unmarked
    boundary edges get tag 0. Raises MeshValidationError on any structural
    defect (repeated vertices in a loop, clockwise or degenerate loops,
    non-manifold edges, unused vertices, out-of-range indices).
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshValidationError("vertices must be an (V, 2) array")
    if not np.all(np.isfinite(vertices)):
        raise MeshValidationError("non-finite vertex coordinates")
    nv = len(vertices)

    loops = []
    for ci, cell in enumerate(cells):
        loop = np.asarray(cell, dtype=np.intp)
        if loop.ndim != 1 or len(loop) < 3:
            raise MeshValidationError(f"cell {ci} has fewer than 3 vertices")
        if loop.min() < 0 or loop.max() >= nv:
            raise MeshValidationError(f"cell {ci} references a vertex out of range")
        if len(np.unique(loop)) != len(loop):
            raise MeshValidationError(f"cell {ci} lists a vertex twice")
        area = _polygon_area(vertices[loop])
        if area <= 0.0:
            raise MeshValidationError(
                f"cell {ci} is clockwise or degenerate (signed area {area:.3e})")
        loops.append(loop)

    # Canonical edge table from consecutive loop pairs.
    edge_index: dict[tuple[int, int], int] = {}
    edges = []
    edge_cells = []
    cell_edges = []
    for ci, loop in enumerate(loops):
        ids = np.empty(len(loop), dtype=np.intp)
        for j in range(len(loop)):
            a, b = int(loop[j]), int(loop[(j + 1) % len(loop)])
            key = (a, b) if a < b else (b, a)
            e = edge_index.get(key)
            if e is None:
                e = len(edges)
                edge_index[key] = e
                edges.append(key)
                edge_cells.append([-1, -1])
            forward = 0 if (a, b) == key else 1
            if edge_cells[e][forward] != -1:
                raise MeshValidationError(
                    f"edge {key} traversed twice in the same direction "
                    "(non-manifold or inconsistent orientation)")
            edge_cells[e][forward] = ci
            ids[j] = e
        cell_edges.append(ids)

    edges = np.asarray(edges, dtype=np.intp)
    edge_cells = np.asarray(edge_cells, dtype=np.intp)
    # Normalize so column 0 is always a real cell.
    swap = edge_cells[:, 0] < 0
    edge_cells[swap] = edge_cells[swap][:, ::-1]
    if np.any(edge_cells[:, 0] < 0):
        raise MeshValidationError("edge with no adjacent cell")

    used = np.zeros(nv, dtype=bool)
    for loop in loops:
        used[loop] = True
    if not used.all():
        raise MeshValidationError(
            f"{np.count_nonzero(~used)} unused (dangling) vertices")

    markers = np.zeros(len(edges), dtype=np.intp)
    if boundary_markers is not None:
        for (v0, v1), tag in boundary_markers:
            key = (int(v0), int(v1)) if v0 < v1 else (int(v1), int(v0))
            e = edge_index.get(key)
            if e is None:
                raise MeshValidationError(f"marker references missing edge {key}")
            if edge_cells[e, 1] >= 0:
                raise MeshValidationError(f"marker on interior edge {key}")
            markers[e] = int(tag)

    return PolyMesh(vertices, loops, edges, edge_cells, markers, cell_edges,
                    h_report=h_report)


# ---------------------------------------------------------------------------
# Mesh documents (JSON)

def load_mesh(document: str) -> PolyMesh:
    """Parse a mesh document.

    The document is JSON with keys `vertices` (array of [x, y]), `cells`
    (array of arrays of 0-based CCW vertex indices) and optional
    `boundary_markers` (array of {"edge": [v0, v1], "tag": int}).
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MeshFormatError(f"mesh document is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "cells" not in data:
        raise MeshFormatError("mesh document must contain 'vertices' and 'cells'")
    markers = None
    if data.get("boundary_markers"):
        try:
            markers = [((m["edge"][0], m["edge"][1]), m["tag"])
                       for m in data["boundary_markers"]]
        except (KeyError, TypeError, IndexError) as exc:
            raise MeshFormatError("malformed boundary_markers entry") from exc
    try:
        vertices = np.asarray(data["vertices"], dtype=float)
    except ValueError as exc:
        raise MeshFormatError("malformed vertices array") from exc
    return build_polymesh(vertices, data["cells"], boundary_markers=markers,
                          h_report=data.get("h"))


def read_mesh(path) -> PolyMesh:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_mesh(fh.read())
    except OSError as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def mesh_document(mesh: PolyMesh) -> str:
    """Serialize to the JSON mesh document format (17 significant digits)."""
    lines = ["{", '  "vertices": [']
    for i, (x, y) in enumerate(mesh.vertices):
        comma = "," if i + 1 < mesh.num_vertices else ""
        lines.append(f"    [{_fmt(x)}, {_fmt(y)}]{comma}")
    lines.append("  ],")
    lines.append('  "cells": [')
    for ci, loop in enumerate(mesh.cells):
        comma = "," if ci + 1 < mesh.num_cells else ""
        lines.append("    [" + ", ".join(str(int(v)) for v in loop) + "]" + comma)
    lines.append("  ],")
    marked = [e for e in mesh.boundary_edges if mesh.edge_markers[e] != 0]
    lines.append('  "boundary_markers": [')
    for j, e in enumerate(marked):
        v0, v1 = mesh.edges[e]
        comma = "," if j + 1 < len(marked) else ""
        lines.append(
            f'    {{"edge": [{int(v0)}, {int(v1)}], "tag": {int(mesh.edge_markers[e])}}}{comma}')
    lines.append("  ]" + ("," if mesh.h_report is not None else ""))
    if mesh.h_report is not None:
        lines.append(f'  "h": {_fmt(mesh.h_report)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_mesh(mesh: PolyMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mesh_document(mesh))


# ---------------------------------------------------------------------------
# Generators

def _wall_markers_unit_square(mesh_vertices, edges, edge_cells, tol=1e-12):
    markers = np.zeros(len(edges), dtype=np.intp)
    for e in range(len(edges)):
        if edge_cells[e, 1] >= 0:
            continue
        p, q = mesh_vertices[edges[e, 0]], mesh_vertices[edges[e, 1]]
        if abs(p[0]) < tol and abs(q[0]) < tol:
            markers[e] = _WALL_TAGS["left"]
        elif abs(p[0] - 1) < tol and abs(q[0] - 1) < tol:
            markers[e] = _WALL_TAGS["right"]
        elif abs(p[1]) < tol and abs(q[1]) < tol:
            markers[e] = _WALL_TAGS["bottom"]
        elif abs(p[1] - 1) < tol and abs(q[1] - 1) < tol:
            markers[e] = _WALL_TAGS["top"]
    return markers


def _finish_unit_square_mesh(vertices, cells, h_report):
    mesh = build_polymesh(vertices, cells, h_report=h_report)
    markers = _wall_markers_unit_square(mesh.vertices, mesh.edges, mesh.edge_cells)
    return PolyMesh(mesh.vertices, mesh.cells, mesh.edges, mesh.edge_cells,
                    markers, mesh.cell_edges, h_report=h_report)


def gen_uniform_triangles(n: int) -> PolyMesh:
    """Unit square, n x n grid, each square split into two CCW triangles."""
    if n < 1:
        raise GenerationError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])
    return _finish_unit_square_mesh(vertices, cells, h_report=1.0 / n)


def gen_uniform_squares(n: int) -> PolyMesh:
    """Unit square partitioned into n x n square cells."""
    if n < 1:
        raise GenerationError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return _finish_unit_square_mesh(vertices, cells, h_report=1.0 / n)


def _mirrored_voronoi(seeds):
    """Voronoi diagram of seeds in [0,1]^2 mirrored across all four walls.

    Mirroring makes every original seed's region finite and clips the
    diagram to the unit square exactly.
    """
    left = seeds * [-1.0, 1.0]
    right = seeds * [-1.0, 1.0] + [2.0, 0.0]
    bottom = seeds * [1.0, -1.0]
    top = seeds * [1.0, -1.0] + [0.0, 2.0]
    return Voronoi(np.vstack([seeds, left, right, bottom, top]))


def _region_loop(vor, i):
    region = vor.regions[vor.point_region[i]]
    if -1 in region:
        raise GenerationError("unbounded Voronoi region survived mirroring")
    pts = vor.vertices[region]
    # Qhull gives no orientation guarantee; sort CCW around the seed.
    ang = np.arctan2(pts[:, 1] - vor.points[i, 1], pts[:, 0] - vor.points[i, 0])
    order = np.argsort(ang)
    return [region[k] for k in order]


def _lloyd_step(seeds):
    vor = _mirrored_voronoi(seeds)
    out = np.empty_like(seeds)
    for i in range(len(seeds)):
        loop = _region_loop(vor, i)
        out[i] = _polygon_centroid(vor.vertices[loop])
    return out


def gen_voronoi_polygons(n_seeds: int, lloyd_iters: int = 100,
                         rng_seed: int = 0) -> PolyMesh:
    """Lloyd-relaxed Voronoi partition of the unit square.

    Deterministic for fixed (n_seeds, lloyd_iters, rng_seed); all cells
    are convex and tile [0,1]^2 exactly.
    """
    if n_seeds < 2:
        raise GenerationError("n_seeds must be >= 2")
    rng = np.random.default_rng(rng_seed)
    seeds = rng.random((n_seeds, 2))
    if len(np.unique(seeds, axis=0)) != n_seeds:
        raise GenerationError("duplicate seeds")
    for _ in range(lloyd_iters):
        seeds = _lloyd_step(seeds)

    vor = _mirrored_voronoi(seeds)
    snap = 1e-9
    vmap: dict[tuple[float, float], int] = {}
    vertices: list[tuple[float, float]] = []
    cells = []
    for i in range(n_seeds):
        loop = _region_loop(vor, i)
        ids = []
        for v in loop:
            x, y = vor.vertices[v]
            # Wall vertices carry reflection noise; snap them exactly.
            x = 0.0 if abs(x) < snap else (1.0 if abs(x - 1) < snap else float(x))
            y = 0.0 if abs(y) < snap else (1.0 if abs(y - 1) < snap else float(y))
            key = (x, y)
            vi = vmap.get(key)
            if vi is None:
                vi = len(vertices)
                vmap[key] = vi
                vertices.append(key)
            if not ids or (ids[-1] != vi and ids[0] != vi):
                ids.append(vi)
        if len(ids) < 3:
            raise GenerationError(f"degenerate Voronoi cell for seed {i}")
        cells.append(ids)

    mesh = _finish_unit_square_mesh(np.asarray(vertices), cells, h_report=None)
    h = mesh_size(mesh)
    return PolyMesh(mesh.vertices, mesh.cells, mesh.edges, mesh.edge_cells,
                    mesh.edge_markers, mesh.cell_edges, h_report=h)


def gen_delaunay_triangles(n_points: int, rng_seed: int = 0) -> PolyMesh:
    """Delaunay triangulation of seeded random points plus the unit-square corners."""
    if n_points < 1:
        raise GenerationError("n_points must be >= 1")
    rng = np.random.default_rng(rng_seed)
    # Keep interior points off the walls so the hull is exactly the square.
    pts = 0.05 + 0.9 * rng.random((n_points, 2))
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    allpts = np.vstack([corners, pts])
    tri = Delaunay(allpts)
    cells = []
    for simplex in tri.simplices:
        loop = [int(v) for v in simplex]
        if _polygon_area(allpts[loop]) < 0:
            loop.reverse()
        cells.append(loop)
    mesh = _finish_unit_square_mesh(allpts, cells, h_report=None)
    return PolyMesh(mesh.vertices, mesh.cells, mesh.edges, mesh.edge_cells,
                    mesh.edge_markers, mesh.cell_edges, h_report=mesh_size(mesh))


def valence_groups(mesh: PolyMesh):
    """Cells grouped by edge count m, ascending.

    Returns a list of (cells (g,), loop vertex ids (g, m), loop edge ids
    (g, m)), one entry per m present in the mesh.
    """
    sizes = np.fromiter(map(len, mesh.cells), dtype=np.intp,
                        count=mesh.num_cells)
    first = np.cumsum(sizes) - sizes
    verts = np.concatenate(mesh.cells)
    edges = np.concatenate(mesh.cell_edges)
    out = []
    for m in np.unique(sizes):
        cells = np.flatnonzero(sizes == m)
        idx = first[cells, None] + np.arange(m)
        out.append((cells, verts[idx], edges[idx]))
    return out


def cell_diameters(mesh: PolyMesh):
    """Per-cell diameter: the largest distance between two vertices."""
    diam = np.empty(mesh.num_cells)
    for cells, verts, _ in valence_groups(mesh):
        pts = mesh.vertices[verts]
        d = pts[:, :, None, :] - pts[:, None, :, :]
        diam[cells] = np.sqrt((d ** 2).sum(axis=3)).max(axis=(1, 2))
    return diam


def mesh_size(mesh: PolyMesh) -> float:
    """Max cell diameter."""
    return float(cell_diameters(mesh).max())


# ---------------------------------------------------------------------------
# Star points and fans

def fan_geometry(loop, star):
    """Fan of CCW loops (..., m, 2) around star points (..., 2).

    Returns the fan triangle areas (..., m) and the outward unit normals,
    CCW unit tangents (..., m, 2) and lengths (..., m) of the outer edges.
    """
    x = np.asarray(star)[..., None, :]
    q = np.roll(loop, -1, axis=-2)
    cross = ((loop[..., 0] - x[..., 0]) * (q[..., 1] - x[..., 1])
             - (loop[..., 1] - x[..., 1]) * (q[..., 0] - x[..., 0]))
    d = q - loop
    lengths = np.sqrt((d ** 2).sum(axis=-1))
    if np.any(lengths <= 0):
        raise MeshValidationError("zero-length edge")
    t = d / lengths[..., None]
    n = np.stack([t[..., 1], -t[..., 0]], axis=-1)
    return 0.5 * cross, n, t, lengths


def _kernel_chebyshev(mesh: PolyMesh):
    """Center and radius of the largest disc inside each cell's kernel.

    The kernel of a cell is the intersection of the inner half-planes of its
    edges, i.e. the points that see the whole cell boundary. One
    block-diagonal LP over all cells maximises sum_c r_c subject to
    n_i . x_c + r_c <= n_i . p_i for every edge i of cell c (outward unit
    normal n_i, start vertex p_i). Each cell is posed in its own frame,
    centered at its vertex mean and scaled by its diameter, so the solver's
    absolute tolerances act relative to the cell. r_c is free, which keeps
    the LP feasible for any cell; r_c <= 0 means the kernel has no interior
    and raises StarShapeError naming the cell.
    """
    nc = mesh.num_cells
    # every cell's loop segments as flat arrays, cell by cell
    sizes = np.array([len(loop) for loop in mesh.cells])
    first = np.cumsum(sizes) - sizes
    cell = np.repeat(np.arange(nc), sizes)
    start = mesh.vertices[np.concatenate(mesh.cells)]
    j = np.arange(len(cell)) - first[cell]
    d = start[first[cell] + (j + 1) % sizes[cell]] - start
    lengths = np.sqrt((d ** 2).sum(axis=1))
    if np.any(lengths <= 0):
        raise MeshValidationError("zero-length edge")
    n = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    xbar = np.add.reduceat(start, first) / sizes[:, None]
    h = cell_diameters(mesh)
    a_ub = sp.csr_matrix(
        (np.column_stack([n, np.ones(len(cell))]).ravel(),
         (np.repeat(np.arange(len(cell)), 3),
          (3 * cell[:, None] + np.arange(3)).ravel())),
        shape=(len(cell), 3 * nc))
    b_ub = np.einsum("ij,ij->i", n, start - xbar[cell]) / h[cell]
    res = linprog(np.tile([0.0, 0.0, -1.0], nc), A_ub=a_ub, b_ub=b_ub,
                  bounds=(None, None), method="highs")
    if not res.success:
        raise StarShapeError(f"star-point LP failed: {res.message}")
    sol = res.x.reshape(nc, 3)
    bad = np.flatnonzero(sol[:, 2] <= 0.0)
    if len(bad):
        raise StarShapeError(
            f"cell {bad[0]} is not star-shaped (its kernel has no interior)")
    return xbar + h[:, None] * sol[:, :2], h * sol[:, 2]


def compute_star_points(mesh: PolyMesh, method: str = "chebyshev"):
    """Per-cell star points.

    method "chebyshev" (default) returns each cell's kernel Chebyshev
    center: the center of the largest disc inside the cell's kernel, the
    set of points that see the whole cell boundary. On a triangle this is
    the incenter, on a convex cell the center of the largest inscribed
    disc. All cells are solved together in one LP. "centroid" returns the
    area centroid, valid for convex cells. Raises StarShapeError when a
    cell has no star point.
    """
    if method == "chebyshev":
        return _kernel_chebyshev(mesh)[0]
    if method != "centroid":
        raise ValueError(f"unknown star point method {method!r}")
    pts_out = np.empty((mesh.num_cells, 2))
    for c in range(mesh.num_cells):
        pts = mesh.cell_vertices(c)
        pts_out[c] = _polygon_centroid(pts)
        if _clearance_star(pts, pts_out[c]) <= 0.0:
            raise StarShapeError(f"star point of cell {c} has nonpositive clearance")
    return pts_out


def _clearance_star(pts, x):
    """Min fan-triangle height relative measure; positive iff x fans the loop."""
    q = np.roll(pts, -1, axis=0)
    cross = ((pts[:, 0] - x[0]) * (q[:, 1] - x[1])
             - (pts[:, 1] - x[1]) * (q[:, 0] - x[0]))
    return float(cross.min())


@dataclass(frozen=True)
class CellFan:
    """Fan triangulation of one cell from its star point.

    Triangle i has vertices (star, loop[i], loop[i+1]) and outer edge
    edge_ids[i]; normals point out of the cell.
    """
    cell: int
    star: np.ndarray
    loop: np.ndarray            # (m, 2) CCW vertex coordinates
    edge_ids: np.ndarray        # (m,) global edge ids, loop order
    areas: np.ndarray           # (m,) fan triangle areas
    normals: np.ndarray         # (m, 2) outward unit normals
    tangents: np.ndarray        # (m, 2) CCW unit tangents
    midpoints: np.ndarray       # (m, 2) edge midpoints
    lengths: np.ndarray         # (m,) edge lengths
    xbar: np.ndarray            # vertex average
    h: float                    # sqrt(cell area)
    area: float

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    def triangle(self, i: int):
        """Vertices of fan triangle i as a (3, 2) array (star, v_i, v_{i+1})."""
        j = (i + 1) % self.n_edges
        return np.array([self.star, self.loop[i], self.loop[j]])


@dataclass(frozen=True)
class SubTriangulation:
    mesh: PolyMesh
    star: np.ndarray
    fans: list[CellFan] = field(repr=False)

    @property
    def num_triangles(self) -> int:
        return sum(f.n_edges for f in self.fans)


def build_subtriangulation(mesh: PolyMesh, star_points=None) -> SubTriangulation:
    """Fan every cell from its star point.

    Raises StarShapeError if any fan triangle has area <= 1e-12 * |K|.
    """
    if star_points is None:
        star_points = compute_star_points(mesh)
    star_points = np.asarray(star_points, dtype=float)
    if star_points.shape != (mesh.num_cells, 2):
        raise ValueError("star_points must be (num_cells, 2)")
    fans = [None] * mesh.num_cells
    degenerate = []
    for cells, verts, edge_ids in valence_groups(mesh):
        loop = mesh.vertices[verts]
        areas, n, t, lengths = fan_geometry(loop, star_points[cells])
        cell_area = areas.sum(axis=1)
        degenerate.extend(
            cells[np.any(areas <= 1e-12 * cell_area[:, None], axis=1)])
        mid = 0.5 * (loop + np.roll(loop, -1, axis=1))
        xbar = loop.mean(axis=1)
        h = np.sqrt(cell_area)
        for r, c in enumerate(cells.tolist()):
            fans[c] = CellFan(cell=c, star=star_points[c].copy(),
                              loop=loop[r], edge_ids=edge_ids[r],
                              areas=areas[r], normals=n[r], tangents=t[r],
                              midpoints=mid[r], lengths=lengths[r],
                              xbar=xbar[r], h=float(h[r]),
                              area=float(cell_area[r]))
    if degenerate:
        raise StarShapeError(f"cell {min(degenerate)}: star point yields a "
                             "degenerate fan triangle")
    return SubTriangulation(mesh=mesh, star=star_points, fans=fans)


@dataclass(frozen=True)
class MeshQualityReport:
    chunkiness: np.ndarray       # per cell, diameter / inscribed radius
    face_ratio: np.ndarray       # per cell, diameter / shortest face
    max_chunkiness: float
    max_face_ratio: float


def quality_report(mesh: PolyMesh, subtri: SubTriangulation) -> MeshQualityReport:
    """Shape-regularity diagnostics: all reported ratios are >= 1.

    rho is the radius of the largest disc inside the cell's kernel (the
    inradius for convex cells).
    """
    diam = cell_diameters(mesh)
    _, rho = _kernel_chebyshev(mesh)
    chunk = diam / rho
    face_ratio = diam / np.array([fan.lengths.min() for fan in subtri.fans])
    return MeshQualityReport(
        chunkiness=chunk,
        face_ratio=face_ratio,
        max_chunkiness=float(chunk.max()),
        max_face_ratio=float(face_ratio.max()),
    )
