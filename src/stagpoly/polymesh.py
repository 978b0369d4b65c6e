"""Polygonal meshes of planar domains.

A PolyMesh is a set of simple, counter-clockwise polygonal cells glued
along straight edges. Cells are stored in compressed sparse row (CSR)
form: the vertex loop of cell c fills the slots cell_ptr[c]:cell_ptr[c+1]
of the flat array cell_verts, and the same slots of cell_edges hold the
edges of its loop segments. Per-cell work is then a pass over the flat
slots: a successor index gives the next slot of each loop, and one
shoelace pass gives every cell's signed area and centroid. Every cell
carries a star point (an interior point seeing the whole cell boundary)
from which it is fanned into triangles; the fans of all cells form the
sub-triangulation that the flux space lives on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, permutations
from operator import itemgetter

import numpy as np
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
    """Immutable polygonal mesh, cells in compressed sparse row form.

    Attributes
    ----------
    vertices : (V, 2) float array
    cell_ptr : (C+1,) int array; cell c owns the loop slots
        cell_ptr[c]:cell_ptr[c+1], N = cell_ptr[-1] slots in all
    cell_verts : (N,) int array; every cell's CCW vertex loop, back to back
    cell_edges : (N,) int array; the edge of the loop segment from a slot's
        vertex to the next vertex of the same loop
    edges : (E, 2) int array, canonical pairs with edges[e, 0] < edges[e, 1],
        numbered in the order the loops first traverse them
    edge_cells : (E, 2) int array; column 0 is the cell traversing the edge
        in canonical direction, column 1 the other cell or -1 on the boundary
    edge_markers : (E,) int array; 0 on interior edges, generator walls get
        1/2/3/4 for left/right/bottom/top
    h_report : reported mesh size (grid spacing for structured families,
        max cell diameter otherwise)
    cells : per-cell read-only views of cell_verts
    """

    def __init__(self, vertices, cell_ptr, cell_verts, edges, edge_cells,
                 edge_markers, cell_edges, h_report=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cell_ptr = np.asarray(cell_ptr, dtype=np.intp)
        self.cell_verts = np.asarray(cell_verts, dtype=np.intp)
        self.cell_edges = np.asarray(cell_edges, dtype=np.intp)
        self.edges = np.asarray(edges, dtype=np.intp)
        self.edge_cells = np.asarray(edge_cells, dtype=np.intp)
        self.edge_markers = np.asarray(edge_markers, dtype=np.intp)
        self.h_report = float(h_report) if h_report is not None else None
        for arr in (self.vertices, self.cell_ptr, self.cell_verts,
                    self.cell_edges, self.edges, self.edge_cells,
                    self.edge_markers):
            arr.setflags(write=False)

    @cached_property
    def cells(self):
        return np.split(self.cell_verts, self.cell_ptr[1:-1])

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_edges(self):
        return np.flatnonzero(self.edge_cells[:, 1] < 0)

    def areas(self):
        return _shoelace(self.vertices[self.cell_verts], self.cell_ptr)[0]

    def is_triangle_mesh(self) -> bool:
        return bool(np.all(np.diff(self.cell_ptr) == 3))


def _successor(cell_ptr):
    """Flat index of the next slot of each slot's loop, (N,)."""
    nxt = np.arange(1, cell_ptr[-1] + 1)
    nxt[cell_ptr[1:] - 1] = cell_ptr[:-1]
    return nxt


def _shoelace(pts, cell_ptr):
    """Signed area (C,) and area centroid (C, 2) of the CSR loops pts (N, 2)."""
    q = pts[_successor(cell_ptr)]
    cross = pts[:, 0] * q[:, 1] - q[:, 0] * pts[:, 1]
    area = 0.5 * np.add.reduceat(cross, cell_ptr[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.add.reduceat((pts + q) * cross[:, None], cell_ptr[:-1]) \
            / (6.0 * area[:, None])
    return area, centroid


def _diameters(pts, cell_ptr):
    """Largest vertex-to-vertex distance of each CSR loop pts (N, 2)."""
    nxt = _successor(cell_ptr)
    far, j = np.zeros(len(pts)), nxt
    # offsets 1..m//2 along the loop reach every vertex pair of an m-gon
    for _ in range(int(np.diff(cell_ptr).max()) // 2):
        far = np.maximum(far, np.sqrt(((pts - pts[j]) ** 2).sum(axis=1)))
        j = nxt[j]
    return np.maximum.reduceat(far, cell_ptr[:-1])


def _csr(loops):
    """cell_ptr and flat vertex ids of a sequence of vertex loops."""
    sizes = np.fromiter(map(len, loops), dtype=np.intp)
    return np.r_[0, np.cumsum(sizes)], np.fromiter(chain.from_iterable(loops),
                                                   dtype=np.intp)


def _first_seen(keys):
    """Ids numbering the distinct rows of keys in order of first
    appearance, and the position of each id's first row."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


def _lowest(ids, message):
    """Raise MeshValidationError naming the lowest of the offending ids."""
    if len(ids):
        raise MeshValidationError(message.format(int(np.min(ids))))


def _connect(vertices, cell_ptr, cell_verts):
    """Validate CSR cell loops and build their edge table.

    Returns edges (E, 2), edge_cells (E, 2) and cell_edges (N,); edges are
    numbered in the order the loops first traverse them. Each check names
    the lowest-numbered offending cell or edge.
    """
    nv, nc = len(vertices), len(cell_ptr) - 1
    if nc == 0:
        raise MeshValidationError("mesh has no cells")
    sizes = np.diff(cell_ptr)
    _lowest(np.flatnonzero(sizes < 3), "cell {} has fewer than 3 vertices")
    cell = np.repeat(np.arange(nc), sizes)
    _lowest(cell[(cell_verts < 0) | (cell_verts >= nv)],
            "cell {} references a vertex out of range")
    pairs = np.sort(cell * nv + cell_verts)
    _lowest(pairs[1:][pairs[1:] == pairs[:-1]] // nv,
            "cell {} lists a vertex twice")
    area, _ = _shoelace(vertices[cell_verts], cell_ptr)
    bad = np.flatnonzero(area <= 0.0)
    if len(bad):
        raise MeshValidationError(
            f"cell {bad[0]} is clockwise or degenerate "
            f"(signed area {area[bad[0]]:.3e})")

    a, b = cell_verts, cell_verts[_successor(cell_ptr)]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    cell_edges, first = _first_seen(lo * nv + hi)
    edges = np.column_stack([lo, hi])[first]
    # side 0 runs along the canonical direction, side 1 against it
    side = 2 * cell_edges + (a > b)
    twice = np.flatnonzero(np.bincount(side, minlength=2 * len(edges)) > 1)
    if len(twice):
        raise MeshValidationError(
            f"edge {tuple(edges[twice[0] // 2].tolist())} traversed twice in "
            "the same direction (non-manifold or inconsistent orientation)")
    edge_cells = np.full((len(edges), 2), -1)
    edge_cells.reshape(-1)[side] = cell
    # Normalize so column 0 is always a real cell.
    swap = edge_cells[:, 0] < 0
    edge_cells[swap] = edge_cells[swap, ::-1]

    unused = np.count_nonzero(np.bincount(cell_verts, minlength=nv) == 0)
    if unused:
        raise MeshValidationError(f"{unused} unused (dangling) vertices")
    return edges, edge_cells, cell_edges


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
    try:
        kinds = set(map(type, chain.from_iterable(cells)))
        cell_ptr, cell_verts = _csr(cells)
    except (TypeError, ValueError) as exc:
        raise MeshValidationError(
            "cells must be sequences of vertex indices") from exc
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in kinds):
        raise MeshValidationError("vertex indices must be integers")
    edges, edge_cells, cell_edges = _connect(vertices, cell_ptr, cell_verts)

    markers = np.zeros(len(edges), dtype=np.intp)
    if boundary_markers:
        pairs, tags = zip(*boundary_markers)
        pairs = np.sort(np.asarray(pairs, dtype=np.intp).reshape(-1, 2), axis=1)
        # edges are distinct rows, so edge e keeps id e and a marker on a
        # missing edge gets an id past the last edge
        e = _first_seen(np.concatenate([edges, pairs]))[0][len(edges):]
        for bad, what in ((e >= len(edges), "marker references missing edge"),
                          (edge_cells[e % len(edges), 1] >= 0,
                           "marker on interior edge")):
            if bad.any():
                raise MeshValidationError(
                    f"{what} {tuple(pairs[bad.argmax()].tolist())}")
        markers[e] = np.asarray(tags, dtype=np.intp)

    return PolyMesh(vertices, cell_ptr, cell_verts, edges, edge_cells,
                    markers, cell_edges, h_report=h_report)


# ---------------------------------------------------------------------------
# Mesh documents (JSON)

def _rows_of(kinds, rows, width=None) -> bool:
    """Whether rows is a JSON list of lists (of length width, if given)
    whose entries all have one of the types kinds (a boolean is no int)."""
    return (type(rows) is list and set(map(type, rows)) <= {list}
            and (width is None or set(map(len, rows)) <= {width})
            and set(map(type, chain.from_iterable(rows))) <= set(kinds))


def load_mesh(document: str) -> PolyMesh:
    """Parse a mesh document.

    The document is JSON with keys `vertices` (array of [x, y]), `cells`
    (array of arrays of 0-based CCW vertex indices), optional
    `boundary_markers` (array of {"edge": [v0, v1], "tag": int}) and
    optional `h` (a number). Raises MeshFormatError when a value has the
    wrong JSON type.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MeshFormatError(f"mesh document is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "cells" not in data:
        raise MeshFormatError("mesh document must contain 'vertices' and 'cells'")
    if not _rows_of((int,), data["cells"]):
        raise MeshFormatError("cells must be arrays of integer vertex indices")
    h = data.get("h")
    if h is not None and type(h) not in (int, float):
        raise MeshFormatError("h must be a number")
    markers = data.get("boundary_markers") or []
    try:
        edges = list(map(itemgetter("edge"), markers))
        tags = list(map(itemgetter("tag"), markers))
        if not (_rows_of((int,), edges, 2) and _rows_of((int,), [tags])):
            raise TypeError
    except (KeyError, TypeError) as exc:
        raise MeshFormatError("malformed boundary_markers entry") from exc
    if not _rows_of((int, float), data["vertices"], 2):
        raise MeshFormatError("malformed vertices array")
    return build_polymesh(data["vertices"], data["cells"],
                          boundary_markers=list(zip(edges, tags)), h_report=h)


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
    marked = mesh.boundary_edges[mesh.edge_markers[mesh.boundary_edges] != 0]
    arrays = {
        "vertices": [f"[{_fmt(x)}, {_fmt(y)}]" for x, y in mesh.vertices.tolist()],
        "cells": [str(loop.tolist()) for loop in mesh.cells],
        "boundary_markers": [
            f'{{"edge": {edge}, "tag": {tag}}}' for edge, tag in
            zip(mesh.edges[marked].tolist(), mesh.edge_markers[marked].tolist())],
    }
    text = ",\n".join(f'  "{key}": [' + ",".join(f"\n    {row}" for row in rows)
                      + "\n  ]" for key, rows in arrays.items())
    if mesh.h_report is not None:
        text += f',\n  "h": {_fmt(mesh.h_report)}'
    return "{\n" + text + "\n}\n"


# ---------------------------------------------------------------------------
# Generators

def _wall_markers(vertices, edges, edge_cells, tol=1e-12):
    """Tag of the first unit-square wall holding each boundary edge."""
    p, q = vertices[edges[:, 0]], vertices[edges[:, 1]]
    boundary = edge_cells[:, 1] < 0
    # tags 1..4: left (x = 0), right (x = 1), bottom (y = 0), top (y = 1)
    on_wall = [boundary & (np.abs(p[:, axis] - at) < tol)
               & (np.abs(q[:, axis] - at) < tol)
               for axis, at in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0))]
    return np.select(on_wall, [1, 2, 3, 4], 0)


def _unit_square_mesh(vertices, cell_ptr, cell_verts, h_report=None):
    """PolyMesh of CSR loops tiling the unit square, walls tagged; h_report
    defaults to the largest cell diameter."""
    cell_verts = np.asarray(cell_verts, dtype=np.intp)
    edges, edge_cells, cell_edges = _connect(vertices, cell_ptr, cell_verts)
    if h_report is None:
        h_report = _diameters(vertices[cell_verts], cell_ptr).max()
    return PolyMesh(vertices, cell_ptr, cell_verts, edges, edge_cells,
                    _wall_markers(vertices, edges, edge_cells), cell_edges,
                    h_report=h_report)


def _grid(n: int):
    """Vertices of the (n+1) x (n+1) grid on the unit square, and the lower
    left vertex of each of its n x n squares, row i = x index."""
    if n < 1:
        raise GenerationError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    corner = ((n + 1) * np.arange(n)[:, None] + np.arange(n)).ravel()
    return np.column_stack([xv.ravel(), yv.ravel()]), corner


def gen_uniform_triangles(n: int) -> PolyMesh:
    """Unit square, n x n grid, each square split into two CCW triangles."""
    vertices, v00 = _grid(n)
    cells = np.column_stack([v00, v00 + n + 1, v00 + n + 2,
                             v00, v00 + n + 2, v00 + 1])
    return _unit_square_mesh(vertices, 3 * np.arange(2 * n * n + 1),
                             cells.ravel(), h_report=1.0 / n)


def gen_uniform_squares(n: int) -> PolyMesh:
    """Unit square partitioned into n x n square cells."""
    vertices, v00 = _grid(n)
    cells = np.column_stack([v00, v00 + n + 1, v00 + n + 2, v00 + 1])
    return _unit_square_mesh(vertices, 4 * np.arange(n * n + 1),
                             cells.ravel(), h_report=1.0 / n)


def _wall_distances(pts):
    """Signed distance (N, 4) of points to the left, right, bottom and top
    walls of the unit square, positive inside."""
    return np.column_stack([pts[:, 0], 1.0 - pts[:, 0],
                            pts[:, 1], 1.0 - pts[:, 1]])


_WALL_GAP = 1e-6
# walls left, right, bottom, top: the coordinate each fixes and its value
_AXIS, _AT = np.array([0, 0, 1, 1]), np.array([0.0, 1.0, 0.0, 1.0])


def _reflect(seeds, mirror):
    """Seeds followed by their reflections across the walls marked in
    mirror (n, 4), wall by wall and in seed order within a wall. Also
    returns, for every point, the seed it reflects and the wall it is
    reflected across, both -1 for the seeds themselves.

    Raises GenerationError for a seed nearer a wall than _WALL_GAP: with
    its reflection it makes slivers whose Voronoi vertices Qhull places
    off by more than 1e-12, or drops.
    """
    near = np.minimum(seeds, 1.0 - seeds)
    close = np.flatnonzero(np.minimum(near[:, 0], near[:, 1]) < _WALL_GAP)
    if len(close):
        raise GenerationError(f"seed {close[0]} is within {_WALL_GAP:g} of "
                              "a wall of the unit square")
    w, s = np.nonzero(mirror.T)
    images = seeds[s]
    row = np.arange(len(s))
    images[row, _AXIS[w]] = 2.0 * _AT[w] - images[row, _AXIS[w]]
    none = np.full(len(seeds), -1)
    return np.vstack([seeds, images]), np.concatenate([none, s]), \
        np.concatenate([none, w])


def _wall_pairs(mate, wall, groups):
    """Rows of the point-id groups (P, k) holding a seed and its own
    reflection, and the wall between the two, once per reflection; mate
    and wall are _reflect's per-point arrays."""
    rows, walls = [], []
    for j, i in permutations(range(groups.shape[1]), 2):
        hit = np.flatnonzero(mate[groups[:, j]] == groups[:, i])
        rows.append(hit)
        walls.append(wall[groups[hit, j]])
    return np.concatenate(rows), np.concatenate(walls)


def _voronoi_loops(seeds, mirror):
    """CCW Voronoi loops of seeds in [0,1]^2, clipped to the unit square.

    mirror (n, 4) marks the (seed, wall) pairs whose reflection joins the
    diagram, walls ordered left, right, bottom, top. A missing reflection
    can only bound its own seed's region: on the square's side of a wall a
    seed is closer than its reflection. So a region that is bounded and has
    every vertex strictly inside its unmirrored walls is exactly the region
    of full mirroring. Pairs that fail this check are mirrored and Qhull
    reruns; the mask only grows, so the worst case is full mirroring.
    The ridge of a seed and its reflection lies on their wall, so both of
    its vertices are put there exactly.
    Returns the loops in CSR form: cell_ptr (n+1,), Qhull vertex ids (N,)
    and the vertex coordinates.

    Raises GenerationError for a seed nearer a wall than _WALL_GAP.
    """
    mirror = np.array(mirror, dtype=bool)
    while True:
        pts, mate, wall = _reflect(seeds, mirror)
        vor = Voronoi(pts)
        coords = vor.vertices.copy()
        rows, w = _wall_pairs(mate, wall, vor.ridge_points)
        for end in np.asarray(vor.ridge_vertices)[rows].T:
            on = end >= 0
            coords[end[on], _AXIS[w[on]]] = _AT[w[on]]
        cell_ptr, ids = _csr(itemgetter(*vor.point_region[:len(seeds)])(vor.regions))
        # a vertex within round-off of a wall counts as on it
        reach = (_wall_distances(coords[ids]) <= 1e-12) | (ids < 0)[:, None]
        fail = np.logical_or.reduceat(reach, cell_ptr[:-1]) & ~mirror
        if not fail.any():
            break
        mirror |= fail
    if np.any(ids < 0):
        raise GenerationError("unbounded Voronoi region survived mirroring")
    cell_ptr, ids, coords = _mend_corners(seeds, cell_ptr, ids, coords)
    # Qhull gives no orientation guarantee; sort CCW around each seed.
    seed = np.repeat(np.arange(len(seeds)), np.diff(cell_ptr))
    rel = coords[ids] - seeds[seed]
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), seed))
    return cell_ptr, ids[order], coords


# Corners that fix the convex hull of every Lloyd triangulation: every
# point of the unit square is nearer a seed (at most sqrt 2 away) than a
# corner, and every reflection lies inside them. A seed whose region is
# unbounded without them then has a region vertex beyond a wall.
_BOX = np.array([[-2.0, -2.0], [3.0, -2.0], [3.0, 3.0], [-2.0, 3.0]])
# A flip needs the fourth point inside the circle by this much relative
# to the incircle determinant's rounding scale, so near-cocircular quads
# are left alone instead of flipping back and forth.
_INCIRCLE_TOL = 1e-12
# Flip rounds before the repair gives up and Qhull triangulates afresh.
_FLIP_ROUNDS = 32


def _corners(pts, tri):
    """Coordinates (T, 2) of each corner column of the triangles tri."""
    return [np.take(pts, tri[:, k], axis=0) for k in range(3)]


def _orientation(pts, tri):
    """Twice the signed area of each triangle (T, 3) of pts."""
    a, b, c = _corners(pts, tri)
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) \
        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _circumcenters(pts, tri):
    """Circumcenters (T, 2) of the CCW triangles tri (T, 3) of pts, each
    taken from the corner opposite its longest edge: from the corner
    opposite the short edge of a sliver, the two edge vectors are nearly
    parallel and their cross product loses digits."""
    a, b, c = _corners(pts, tri)
    # squared length of the edge opposite each corner
    la, lb, lc = ((q - p)[:, 0] ** 2 + (q - p)[:, 1] ** 2
                  for p, q in ((b, c), (c, a), (a, b)))
    k = np.where((la >= lb) & (la >= lc), 0, np.where(lb >= lc, 1, 2))
    o, p, q = (np.take(pts, tri.ravel()[3 * np.arange(len(tri)) + (k + i) % 3], axis=0)
               for i in range(3))
    u, v = p - o, q - o
    uu, vv = u[:, 0] ** 2 + u[:, 1] ** 2, v[:, 0] ** 2 + v[:, 1] ** 2
    den = 2.0 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    return o + np.column_stack([v[:, 1] * uu - u[:, 1] * vv,
                                u[:, 0] * vv - v[:, 0] * uu]) / den[:, None]


def _twins(tri):
    """Half-edge across each half-edge of the triangles tri (T, 3), -1 on
    the hull; half-edge 3t + k runs from tri[t, k] to tri[t, (k+1) % 3]."""
    a, b = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    key = np.minimum(a, b) * (tri.max() + 1) + np.maximum(a, b)
    order = np.argsort(key)
    pair = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    twin = np.full(len(a), -1)
    twin[order[pair]] = order[pair + 1]
    twin[order[pair + 1]] = order[pair]
    return twin


def _delaunay(pts):
    """CCW Delaunay triangles (T, 3) of pts and their _twins: Qhull's, with
    what its round-off left out, inverted or illegal mended by flips."""
    qhull = Delaunay(pts)
    # scipy orders each simplex counterclockwise; its ids are 32-bit
    tri = qhull.simplices.astype(np.intp)
    # Qhull drops a point within its round-off of another; split the
    # triangle holding it, and the flips below make the fan Delaunay
    for p in qhull.coplanar[:, 0]:
        # the triangle with p farthest inside all three of its edges
        side = [_orientation(pts, np.column_stack(
            [tri[:, k], tri[:, (k + 1) % 3], np.full(len(tri), p)])) for k in range(3)]
        t = np.minimum(np.minimum(side[0], side[1]), side[2]).argmax()
        a, b, c = tri[t]
        tri = np.vstack([np.delete(tri, t, axis=0), [[a, b, p], [b, c, p], [c, a, p]]])
    repaired = _flip_to_delaunay(pts, tri, _twins(tri))
    if repaired is None:
        raise GenerationError("degenerate Delaunay triangulation of the seeds")
    return repaired


def _incircle(a, b, c):
    """Incircle determinant of the origin against the CCW triangles (a, b,
    c), each (E, 2), positive when the origin is inside the circle; and
    the scale its rounding error is bounded by."""
    lift = [p[:, 0] ** 2 + p[:, 1] ** 2 for p in (a, b, c)]
    minor = [b[:, 0] * c[:, 1] - c[:, 0] * b[:, 1],
             c[:, 0] * a[:, 1] - a[:, 0] * c[:, 1],
             a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]]
    scale = [np.abs(b[:, 0] * c[:, 1]) + np.abs(c[:, 0] * b[:, 1]),
             np.abs(c[:, 0] * a[:, 1]) + np.abs(a[:, 0] * c[:, 1]),
             np.abs(a[:, 0] * b[:, 1]) + np.abs(b[:, 0] * a[:, 1])]
    return sum(x * y for x, y in zip(lift, minor)), \
        sum(x * y for x, y in zip(lift, scale))


def _flip_to_delaunay(pts, tri, twin):
    """Repair the CCW triangulation tri (T, 3), with its _twins, of moved
    points pts by edge flips; None when a flip would leave a triangle
    that is not CCW, a folded sliver lies on the hull, or the flips do not
    settle within _FLIP_ROUNDS.

    A triangle that is no longer CCW is a sliver whose middle corner
    crossed its longest edge, and that edge is flipped. Otherwise an edge
    is flipped when it is illegal (Lawson): the far point of the triangle
    across it lies inside its triangle's circle. The first round tests
    every interior edge, later ones the edges of the flipped triangles and
    the edges left to flip. Each round flips an independent set: an edge
    flips when its lower half-edge id is the largest among the edges to
    flip of both of its triangles.
    """
    tri, twin = tri.copy(), twin.copy()
    flat, he = tri.ravel(), np.arange(tri.size)
    nxt, prv = (he.reshape(-1, 3)[:, k].ravel() for k in ([1, 2, 0], [2, 0, 1]))
    crossed = np.flatnonzero(_orientation(pts, tri) <= 0)
    test = he[twin > he]
    for _ in range(_FLIP_ROUNDS):
        # is d, across edge (a, b), inside the circle of the triangle (a, b, c)?
        d = np.take(pts, flat[prv[twin[test]]], axis=0)
        det, scale = _incircle(*(np.take(pts, flat[h], axis=0) - d
                                 for h in (test, nxt[test], prv[test])))
        e = test[det > _INCIRCLE_TOL * scale]
        if len(crossed):
            h = 3 * crossed[:, None] + np.arange(3)
            edge = np.take(pts, flat[nxt[h]], axis=0) - np.take(pts, flat[h], axis=0)
            h = h[np.arange(len(h)), (edge ** 2).sum(axis=2).argmax(axis=1)]
            if (twin[h] < 0).any():
                return None
            e = np.union1d(e, np.minimum(h, twin[h]))
        if not len(e):
            return tri, twin
        top = np.full(tri.size, -1)
        top[e] = top[twin[e]] = e
        top = np.maximum(np.maximum(top[0::3], top[1::3]), top[2::3])
        go = (top[e // 3] == e) & (top[twin[e] // 3] == e)
        f1 = e[go]
        f2 = twin[f1]
        t1, t2 = f1 // 3, f2 // 3
        # (a, b, c) and (b, a, d) become (a, d, c) and (d, b, c)
        a, b, c, d = flat[f1], flat[nxt[f1]], flat[prv[f1]], flat[prv[f2]]
        new = np.concatenate([np.column_stack([a, d, c]),
                              np.column_stack([d, b, c])])
        if (_orientation(pts, new) <= 0).any():
            return None
        # the new position of every half-edge
        move = he.copy()
        move[nxt[f2]], move[f1], move[prv[f1]] = 3 * t1, 3 * t1 + 1, 3 * t1 + 2
        move[prv[f2]], move[nxt[f1]], move[f2] = 3 * t2, 3 * t2 + 1, 3 * t2 + 2
        tri[np.concatenate([t1, t2])] = new
        twin[move] = np.where(twin < 0, -1, move[twin])
        crossed = np.setdiff1d(crossed, np.concatenate([t1, t2]))
        test = np.concatenate([move[e[~go]], 3 * t1, 3 * t1 + 1, 3 * t1 + 2,
                               3 * t2, 3 * t2 + 1, 3 * t2 + 2])
        test = np.unique(np.where(twin[test] < test, twin[test], test))
        test = test[twin[test] >= 0]
    return None


def _lloyd_step(seeds, mirror, kept=None):
    """One Lloyd step: the centroid (n, 2) of every seed's Voronoi region
    clipped to the unit square, the largest seed-to-vertex distance, and
    the triangulation to pass on to the next step.

    The regions come from a Delaunay triangulation of the seeds, their
    reflections across the walls marked in mirror (n, 4) and the _BOX
    corners. A seed's region is the sum over its triangles (v, a, b) of the
    signed quads (v, mid(v, a), circumcenter, mid(v, b)). Regions are
    checked as in _voronoi_loops: a region vertex on or beyond a wall its
    seed was not reflected across gets that reflection, and the circumcenter
    of a triangle holding a seed and its reflection is put exactly on their
    wall.

    kept is what the previous step returned. Extra reflections leave the
    regions unchanged, so its triangulation serves any mask it covers,
    unless it carries over twice the reflections asked for (the first,
    fully reflected step). Lawson flips repair it after the seeds moved;
    Qhull triangulates only a new point set or a repair that fails.
    """
    n = len(seeds)
    mirror = np.array(mirror, dtype=bool)
    if kept is not None and not (mirror & ~kept[0]).any() \
            and kept[0].sum() <= 2 * mirror.sum():
        mirror = kept[0].copy()
    else:
        kept = None
    while True:
        pts, mate, wall = _reflect(seeds, mirror)
        pts = np.vstack([pts, _BOX])
        mate, wall = (np.concatenate([v, np.full(len(_BOX), -1)]) for v in (mate, wall))
        repaired = None if kept is None else _flip_to_delaunay(pts, *kept[1:])
        tri, twin = _delaunay(pts) if repaired is None else repaired
        cc = _circumcenters(pts, tri)
        rows, w = _wall_pairs(mate, wall, tri)
        cc[rows, _AXIS[w]] = _AT[w]
        # a vertex within round-off of a wall counts as on it
        near = np.minimum(cc, 1.0 - cc)
        out = np.flatnonzero(np.minimum(near[:, 0], near[:, 1]) <= 1e-12)
        rows, w = np.nonzero(_wall_distances(cc[out]) <= 1e-12)
        corner = tri[out[rows]]
        at = corner < n
        fail = np.zeros((n, 4), dtype=bool)
        fail[corner[at], np.repeat(w, 3)[at.ravel()]] = True
        fail &= ~mirror
        if not fail.any():
            break
        mirror |= fail
        kept = None
    # every corner at a seed o, with the next corners p and q of its triangle
    corner = np.flatnonzero(tri.ravel() < n)
    k = corner % 3
    s = tri.ravel()[corner]
    o = np.take(pts, s, axis=0)
    p, q = (0.5 * (np.take(pts, tri.ravel()[corner - k + (k + i) % 3], axis=0) - o)
            for i in (1, 2))
    m = np.take(cc, corner // 3, axis=0) - o
    pm = p[:, 0] * m[:, 1] - p[:, 1] * m[:, 0]
    mq = m[:, 0] * q[:, 1] - m[:, 1] * q[:, 0]
    area = np.bincount(s, pm + mq, minlength=n)
    moment = [np.bincount(s, pm * (p[:, i] + m[:, i]) + mq * (m[:, i] + q[:, i]),
                          minlength=n) for i in (0, 1)]
    centroid = seeds + np.column_stack(moment) / (3.0 * area[:, None])
    radius = np.sqrt((m[:, 0] ** 2 + m[:, 1] ** 2).max())
    return centroid, radius, (mirror, tri, twin)


_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _mend_corners(seeds, cell_ptr, ids, coords):
    """Rebuild the regions that lost a corner of the square.

    Each corner is a vertex of its nearest seed's region. When that seed is
    near a wall it makes a sliver with its two reflections, and Qhull can
    move the corner by more than tol = 1e-12 or drop it. Such a region is
    rebuilt by _clip_region; a rebuilt vertex within tol of one of
    Qhull's keeps Qhull's id, so the neighbors still share it.
    """
    tol = 1e-12
    nearest = np.argmin(((seeds[:, None] - _CORNERS) ** 2).sum(axis=2), axis=0)
    lost = {c for c, corner in zip(nearest.tolist(), _CORNERS)
            if np.abs(coords[ids[cell_ptr[c]:cell_ptr[c + 1]]]
                      - corner).max(axis=1).min() > tol}
    if not lost:
        return cell_ptr, ids, coords
    loops = np.split(ids, cell_ptr[1:-1])
    for c in sorted(lost):
        exact = _clip_region(seeds, c)
        gap = np.abs(exact[:, None] - coords[loops[c]]).max(axis=2)
        hit = gap.min(axis=1) <= tol
        loops[c] = np.where(hit, loops[c][gap.argmin(axis=1)],
                            len(coords) + np.cumsum(~hit) - 1)
        coords = np.vstack([coords, exact[~hit]])
    return *_csr(loops), coords


def _clip_region(seeds, i):
    """Voronoi region of seeds[i] among the seeds, clipped to the unit
    square: the square cut by the bisector of seed i and every seed close
    enough to reach it. On the square's side of a wall a seed is nearer
    than its reflection, so this is the region full mirroring gives."""
    s, poly = seeds[i], _CORNERS
    dist = np.sqrt(((seeds - s) ** 2).sum(axis=1))
    for j in np.argsort(dist)[1:]:
        if dist[j] > 2.0 * np.sqrt(((poly - s) ** 2).sum(axis=1)).max():
            break
        # f > 0 on seed j's side of the bisector
        f = (poly - 0.5 * (s + seeds[j])) @ (seeds[j] - s)
        f_next, nxt = np.roll(f, -1), np.roll(poly, -1, axis=0)
        cut = ((f < 0) & (f_next > 0)) | ((f > 0) & (f_next < 0))
        t = np.where(cut, f, 0.0) / np.where(cut, f - f_next, 1.0)
        both = np.stack([poly, poly + t[:, None] * (nxt - poly)], axis=1)
        poly = both[np.stack([f <= 0, cut], axis=1)]
    return poly


def gen_voronoi_polygons(n_seeds: int, lloyd_iters: int = 100,
                         rng_seed: int = 0) -> PolyMesh:
    """Lloyd-relaxed Voronoi partition of the unit square.

    Deterministic for fixed (n_seeds, lloyd_iters, rng_seed); all cells
    are convex and tile [0,1]^2 exactly.
    """
    if n_seeds < 2 or lloyd_iters < 0 or rng_seed < 0:
        raise GenerationError(
            "n_seeds must be >= 2, lloyd_iters and rng_seed >= 0 (got "
            f"{n_seeds}, {lloyd_iters}, {rng_seed})")
    rng = np.random.default_rng(rng_seed)
    # a seed nearer a wall than _voronoi_loops accepts moves out to that
    # distance; Lloyd moves every seed anyway
    seeds = np.clip(rng.random((n_seeds, 2)), _WALL_GAP, 1.0 - _WALL_GAP)
    if len(np.unique(seeds, axis=0)) != n_seeds:
        raise GenerationError("duplicate seeds")
    # The first step mirrors every seed (with lloyd_iters = 0 that is the
    # Voronoi diagram, and Qhull needs at least 4 points); later ones
    # mirror a seed across a wall closer than the farthest seed-to-vertex
    # distance of the last step.
    mirror, kept = np.ones((n_seeds, 4), dtype=bool), None
    for _ in range(lloyd_iters):
        seeds, radius, kept = _lloyd_step(seeds, mirror, kept)
        mirror = _wall_distances(seeds) < radius

    cell_ptr, ids, coords = _voronoi_loops(seeds, mirror)
    # Wall vertices carry reflection noise; snap them exactly.
    snap = 1e-9
    pts = coords[ids]
    pts = np.where(np.abs(pts) < snap, 0.0,
                   np.where(np.abs(pts - 1) < snap, 1.0, pts))
    vid, first = _first_seen(pts)
    # drop a vertex repeating its predecessor or its loop's first vertex
    lead = np.repeat(cell_ptr[:-1], np.diff(cell_ptr))
    keep = (vid != np.roll(vid, 1)) & (vid != vid[lead])
    keep[cell_ptr[:-1]] = True
    sizes = np.add.reduceat(keep.astype(np.intp), cell_ptr[:-1])
    bad = np.flatnonzero(sizes < 3)
    if len(bad):
        raise GenerationError(f"degenerate Voronoi cell for seed {bad[0]}")
    return _unit_square_mesh(pts[first], np.r_[0, np.cumsum(sizes)], vid[keep])


def gen_delaunay_triangles(n_points: int, rng_seed: int = 0) -> PolyMesh:
    """Delaunay triangulation of seeded random points plus the unit-square corners."""
    if n_points < 1 or rng_seed < 0:
        raise GenerationError("n_points must be >= 1 and rng_seed >= 0 "
                              f"(got {n_points}, {rng_seed})")
    rng = np.random.default_rng(rng_seed)
    # Keep interior points off the walls so the hull is exactly the square.
    pts = 0.05 + 0.9 * rng.random((n_points, 2))
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    allpts = np.vstack([corners, pts])
    simplices = Delaunay(allpts).simplices
    cell_ptr = 3 * np.arange(len(simplices) + 1)
    area, _ = _shoelace(allpts[simplices.ravel()], cell_ptr)
    cells = np.where(area[:, None] < 0, simplices[:, ::-1], simplices)
    return _unit_square_mesh(allpts, cell_ptr, cells.ravel())


def valence_groups(mesh: PolyMesh):
    """Cells grouped by edge count m, ascending.

    Returns a list of (cells (g,), loop vertex ids (g, m), loop edge ids
    (g, m)), one entry per m present in the mesh.
    """
    sizes = np.diff(mesh.cell_ptr)
    out = []
    for m in np.unique(sizes):
        cells = np.flatnonzero(sizes == m)
        idx = mesh.cell_ptr[cells, None] + np.arange(m)
        out.append((cells, mesh.cell_verts[idx], mesh.cell_edges[idx]))
    return out


def cell_diameters(mesh: PolyMesh):
    """Per-cell diameter: the largest distance between two vertices."""
    return _diameters(mesh.vertices[mesh.cell_verts], mesh.cell_ptr)


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

    The kernel, the points that see the whole cell boundary, is where
    n_i . x <= b_i for every edge i (outward unit normal n_i, b_i = n_i .
    p_i at its start vertex). Its Chebyshev center solves the LP max r s.t.
    n_i . x + r <= b_i, posed in the cell's frame (vertex mean, diameter).
    With r free the LP is feasible, and the normals of a closed loop span
    the plane, so the optimum is attained at a vertex: three active
    constraints. Each valence group (m edges) solves all C(m, 3) triples of
    its cells at once, skips the singular ones (two equal normals), keeps
    the vertices whose slacks are all >= -1e-12 and takes the largest r;
    the enumeration is exact. The center is the bounding-box midpoint of
    the vertices within 1e-12 of that r: the optimum when it is unique,
    else the midpoint of the optimal segment, whatever the numbering.
    Slacks are formed at most _CHEBYSHEV_BUDGET at a time. Raises
    StarShapeError naming the lowest cell whose r <= 0.
    """
    h = cell_diameters(mesh)
    center, radius = np.empty((mesh.num_cells, 2)), np.empty(mesh.num_cells)
    for cells, verts, _ in valence_groups(mesh):
        loop = mesh.vertices[verts]
        xbar = loop.mean(axis=1)
        n = fan_geometry(loop, xbar)[1]
        b = np.einsum("gik,gik->gi", n, loop - xbar[:, None]) / h[cells, None]
        triples = np.array(list(combinations(range(verts.shape[1]), 3)))
        step = max(1, _CHEBYSHEV_BUDGET // triples.shape[0] // b.shape[1])
        for rows in (slice(i, i + step) for i in range(0, len(cells), step)):
            x, r = _best_vertices(n[rows], b[rows], triples)
            c = cells[rows]
            center[c], radius[c] = xbar[rows] + h[c, None] * x, h[c] * r
    bad = np.flatnonzero(radius <= 0.0)
    if len(bad):
        raise StarShapeError(
            f"cell {bad[0]} is not star-shaped (its kernel has no interior)")
    return center, radius


_CHEBYSHEV_BUDGET = 1 << 18


def _best_vertices(n, b, triples):
    """Bounding-box midpoint (g, 2) of the optimal vertices of max r s.t.
    n . x + r <= b, n (g, m, 2), b (g, m), and the optimal r (g,), trying
    the constraint triples (T, 3)."""
    tol = 1e-12
    nt, bt = n[:, triples], b[:, triples]
    # rows 1 and 2 minus row 0 eliminate r; Cramer's rule gives x
    u, v = nt[..., 1, :] - nt[..., 0, :], nt[..., 2, :] - nt[..., 0, :]
    bu, bv = bt[..., 1] - bt[..., 0], bt[..., 2] - bt[..., 0]
    det = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    ok = det != 0.0
    x = np.stack([bu * v[..., 1] - bv * u[..., 1],
                  bv * u[..., 0] - bu * v[..., 0]], axis=-1) \
        / np.where(ok, det, 1.0)[..., None]
    r = bt[..., 0] - np.einsum("gtk,gtk->gt", nt[..., 0, :], x)
    span = max(1, _CHEBYSHEV_BUDGET // b.size)
    for t in (slice(i, i + span) for i in range(0, len(triples), span)):
        slack = b[:, None] - x[:, t] @ n.transpose(0, 2, 1) - r[:, t, None]
        ok[:, t] &= np.all(slack >= -tol, axis=-1)
    r = np.where(ok, r, -np.inf)
    best = r.max(axis=1)
    tie = (r >= best[:, None] - tol)[..., None]
    return 0.5 * (np.where(tie, x, np.inf).min(axis=1)
                  + np.where(tie, x, -np.inf).max(axis=1)), best


def compute_star_points(mesh: PolyMesh, method: str = "chebyshev"):
    """Per-cell star points.

    method "chebyshev" (default) returns each cell's kernel Chebyshev
    center: the center of the largest disc inside the cell's kernel, the
    set of points that see the whole cell boundary. On a triangle this is
    the incenter, on a convex cell the center of the largest inscribed
    disc. Each cell's 3-variable LP is solved exactly by enumerating its
    vertices, valence group by valence group, not as one block LP; where
    the largest disc can slide along a segment, the star point is the
    segment's midpoint. "centroid" returns the area centroid, valid for
    convex cells. Raises StarShapeError when a cell has no star point.
    """
    if method == "chebyshev":
        return _kernel_chebyshev(mesh)[0]
    if method != "centroid":
        raise ValueError(f"unknown star point method {method!r}")
    cell = np.repeat(np.arange(mesh.num_cells), np.diff(mesh.cell_ptr))
    pts = mesh.vertices[mesh.cell_verts]
    star = _shoelace(pts, mesh.cell_ptr)[1]
    # the centroid fans its cell iff every fan triangle is positive
    p, q = pts - star[cell], pts[_successor(mesh.cell_ptr)] - star[cell]
    bad = cell[p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0] <= 0.0]
    if len(bad):
        raise StarShapeError(
            f"star point of cell {bad[0]} has nonpositive clearance")
    return star


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

    @cached_property
    def fans(self) -> list[CellFan]:
        """One CellFan per cell, built on first use."""
        fans = [None] * self.mesh.num_cells
        for cells, verts, edge_ids in valence_groups(self.mesh):
            loop = self.mesh.vertices[verts]
            areas, n, t, lengths = fan_geometry(loop, self.star[cells])
            area = areas.sum(axis=1)
            mid = 0.5 * (loop + np.roll(loop, -1, axis=1))
            xbar = loop.mean(axis=1)
            for r, c in enumerate(cells.tolist()):
                fans[c] = CellFan(
                    cell=c, star=self.star[c].copy(), loop=loop[r],
                    edge_ids=edge_ids[r], areas=areas[r], normals=n[r],
                    tangents=t[r], midpoints=mid[r], lengths=lengths[r],
                    xbar=xbar[r], h=float(np.sqrt(area[r])),
                    area=float(area[r]))
        return fans


def build_subtriangulation(mesh: PolyMesh, star_points=None) -> SubTriangulation:
    """Fan every cell from its star point.

    Raises StarShapeError if any fan triangle has area <= 1e-12 * |K|.
    """
    if star_points is None:
        star_points = compute_star_points(mesh)
    star_points = np.asarray(star_points, dtype=float)
    if star_points.shape != (mesh.num_cells, 2):
        raise ValueError("star_points must be (num_cells, 2)")
    degenerate = []
    for cells, verts, _ in valence_groups(mesh):
        areas = fan_geometry(mesh.vertices[verts], star_points[cells])[0]
        degenerate.extend(cells[np.any(
            areas <= 1e-12 * areas.sum(axis=1)[:, None], axis=1)])
    if degenerate:
        raise StarShapeError(f"cell {min(degenerate)}: star point yields a "
                             "degenerate fan triangle")
    return SubTriangulation(mesh=mesh, star=star_points)


@dataclass(frozen=True)
class MeshQualityReport:
    chunkiness: np.ndarray       # per cell, diameter / inscribed radius
    face_ratio: np.ndarray       # per cell, diameter / shortest face
    max_chunkiness: float
    max_face_ratio: float


def quality_report(mesh: PolyMesh) -> MeshQualityReport:
    """Shape-regularity diagnostics: all reported ratios are >= 1.

    rho is the radius of the largest disc inside the cell's kernel (the
    inradius for convex cells).
    """
    diam = cell_diameters(mesh)
    _, rho = _kernel_chebyshev(mesh)
    chunk = diam / rho
    d = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    lengths = np.sqrt((d ** 2).sum(axis=1))
    face_ratio = diam / np.minimum.reduceat(lengths[mesh.cell_edges],
                                            mesh.cell_ptr[:-1])
    return MeshQualityReport(
        chunkiness=chunk,
        face_ratio=face_ratio,
        max_chunkiness=float(chunk.max()),
        max_face_ratio=float(face_ratio.max()),
    )
