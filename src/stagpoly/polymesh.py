"""Polygonal meshes of planar domains.

A PolyMesh is a set of simple, counter-clockwise polygonal cells glued
along straight edges, in compressed sparse row (CSR) form: cell c's
vertex loop fills the slots cell_ptr[c]:cell_ptr[c+1] of cell_verts, and
the same slots of cell_edges hold the edges of its loop segments. Flat
passes over the slots give areas and diameters; mesh.groups stacks the
cells of each edge count into one CellGroup of edge geometry, built once
for the star points, the fans and the element layer. Each cell is fanned
into triangles from its star point, an interior point seeing its whole
boundary; the fans form the sub-triangulation that the flux space lives
on.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "MeshValidationError",
    "StarShapeError",
    "GenerationError",
    "PolyMesh",
    "CellGroup",
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
    "fan_areas",
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
    h_report : reported mesh size (grid spacing for structured families;
        the largest cell diameter when not given)
    cells : per-cell read-only views of cell_verts
    diameters : (C,) float array; each cell's largest distance between two
        of its vertices, computed once with the mesh
    groups : one CellGroup per edge count m, ascending, built on first use
        and shared by star points, fans and element operators
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
        self.diameters = _diameters(self.vertices[self.cell_verts],
                                    self.cell_ptr)
        self.h_report = float(self.diameters.max() if h_report is None
                              else h_report)
        for arr in (self.vertices, self.cell_ptr, self.cell_verts,
                    self.cell_edges, self.edges, self.edge_cells,
                    self.edge_markers, self.diameters):
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
        return _shoelace(self.vertices[self.cell_verts], self.cell_ptr)

    @cached_property
    def groups(self) -> tuple:
        sizes = np.diff(self.cell_ptr)
        return tuple(_cell_group(self, np.flatnonzero(sizes == m), m)
                     for m in np.unique(sizes))


@dataclass(frozen=True)
class CellGroup:
    """The g cells with m edges in rows, every array read-only: cell
    cells[r] has CCW vertex ids verts[r] (g, m) at loop[r] (g, m, 2); its
    edge t, from loop[r, t] to loop[r, t+1], is mesh edge edge_ids[r, t],
    of length lengths[r, t], with outward unit normal frames[r, t, 0] and
    CCW unit tangent frames[r, t, 1]; orient[r, t] is +1 where the loop
    runs along the edge's canonical direction, else -1; xbar[r] is the
    vertex mean."""
    cells: np.ndarray
    verts: np.ndarray
    edge_ids: np.ndarray
    loop: np.ndarray
    frames: np.ndarray
    lengths: np.ndarray
    xbar: np.ndarray
    orient: np.ndarray

    def __post_init__(self):
        for f in fields(CellGroup):
            getattr(self, f.name).setflags(write=False)

    @property
    def n_edges(self) -> int:
        return self.verts.shape[1]


def _cell_group(mesh, cells, m) -> CellGroup:
    """CellGroup of the cells (g,) with m edges; raises MeshValidationError
    on a zero-length edge."""
    idx = mesh.cell_ptr[cells, None] + np.arange(m)
    verts, edge_ids = mesh.cell_verts[idx], mesh.cell_edges[idx]
    loop = mesh.vertices[verts]
    d = np.roll(loop, -1, axis=1) - loop
    lengths = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)
    if np.any(lengths <= 0):
        raise MeshValidationError("zero-length edge")
    t = d / lengths[..., None]
    frames = np.stack([np.stack([t[..., 1], -t[..., 0]], axis=-1), t], axis=2)
    return CellGroup(cells, verts, edge_ids, loop, frames, lengths,
                     loop.mean(axis=1),
                     np.where(mesh.edges[edge_ids, 0] == verts, 1.0, -1.0))


def _successor(cell_ptr):
    """Flat index of the next slot of each slot's loop, (N,)."""
    nxt = np.arange(1, cell_ptr[-1] + 1)
    nxt[cell_ptr[1:] - 1] = cell_ptr[:-1]
    return nxt


def _shoelace(pts, cell_ptr):
    """Signed area (C,) of the CSR loops pts (N, 2)."""
    q = pts[_successor(cell_ptr)]
    cross = pts[:, 0] * q[:, 1] - q[:, 0] * pts[:, 1]
    return 0.5 * np.add.reduceat(cross, cell_ptr[:-1])


def _diameters(pts, cell_ptr):
    """Largest vertex-to-vertex distance of each CSR loop pts (N, 2)."""
    nxt = _successor(cell_ptr)
    far, j = np.zeros(len(pts)), nxt
    # offsets 1..m//2 along the loop reach every vertex pair of an m-gon
    for _ in range(int(np.diff(cell_ptr).max()) // 2):
        d = pts - pts[j]
        far = np.maximum(far, np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2))
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
    area = _shoelace(vertices[cell_verts], cell_ptr)
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
    return "{\n" + text + f',\n  "h": {_fmt(mesh.h_report)}' + "\n}\n"


# ---------------------------------------------------------------------------
# Generators

def _wall_markers(vertices, edges, edge_cells, tol=1e-12):
    """Tag of the first unit-square wall holding each boundary edge."""
    # tags 1..4: left (x = 0), right (x = 1), bottom (y = 0), top (y = 1)
    near = np.abs(_wall_distances(vertices.T)) < tol
    on = (edge_cells[:, 1] < 0) & near[:, edges[:, 0]] & near[:, edges[:, 1]]
    return np.select(list(on), [1, 2, 3, 4], 0)


def _unit_square_mesh(vertices, cell_ptr, cell_verts, h_report=None):
    """PolyMesh of CSR loops tiling the unit square, walls tagged."""
    cell_verts = np.asarray(cell_verts, dtype=np.intp)
    edges, edge_cells, cell_edges = _connect(vertices, cell_ptr, cell_verts)
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


def _wall_distances(xy):
    """Signed distance (4, N) of the points xy (2, N) to the left, right,
    bottom and top walls of the unit square, positive inside."""
    return np.array([xy[0], 1.0 - xy[0], xy[1], 1.0 - xy[1]])


_WALL_GAP = 1e-6
# walls left, right, bottom, top: the coordinate each fixes and its value
_AXIS, _AT = np.array([0, 0, 1, 1]), np.array([0.0, 1.0, 0.0, 1.0])


def _read_only(*arrays):
    """The arrays, each made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _check_wall_gap(seeds):
    """Raise GenerationError for a seed nearer a wall than _WALL_GAP: the
    gap keeps a seed, its reflection and their slivers far above the 1e-12
    within which the region checks take a vertex to be on a wall."""
    # 1 - x < _WALL_GAP exactly when x > 1 - _WALL_GAP, which rounds down
    if seeds.min() < _WALL_GAP or seeds.max() > 1.0 - _WALL_GAP:
        close = (_wall_distances(seeds.T).min(axis=0) < _WALL_GAP).nonzero()[0]
        raise GenerationError(f"seed {close[0]} is within {_WALL_GAP:g} of "
                              "a wall of the unit square")


def _reflection(mirror):
    """The points that _diagram triangulates for the mask mirror (n, 4), as
    a map of the seeds: point i has the coordinates seeds[src[i]] *
    scale[:, i] + off[:, i]. They are the seeds, their reflections across
    the marked walls (wall by wall and in seed order within a wall; -x + 2a
    rounds as 2a - x does), then the _BOX corners (scale 0). Returns src,
    the rows scale and off (2, P) and, for every point, the seed it
    reflects and the wall it is reflected across, both -1 for the seeds and
    the corners; every array read-only."""
    n, box = len(mirror), len(_BOX)
    w, s = np.nonzero(mirror.T)
    row = n + np.arange(len(s))
    src = np.concatenate([np.arange(n), s, np.zeros(box, dtype=np.intp)])
    scale, off = np.ones((2, len(src))), np.zeros((2, len(src)))
    scale[_AXIS[w], row] = -1.0
    off[_AXIS[w], row] = 2.0 * _AT[w]
    scale[:, n + len(s):], off[:, n + len(s):] = 0.0, _BOX.T
    none, pad = np.full(n, -1), np.full(box, -1)
    return _read_only(src, scale, off, np.concatenate([none, s, pad]),
                      np.concatenate([none, w, pad]))


def _wall_pairs(mate, wall, tri):
    """Rows of the triangles tri (T, 3) holding a seed and its own
    reflection, and the wall between the two, once per reflection; mate
    and wall are _reflection's per-point arrays. The plain form of the
    rows and walls that _Kept.corners builds from its shared gathers."""
    a, b = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    # a seed's mate is -1, and a reflection's id is above its seed's
    h = np.flatnonzero((mate[a] == b) | (mate[b] == a))
    return h // 3, wall[np.maximum(a[h], b[h])]


# Corners that fix the convex hull of every Lloyd triangulation: every
# point of the unit square is nearer a seed (at most sqrt 2 away) than a
# corner, and every reflection lies inside them. A seed whose region is
# unbounded without them then has a region vertex beyond a wall.
_BOX = np.array([[-2.0, -2.0], [3.0, -2.0], [3.0, 3.0], [-2.0, 3.0]])
# A flip needs the fourth point inside the circle by this much relative
# to the incircle determinant's rounding scale, so near-cocircular quads
# are left alone instead of flipping back and forth; _voronoi_loops gives
# the two triangles of such a quad one vertex.
_INCIRCLE_TOL = 1e-12
# Flip rounds before the repair gives up and Qhull triangulates afresh.
_FLIP_ROUNDS = 32


def _orientation(xy, tri):
    """Twice the signed area of each triangle (T, 3) of the points xy (2, P)."""
    x, y = xy.take(tri.T, axis=1)
    return (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])


def _circumcenters(xy, tri):
    """Circumcenters (2, T) of the CCW triangles tri (T, 3) of the points
    xy (2, P), each taken from the corner opposite its longest edge: from
    the corner opposite the short edge of a sliver, the two edge vectors
    are nearly parallel and their cross product loses digits."""
    corners = xy.take(tri.T, axis=1)
    # the corners a, b, c, a, b, and the edge opposite each of a, b, c
    corners = np.concatenate([corners, corners[:, :2]], axis=1)
    d = corners[:, 2:] - corners[:, 1:4]
    la, lb, lc = d[0] ** 2 + d[1] ** 2
    # o, p and q: the corner k opposite the longest edge and the two after
    # it, each triangle's three taken from the five flattened corners
    k = np.where((la >= lb) & (la >= lc), 0, 2 - (lb >= lc))
    at = k * len(k) + np.arange(3 * len(k)).reshape(3, -1)
    o, p, q = corners.reshape(2, -1).take(at, axis=1).transpose(1, 0, 2)
    u, v = p - o, q - o
    uu, vv = u[0] ** 2 + u[1] ** 2, v[0] ** 2 + v[1] ** 2
    den = 2.0 * (u[0] * v[1] - u[1] * v[0])
    return o + np.array([v[1] * uu - u[1] * vv, u[0] * vv - v[0] * uu]) / den


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


def _delaunay(xy):
    """CCW Delaunay triangles (T, 3) of the points xy (2, P) and their
    _twins: Qhull's, with what its round-off left out, inverted or illegal
    mended by flips."""
    # Qhull loads only for Voronoi and Delaunay meshes
    from scipy.spatial import Delaunay
    qhull = Delaunay(xy.T)
    # scipy orders each simplex counterclockwise; its ids are 32-bit
    tri = qhull.simplices.astype(np.intp)
    # Qhull drops a point within its round-off of another; split the
    # triangle holding it, and the flips below make the fan Delaunay
    for p in qhull.coplanar[:, 0]:
        # the triangle with p farthest inside all three of its edges
        side = [_orientation(xy, np.column_stack(
            [tri[:, k], tri[:, (k + 1) % 3], np.full(len(tri), p)])) for k in range(3)]
        t = np.minimum(np.minimum(side[0], side[1]), side[2]).argmax()
        a, b, c = tri[t]
        tri = np.vstack([np.delete(tri, t, axis=0), [[a, b, p], [b, c, p], [c, a, p]]])
    repaired = _flip_to_delaunay(xy, _Kept(None, tri, _twins(tri)))
    if repaired is None:
        raise GenerationError("degenerate Delaunay triangulation of the seeds")
    return repaired.tri, repaired.twin


def _incircle_ids(flat, nxt, prv, twin, h):
    """Point ids (4, E) of the corners a, b, c of the triangle of each
    interior half-edge h, from a to b, and of the far point d of the
    triangle across it; flat holds the raveled triangles, nxt and prv the
    next and the previous half-edge in each triangle."""
    return flat[np.array([h, nxt[h], prv[h], prv[twin[h]]])]


def _incircle(xy, ids):
    """Incircle determinant of each far point d against its CCW triangle
    (a, b, c), positive when d is inside the circle, and the scale its
    rounding error is bounded by; ids (4, E) are _incircle_ids of the
    points xy (2, P)."""
    corners = xy.take(ids, axis=1)
    rel = corners[:, :3] - corners[:, 3:]
    # the corners a, b, c, a, b relative to d
    x, y = np.concatenate([rel, rel[:, :2]], axis=1)
    lift = x[:3] ** 2 + y[:3] ** 2
    # the two products of each 2x2 minor, of the corners after each corner
    p, q = x[1:4] * y[2:], x[2:] * y[1:4]
    det, scale = lift * (p - q), lift * (np.abs(p) + np.abs(q))
    return det[0] + det[1] + det[2], scale[0] + scale[1] + scale[2]


def _flip_to_delaunay(xy, kept):
    """Repair the CCW triangulation of the _Kept record kept for the moved
    points xy (2, P) by edge flips; None when a flip would leave a
    triangle that is not CCW, a folded sliver lies on the hull, or the
    flips do not settle within _FLIP_ROUNDS. When nothing needs a flip it
    returns kept itself, else kept.with_triangles of copies of its arrays;
    it never writes to them.

    A triangle that is no longer CCW is a sliver whose middle corner
    crossed its longest edge, and that edge is flipped. Otherwise an edge
    is flipped when it is illegal (Lawson): the far point of the triangle
    across it lies inside its triangle's circle. The first round tests
    every interior edge, later ones the edges of the flipped triangles and
    the edges left to flip. Each round flips an independent set: an edge
    flips when its lower half-edge id is the largest among the edges to
    flip of both of its triangles.
    """
    tri, twin = kept.tri, kept.twin
    flat = tri.ravel()
    he, nxt, prv = kept.half_edges
    crossed = (_orientation(xy, tri) <= 0).nonzero()[0]
    test, ids = kept.first_round
    for r in range(_FLIP_ROUNDS):
        if r:
            ids = _incircle_ids(flat, nxt, prv, twin, test)
        # is d, across edge (a, b), inside the circle of the triangle (a, b, c)?
        det, scale = _incircle(xy, ids)
        e = test[det > _INCIRCLE_TOL * scale]
        if len(crossed):
            h = 3 * crossed[:, None] + np.arange(3)
            edge = xy.take(flat[nxt[h]], axis=1) - xy.take(flat[h], axis=1)
            h = h[np.arange(len(h)), (edge[0] ** 2 + edge[1] ** 2).argmax(axis=1)]
            if (twin[h] < 0).any():
                return None
            e = np.union1d(e, np.minimum(h, twin[h]))
        if not len(e):
            return kept.with_triangles(tri, twin) if r else kept
        e2 = twin[e]
        top = np.full(tri.size, -1)
        top[e] = top[e2] = e
        top = np.maximum(np.maximum(top[0::3], top[1::3]), top[2::3])
        go = (top[e // 3] == e) & (top[e2 // 3] == e)
        f1 = e[go]
        f2 = e2[go]
        n1, p1, n2, p2 = nxt[f1], prv[f1], nxt[f2], prv[f2]
        # (a, b, c) and (b, a, d) become (a, d, c) and (d, b, c): corner
        # rows (3, 2F), the new triangles t1 then t2
        a, b, c, d = flat[np.array([f1, n1, p1, p2])]
        new = np.array([[a, d], [d, b], [c, c]]).reshape(3, -1)
        if (_orientation(xy, new.T) <= 0).any():
            return None
        if not r:
            tri, twin = tri.copy(), twin.copy()
            flat = tri.ravel()
        # the new position of every half-edge: slot k of the new triangle t
        # takes the half-edge from its corner k to the next
        t = np.concatenate([f1, f2]) // 3
        slot = 3 * t + np.arange(3)[:, None]
        old = np.array([[n2, p2], [f1, n1], [p1, f2]]).reshape(3, -1)
        across = twin[old]
        move = he.copy()
        move[old] = slot
        tri[t] = new.T
        # twins change only at the slots and at the neighbours across them;
        # a neighbour that moved too is written at its old place, which is
        # a slot and is written again after
        hull = across < 0
        twin[across[~hull]] = slot[~hull]
        twin[slot] = np.where(hull, -1, move[across])
        if len(crossed):
            crossed = np.setdiff1d(crossed, t)
        # the next round tests the edges left to flip and those of the new
        # triangles, each once, by its lower half-edge; the -1 twin of a
        # hull half-edge marks the spare entry past the last half-edge
        test = np.concatenate([move[e[~go]], slot.ravel()])
        mark = np.zeros(tri.size + 1, dtype=bool)
        mark[np.minimum(test, twin[test])] = True
        test = mark[:-1].nonzero()[0]
    return None


class _Kept(namedtuple("_Kept", "mask tri twin")):
    """A Lloyd triangulation as passed from step to step: the reflection
    mask (n, 4), the CCW triangles (T, 3) of _reflection(mask)'s points
    (None before they are built) and their _twins. The index arrays that
    depend only on these three are built on first use and kept, read-only,
    with the record: a step whose repair flips nothing reuses them all.
    New triangles build the wall pairs and the seed corners in one pass,
    which gathers each half-edge's next and previous corner once, and the
    first round's incircle ids in one _incircle_ids call. with_triangles
    carries over the mask's map and the half-edge arrays, which depend
    only on the triangle count. The repair of a fresh Qhull triangulation
    uses a record whose mask is None; it builds only the half-edge arrays
    and the first round."""

    @cached_property
    def reflection(self):
        return _reflection(self.mask)

    @cached_property
    def half_edges(self):
        """The half-edge ids (3T,) and the next and the previous half-edge
        in each triangle."""
        he = np.arange(self.tri.size)
        nxt, prv = he + 1, he - 1
        nxt[2::3] -= 3
        prv[0::3] += 3
        return _read_only(he, nxt, prv)

    @cached_property
    def first_round(self):
        """The lower half-edge of every interior edge, which the repair's
        first round tests, and their _incircle_ids."""
        he, nxt, prv = self.half_edges
        h = (self.twin > he).nonzero()[0]
        return _read_only(h, _incircle_ids(self.tri.ravel(), nxt, prv, self.twin, h))

    @cached_property
    def corners(self):
        """The wall_pairs and the seed_corners, both from one gather of the
        next and one of the previous corner of every half-edge."""
        n, (mate, wall) = len(self.mask), self.reflection[3:]
        a, (_, nxt, prv) = self.tri.ravel(), self.half_edges
        b, c = a.take(nxt), a.take(prv)
        # a seed's mate is -1, and a reflection's id is above its seed's
        hi = np.maximum(a, b)
        h = (mate.take(hi) == np.minimum(a, b)).nonzero()[0]
        w = wall.take(hi.take(h))
        corner = (a < n).nonzero()[0]
        ids = np.array([a.take(corner), b.take(corner), c.take(corner)])
        bins = ids[0] + n * np.arange(3)[:, None]
        return (_read_only(h // 3, _AXIS[w], _AT[w]),
                _read_only(corner // 3, ids, bins.ravel()))

    @property
    def wall_pairs(self):
        """Rows of the triangles holding a seed and its own reflection, and
        the axis and the value of the wall between the two; the rows and
        walls of _wall_pairs."""
        return self.corners[0]

    @property
    def seed_corners(self):
        """For every triangle corner at a seed: the triangle, and the ids
        (3, K) of the seed and of the next and the previous point of the
        triangle; and the bins (3K,) of the area and moment sums, the
        seed's id plus 0, n and 2n."""
        return self.corners[1]

    def with_triangles(self, tri, twin):
        """The record of the same mask for the triangles tri and their
        twins, with the reflection map and, for as many triangles, the
        half-edge arrays of this one where they are built."""
        kept = _Kept(self.mask, *_read_only(tri, twin))
        for name, value in self.__dict__.items():
            if name == "reflection" or (name == "half_edges"
                                        and value[0].size == tri.size):
                kept.__dict__[name] = value
        return kept


def _diagram(seeds, mirror, kept=None):
    """Delaunay triangulation of the seeds, their reflections across the
    walls marked in mirror (n, 4) and the _BOX corners, whose circumcenters
    at a seed are the vertices of its Voronoi region in the unit square.
    Returns the points as rows xy (2, P), the triangulation with the mask
    used as a _Kept record, and the circumcenters as rows (2, T).

    A missing reflection can only bound its own seed's region: on the
    square's side of a wall a seed is closer than its reflection. So a
    region with every vertex strictly inside its unmirrored walls is that
    of full mirroring; a vertex on or beyond such a wall adds the
    reflection, and the mask only grows. The circumcenter of a triangle
    holding a seed and its reflection is put exactly on their wall. The
    check finds the circumcenters within 1e-12 of a wall by one nonzero
    over a (4, T) mask, and reads the mask at the seed corners of their
    triangles only.

    kept is an earlier record. Extra reflections leave the regions
    unchanged, so its triangulation serves any mask it covers, unless it
    carries over twice the reflections asked for (the first, fully
    reflected step). Lawson flips repair it after the seeds moved; Qhull
    triangulates only a new point set or a repair that fails. A repair
    that flips nothing returns kept itself, with every index array it has
    built; a repair that flips returns a record that builds the arrays of
    its new triangles when they are first read (see _Kept).

    Raises GenerationError for a seed nearer a wall than _WALL_GAP.
    """
    n = len(seeds)
    _check_wall_gap(seeds)
    mirror = np.array(mirror, dtype=bool)
    if kept is None or (mirror > kept.mask).any() \
            or np.count_nonzero(kept.mask) > 2 * np.count_nonzero(mirror):
        kept = _Kept(*_read_only(mirror), None, None)
    while True:
        src, scale, off = kept.reflection[:3]
        xy = seeds.T.take(src, axis=1) * scale + off
        repaired = None if kept.tri is None else _flip_to_delaunay(xy, kept)
        kept = kept.with_triangles(*_delaunay(xy)) if repaired is None else repaired
        cc = _circumcenters(xy, kept.tri)
        rows, axes, at = kept.wall_pairs
        cc[axes, rows] = at
        # a vertex within round-off of a wall counts as on it: the rows of
        # near are the walls left, right, bottom and top (1 - x <= 1e-12
        # exactly when x >= 1 - 1e-12, which rounds up)
        near = np.empty((4, cc.shape[1]), dtype=bool)
        np.less_equal(cc, 1e-12, out=near[0::2])
        np.greater_equal(cc, 1.0 - 1e-12, out=near[1::2])
        w, rows = np.divmod(near.ravel().nonzero()[0], cc.shape[1])
        # the seed corners of those triangles, each with its wall
        corner = kept.tri.take(rows, axis=0).ravel()
        j = (corner < n).nonzero()[0]
        s, w = corner[j], w[j // 3]
        if kept.mask[s, w].all():
            return xy, kept, cc
        mask = kept.mask.copy()
        mask[s, w] = True
        kept = _Kept(*_read_only(mask), None, None)


def _lloyd_step(seeds, mirror, kept=None):
    """One Lloyd step: the centroid (n, 2) of every seed's Voronoi region
    clipped to the unit square, the largest seed-to-vertex distance, and
    the _Kept record of the triangulation to pass on as kept to the next
    step or to _voronoi_loops.

    The regions are those of _diagram(seeds, mirror, kept). A seed's region
    is the sum over its triangles (v, a, b) of the signed quads (v,
    mid(v, a), circumcenter, mid(v, b)); the record's seed_corners holds
    the corner ids and the bins of these sums, built with its wall pairs
    in one pass and reused until the triangles change. One bincount adds
    up the areas and both moments, each bin in corner order. The gathers
    are ndarray.take: on arrays of this size a fancy index a[:, idx]
    costs several times as much.
    """
    n = len(seeds)
    xy, kept, cc = _diagram(seeds, mirror, kept)
    # every corner at a seed o, with the next corners p and q of its triangle
    t, ids, bins = kept.seed_corners
    o, p, q = xy.take(ids, axis=1).transpose(1, 0, 2)
    p, q = 0.5 * (p - o), 0.5 * (q - o)
    m = cc.take(t, axis=1) - o
    pm = p[0] * m[1] - p[1] * m[0]
    mq = m[0] * q[1] - m[1] * q[0]
    weights = np.concatenate([pm + mq, (pm * (p + m) + mq * (m + q)).ravel()])
    sums = np.bincount(bins, weights, minlength=3 * n)
    centroid = seeds + (sums[n:].reshape(2, n) / (3.0 * sums[:n])).T
    radius = np.sqrt((m[0] ** 2 + m[1] ** 2).max())
    return centroid, radius, kept


def _voronoi_loops(seeds, mirror, kept=None):
    """CCW Voronoi loops of seeds in [0,1]^2 clipped to the unit square,
    the regions of _diagram(seeds, mirror, kept), in CSR form: cell_ptr
    (n+1,), vertex ids (N,) and the vertex coordinates. mirror (n, 4)
    marks the reflected (seed, wall) pairs, walls ordered left, right,
    bottom, top.

    A seed's region vertices are the circumcenters of its triangles,
    sorted by their angle about the seed. Triangles across an edge that
    the incircle test calls cocircular share one vertex, numbered by the
    lowest of them: a seed, a neighbour and their two reflections are
    cocircular about a wall point, and either diagonal may split them.

    Raises GenerationError for a seed nearer a wall than _WALL_GAP.
    """
    n = len(seeds)
    xy, kept, cc = _diagram(seeds, mirror, kept)
    h, ids = kept.first_round
    det, scale = _incircle(xy, ids)
    h = h[np.abs(det) <= _INCIRCLE_TOL * scale]
    a, b = h // 3, kept.twin[h] // 3
    # each triangle takes the lowest label across its cocircular edges,
    # then the label of its label, until every group has one label
    root = np.arange(len(kept.tri))
    while True:
        low = root.copy()
        np.minimum.at(low, a, root[b])
        np.minimum.at(low, b, root[a])
        low = low[low]
        if np.array_equal(low, root):
            break
        root = low
    t, ids = kept.seed_corners[:2]
    s, v = np.divmod(np.unique(ids[0] * len(root) + root[t]), len(root))
    rel = np.take(cc, v, axis=1) - np.take(seeds.T, s, axis=1)
    order = np.lexsort((np.arctan2(rel[1], rel[0]), s))
    return np.r_[0, np.cumsum(np.bincount(s, minlength=n))], v[order], cc.T


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
    # The first step mirrors every seed, and so does the diagram when
    # lloyd_iters = 0; later ones mirror a seed across a wall closer than
    # the farthest seed-to-vertex distance of the last step. The final
    # diagram repairs the last step's triangulation for the moved seeds.
    mirror, kept = np.ones((n_seeds, 4), dtype=bool), None
    for _ in range(lloyd_iters):
        seeds, radius, kept = _lloyd_step(seeds, mirror, kept)
        mirror = (_wall_distances(seeds.T) < radius).T
    cell_ptr, ids, coords = _voronoi_loops(seeds, mirror, kept)
    bad = np.flatnonzero(np.diff(cell_ptr) < 3)
    if len(bad):
        raise GenerationError(f"degenerate Voronoi cell for seed {bad[0]}")
    vid, first = _first_seen(ids)
    return _unit_square_mesh(coords[ids[first]], cell_ptr, vid)


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
    tri = _delaunay(allpts.T)[0]
    return _unit_square_mesh(allpts, 3 * np.arange(len(tri) + 1), tri.ravel())


# ---------------------------------------------------------------------------
# Star points and fans

def fan_areas(loop, star):
    """Areas (..., m) of the fan triangles (star, loop[i], loop[i+1]) of
    CCW loops (..., m, 2) around star points (..., 2)."""
    x = np.asarray(star)[..., None, :]
    q = np.roll(loop, -1, axis=-2)
    return 0.5 * ((loop[..., 0] - x[..., 0]) * (q[..., 1] - x[..., 1])
                  - (loop[..., 1] - x[..., 1]) * (q[..., 0] - x[..., 0]))


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
    h = mesh.diameters
    center, radius = np.empty((mesh.num_cells, 2)), np.empty(mesh.num_cells)
    for grp in mesh.groups:
        cells, xbar, n = grp.cells, grp.xbar, grp.frames[:, :, 0]
        b = np.einsum("gik,gik->gi", n, grp.loop - xbar[:, None]) \
            / h[cells, None]
        triples = np.array(list(combinations(range(grp.n_edges), 3)))
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


def compute_star_points(mesh: PolyMesh):
    """Per-cell star points: each cell's kernel Chebyshev center.

    That is the center of the largest disc inside the cell's kernel, the
    set of points that see the whole cell boundary. On a triangle this is
    the incenter, on a convex cell the center of the largest inscribed
    disc. Each cell's 3-variable LP is solved exactly by enumerating its
    vertices, valence group by valence group; where the largest disc can
    slide along a segment, the star point is the segment's midpoint.
    Raises StarShapeError when a cell has no star point.
    """
    return _kernel_chebyshev(mesh)[0]


@dataclass(frozen=True)
class CellFan:
    """Fan of the cell in row `row` of mesh.groups[group] from its star
    point, whose star, loop and outward normals are views: triangle i has
    vertices (star, loop[i], loop[i+1])."""
    group: int
    row: int
    star: np.ndarray
    loop: np.ndarray            # (m, 2) CCW vertex coordinates
    normals: np.ndarray         # (m, 2) outward unit normals
    area: float

    @property
    def n_edges(self) -> int:
        return len(self.loop)

    def triangle(self, i: int):
        """Vertices of fan triangle i as a (3, 2) array (star, v_i, v_{i+1})."""
        j = (i + 1) % self.n_edges
        return np.array([self.star, self.loop[i], self.loop[j]])


@dataclass(frozen=True)
class SubTriangulation:
    """Fans of every cell around its read-only star point star[c]; areas
    holds one read-only (g, m) array of fan areas per mesh.groups entry."""
    mesh: PolyMesh
    star: np.ndarray
    areas: tuple

    @cached_property
    def fans(self) -> list[CellFan]:
        """One CellFan per cell, built on first use from the group arrays."""
        fans = [None] * self.mesh.num_cells
        for gi, (grp, areas) in enumerate(zip(self.mesh.groups, self.areas)):
            for r, c in enumerate(grp.cells.tolist()):
                fans[c] = CellFan(group=gi, row=r, star=self.star[c],
                                  loop=grp.loop[r], normals=grp.frames[r, :, 0],
                                  area=float(areas[r].sum()))
        return fans


def build_subtriangulation(mesh: PolyMesh, star_points=None) -> SubTriangulation:
    """Fan every cell from its star point, of which it keeps a copy.

    Raises StarShapeError if any fan triangle has area <= 1e-12 * |K|.
    """
    if star_points is None:
        star_points = compute_star_points(mesh)
    star_points = np.array(star_points, dtype=float)
    star_points.setflags(write=False)
    if star_points.shape != (mesh.num_cells, 2):
        raise ValueError("star_points must be (num_cells, 2)")
    areas, degenerate = [], []
    for grp in mesh.groups:
        a = fan_areas(grp.loop, star_points[grp.cells])
        a.setflags(write=False)
        areas.append(a)
        degenerate.extend(grp.cells[np.any(
            a <= 1e-12 * a.sum(axis=1)[:, None], axis=1)])
    if degenerate:
        raise StarShapeError(f"cell {min(degenerate)}: star point yields a "
                             "degenerate fan triangle")
    return SubTriangulation(mesh=mesh, star=star_points, areas=tuple(areas))


@dataclass(frozen=True)
class MeshQualityReport:
    chunkiness: np.ndarray       # per cell, diameter / inscribed radius
    face_ratio: np.ndarray       # per cell, diameter / shortest face
    max_chunkiness: float
    max_face_ratio: float


def quality_report(mesh: PolyMesh) -> MeshQualityReport:
    """Shape-regularity diagnostics: all reported ratios are >= 1.

    rho is the radius of the largest disc inside the cell's kernel (the
    inradius for convex cells). Fans every cell from the disc's center, its
    star point, so raises StarShapeError as build_subtriangulation does.
    """
    diam = mesh.diameters
    center, rho = _kernel_chebyshev(mesh)
    build_subtriangulation(mesh, center)
    chunk = diam / rho
    face_ratio = np.empty(mesh.num_cells)
    for grp in mesh.groups:
        face_ratio[grp.cells] = diam[grp.cells] / grp.lengths.min(axis=1)
    return MeshQualityReport(
        chunkiness=chunk,
        face_ratio=face_ratio,
        max_chunkiness=float(chunk.max()),
        max_face_ratio=float(face_ratio.max()),
    )
