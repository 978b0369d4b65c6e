import dataclasses
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stagpoly import polymesh
from stagpoly.polymesh import (
    GenerationError,
    MeshFormatError,
    MeshValidationError,
    StarShapeError,
    build_polymesh,
    build_subtriangulation,
    compute_star_points,
    gen_delaunay_triangles,
    gen_uniform_squares,
    gen_uniform_triangles,
    gen_voronoi_polygons,
    load_mesh,
    mesh_document,
    quality_report,
    read_mesh,
)
from stagpoly.weakgrad import element_groups, identity_coefficient

from conftest import make_single_cell, subtriangulate

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# construction and validation

def test_single_quad_cell(unit_square_cell):
    m = unit_square_cell
    assert m.num_cells == 1
    assert m.num_edges == 4
    assert len(m.boundary_edges) == 4
    assert m.areas()[0] == pytest.approx(1.0, abs=1e-15)


def test_single_pentagon_cell(pentagon_cell):
    m = pentagon_cell
    assert m.num_cells == 1
    assert len(m.boundary_edges) == 5
    # regular pentagon with circumradius 1
    assert m.areas()[0] == pytest.approx(2.5 * np.sin(2 * np.pi / 5), abs=1e-13)


def test_repeated_vertex_rejected():
    with pytest.raises(MeshValidationError, match="cell 0 lists a vertex twice"):
        build_polymesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 1, 2]])


def test_clockwise_cell_rejected():
    with pytest.raises(MeshValidationError, match="cell 0 is clockwise"):
        build_polymesh([(0, 0), (1, 0), (1, 1)], [[0, 2, 1]])


def test_dangling_vertex_rejected():
    with pytest.raises(MeshValidationError, match="1 unused .dangling."):
        build_polymesh([(0, 0), (1, 0), (1, 1), (5, 5)], [[0, 1, 2]])


def test_out_of_range_index_rejected():
    with pytest.raises(MeshValidationError,
                       match="cell 0 references a vertex out of range"):
        build_polymesh([(0, 0), (1, 0), (1, 1)], [[0, 1, 7]])


def test_nonmanifold_edge_rejected():
    # two cells on the same side of a shared edge traverse it identically
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(MeshValidationError,
                       match=r"edge \(0, 1\) traversed twice"):
        build_polymesh(verts, [[0, 1, 2], [0, 1, 3]])


@pytest.mark.parametrize("cell", [[0, 1.7, 2], [0, True, 2],
                                  np.array([0.0, 1.0, 2.0])],
                         ids=["float", "bool", "float-array"])
def test_non_integer_index_rejected(cell):
    with pytest.raises(MeshValidationError,
                       match="vertex indices must be integers"):
        build_polymesh([(0, 0), (1, 0), (0, 1)], [cell])


def test_numpy_integer_indices_accepted():
    m = build_polymesh([(0, 0), (1, 0), (0, 1)],
                       np.array([[0, 1, 2]], dtype=np.int32))
    assert m.cell_verts.tolist() == [0, 1, 2]


# a 2 x 2 square grid whose cells 1 and 3 carry the same defect
GRID = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]


@pytest.mark.parametrize("cells, message", [
    ([[0, 1, 4, 3], [1, 2], [3, 4, 7, 6], [4, 5]],
     "cell 1 has fewer than 3 vertices"),
    ([[0, 1, 4, 3], [1, 2, 9, 4], [3, 4, 7, 6], [4, 5, 9, 7]],
     "cell 1 references a vertex out of range"),
    ([[0, 1, 4, 3], [1, 2, 2, 4], [3, 4, 7, 6], [4, 5, 5, 7]],
     "cell 1 lists a vertex twice"),
    ([[0, 1, 4, 3], [1, 4, 5, 2], [3, 4, 7, 6], [4, 7, 8, 5]],
     "cell 1 is clockwise or degenerate"),
    ([[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7], [0, 1, 4]],
     r"edge \(0, 1\) traversed twice"),
], ids=["short", "range", "repeat", "clockwise", "manifold"])
def test_validation_names_lowest_offender(cells, message):
    with pytest.raises(MeshValidationError, match=message):
        build_polymesh(GRID, cells)


def test_csr_layout():
    m = gen_uniform_squares(2)
    assert m.cell_ptr.tolist() == [0, 4, 8, 12, 16]
    assert np.array_equal(np.concatenate(m.cells), m.cell_verts)
    assert all(np.shares_memory(c, m.cell_verts) for c in m.cells)
    with pytest.raises(ValueError):
        m.cells[0][0] = 1


def test_edge_numbering_first_seen():
    # edges are numbered in the order the cell loops first traverse them
    m = gen_uniform_squares(2)
    assert m.edges.tolist() == [[0, 3], [3, 4], [1, 4], [0, 1], [4, 5],
                                [2, 5], [1, 2], [3, 6], [6, 7], [4, 7],
                                [7, 8], [5, 8]]
    assert m.cell_edges.tolist() == [0, 1, 2, 3, 2, 4, 5, 6, 7, 8, 9, 1,
                                     9, 10, 11, 4]
    assert m.edge_cells.tolist() == [[0, -1], [0, 2], [1, 0], [0, -1],
                                     [1, 3], [1, -1], [1, -1], [2, -1],
                                     [2, -1], [3, 2], [3, -1], [3, -1]]


# ---------------------------------------------------------------------------
# structured generators

def test_uniform_triangles_counts():
    m = gen_uniform_triangles(4)
    assert m.num_cells == 32
    assert m.num_vertices == 25
    assert m.num_edges == 56
    assert m.h_report == pytest.approx(0.25)


def test_uniform_triangles_smallest():
    m = gen_uniform_triangles(1)
    assert m.num_cells == 2
    assert m.num_edges == 5


def test_uniform_squares_counts():
    assert gen_uniform_squares(32).num_cells == 1024
    m1 = gen_uniform_squares(1)
    assert m1.num_cells == 1
    assert len(m1.boundary_edges) == 4
    m2 = gen_uniform_squares(2)
    assert m2.num_cells == 4
    assert m2.num_edges == 12
    assert m2.num_edges - len(m2.boundary_edges) == 4


def test_wall_markers():
    m = gen_uniform_triangles(4)
    for e in m.boundary_edges:
        a, b = m.vertices[m.edges[e]]
        tag = m.edge_markers[e]
        if np.allclose([a[0], b[0]], 0.0):
            assert tag == 1
        elif np.allclose([a[0], b[0]], 1.0):
            assert tag == 2
        elif np.allclose([a[1], b[1]], 0.0):
            assert tag == 3
        else:
            assert np.allclose([a[1], b[1]], 1.0) and tag == 4


@pytest.mark.parametrize("gen", [
    lambda: gen_uniform_triangles(5),
    lambda: gen_uniform_squares(3),
    lambda: gen_voronoi_polygons(32, lloyd_iters=40, rng_seed=7),
    lambda: gen_delaunay_triangles(40, rng_seed=3),
])
def test_areas_partition_unit_square(gen):
    m = gen()
    assert abs(m.areas().sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# voronoi generator

def test_voronoi_basic(voronoi64):
    m = voronoi64
    assert m.num_cells == 64
    assert abs(m.areas().sum() - 1.0) < 1e-12
    for c in range(m.num_cells):
        pts = m.vertices[m.cells[c]]
        q = np.roll(pts, -1, axis=0)
        r = np.roll(pts, -2, axis=0)
        cross = (q[:, 0] - pts[:, 0]) * (r[:, 1] - q[:, 1]) \
            - (q[:, 1] - pts[:, 1]) * (r[:, 0] - q[:, 0])
        assert np.all(cross > -1e-12), f"cell {c} is not convex"


def test_flat_geometry_matches_per_cell_loops(voronoi64):
    # per-cell reference loops; the flat passes add the same terms in
    # another order, so they may differ by the summation error bound
    m = voronoi64
    areas = m.areas()
    diameters = m.diameters
    for c in range(m.num_cells):
        p = m.vertices[m.cells[c]]
        q = np.roll(p, -1, axis=0)
        cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
        # bound on the rounding of sum(cross) in any order
        bound = len(p) * np.finfo(float).eps * np.abs(cross).sum()
        assert abs(areas[c] - 0.5 * cross.sum()) <= bound
        assert diameters[c] == max(np.sqrt(((a - b) ** 2).sum())
                                   for a in p for b in p)


def test_voronoi_two_seeds_bisector():
    m = gen_voronoi_polygons(2, lloyd_iters=0, rng_seed=5)
    assert m.num_cells == 2
    assert abs(m.areas().sum() - 1.0) < 1e-12


def test_voronoi_deterministic():
    a = gen_voronoi_polygons(16, lloyd_iters=10, rng_seed=9)
    b = gen_voronoi_polygons(16, lloyd_iters=10, rng_seed=9)
    assert np.array_equal(a.vertices, b.vertices)
    assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))


def _topology_sha256(m):
    text = json.dumps([[c.tolist() for c in m.cells], m.edges.tolist(),
                       m.edge_cells.tolist(), m.edge_markers.tolist()])
    return hashlib.sha256(text.encode()).hexdigest()


def test_voronoi_matches_recorded_mesh(voronoi64):
    # data/voronoi64.json and the fingerprint were written by the per-cell
    # implementation that preceded the flat CSR front end
    ref = read_mesh(DATA / "voronoi64.json")
    assert _topology_sha256(voronoi64) == \
        "9bb7fb02a6eef843ebc36945391595c0f62c0e0809987a805cc8794dab08b8e1"
    assert _topology_sha256(ref) == _topology_sha256(voronoi64)
    assert np.abs(voronoi64.vertices - ref.vertices).max() <= 1e-9


def test_voronoi256_matches_recorded_mesh():
    # data/voronoi256.json and the fingerprint were written by the
    # Qhull-Voronoi Lloyd loop that preceded the kept triangulation
    mesh = gen_voronoi_polygons(256, lloyd_iters=100, rng_seed=1)
    ref = read_mesh(DATA / "voronoi256.json")
    assert _topology_sha256(mesh) == \
        "a982214a368f9ce05f0f01de52d4a31dbb5f947743154b5b7b72a7d74c6cac52"
    assert _topology_sha256(ref) == _topology_sha256(mesh)
    assert np.abs(mesh.vertices - ref.vertices).max() <= 1e-9


def _clipped_loops(seeds):
    """Reference: each seed's Voronoi region among the seeds, the unit
    square cut by the seed's bisector with every other seed near enough
    (Sutherland-Hodgman), CCW from the angle -pi. On the square's side of a
    wall a seed is nearer than its reflection, so these are the regions of
    full mirroring, with no Qhull roundoff at the walls. The clipping runs
    in extended precision: crowded seeds have nearly parallel bisectors,
    whose float intersections were off by 8e-13."""
    loops = []
    seeds = seeds.astype(np.longdouble)
    for s in seeds:
        dist = np.sqrt(((seeds - s) ** 2).sum(axis=1))
        poly = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        for j in np.argsort(dist)[1:]:
            reach = max(np.hypot(x - s[0], y - s[1]) for x, y in poly)
            if dist[j] > 2.0 * reach:
                break
            nx, ny = seeds[j] - s
            mx, my = 0.5 * (s + seeds[j])
            f = [nx * (x - mx) + ny * (y - my) for x, y in poly]
            cut = []
            for i, (p, fp) in enumerate(zip(poly, f)):
                q, fq = poly[(i + 1) % len(poly)], f[(i + 1) % len(poly)]
                if fp <= 0.0:
                    cut.append(p)
                if min(fp, fq) < 0.0 < max(fp, fq):
                    t = fp / (fp - fq)
                    cut.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            poly = cut
        rel = np.array(poly) - s
        loops.append(np.array(poly, dtype=float)[np.argsort(
            np.arctan2(rel[:, 1], rel[:, 0]), kind="stable")])
    return loops


def _loop_centroids(loops):
    """Reference: the area centroid (C, 2) of each CCW loop, one loop at a
    time."""
    out = np.empty((len(loops), 2))
    for c, p in enumerate(loops):
        q = np.vstack([p[1:], p[:1]])
        cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
        out[c] = (p + q).T @ cross / (3.0 * cross.sum())
    return out


def _assert_full_mirror_regions(seeds, mirror):
    cell_ptr, ids, coords = polymesh._voronoi_loops(seeds, mirror)
    ref = _clipped_loops(seeds)
    assert np.array_equal(np.diff(cell_ptr), [len(loop) for loop in ref])
    assert np.abs(coords[ids] - np.concatenate(ref)).max() <= 1e-12


def _check_every_start(seeds):
    # no reflection (every pair goes through check-then-add) and all of them
    n = len(seeds)
    _assert_full_mirror_regions(seeds, np.zeros((n, 4), dtype=bool))
    _assert_full_mirror_regions(seeds, np.ones((n, 4), dtype=bool))


def _crowded_seeds(n, rng_seed, px, py, gap):
    # powers of uniform seeds crowd them against a wall (or spread them)
    u = np.random.default_rng(rng_seed).random((n, 2)) ** [px, py]
    return gap + (1.0 - 2.0 * gap) * u


# draws that crowd seeds against a wall or into a corner: at a gap of
# 1e-9 they are rejected, at 1e-6 accepted
NEAR_WALL_DRAWS = [(119, 16556, 4.5, 2.0), (8, 0, 1.5, 5.0),
                   (48, 3272050, 5.0, 5.0),
                   (195, 3983255442, 4.846045711638303, 0.2705902638337726)]


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 200), st.integers(0, 2**32 - 1),
       st.floats(0.2, 5.0), st.floats(0.2, 5.0))
@example(*NEAR_WALL_DRAWS[0])
@example(*NEAR_WALL_DRAWS[1])
@example(*NEAR_WALL_DRAWS[2])
# a seed near a corner, which is the circumcenter of the seed and its
# two reflections
@example(173, 3383647872, 4.631552931712127, 0.45713488961254284)
@example(26, 67348919, 4.715990001508593, 1.2536419226521593)
# two seeds 1.4e-6 above the bottom wall share a vertex exactly on it
@example(17, 2186120673, 0.752, 3.209)
# two seeds about 3e-8 apart keep a region each
@example(189, 2815109495, 4.116609342219171, 5.0)
@example(158, 1168134100, 4.974017455991089, 4.425023318382549)
@example(181, 3585485709, 4.952, 4.728)
# crowded seeds with nearly parallel bisectors, where float clipping in
# the reference was off by 8.2e-13
@example(200, 4143006814, 4.966026666063994, 4.702268490293837)
def test_partial_mirroring_matches_full(n, rng_seed, px, py):
    # _voronoi_loops rejects seeds nearer a wall than 1e-6
    _check_every_start(_crowded_seeds(n, rng_seed, px, py, 1e-6))


@pytest.mark.parametrize("draw", NEAR_WALL_DRAWS)
def test_voronoi_rejects_seeds_near_walls(draw):
    seeds = _crowded_seeds(*draw, 1e-9)
    with pytest.raises(GenerationError, match="within 1e-06 of a wall"):
        polymesh._voronoi_loops(seeds, np.ones((len(seeds), 4), dtype=bool))


def test_voronoi_wall_gap_boundary():
    seeds = np.array([[1e-6, 0.5], [0.5, 0.5], [0.7, 0.2], [0.4, 0.75]])
    mirror = np.ones((4, 4), dtype=bool)
    assert np.diff(polymesh._voronoi_loops(seeds, mirror)[0]).min() >= 3
    seeds[0, 0] = 0.99e-6
    with pytest.raises(GenerationError, match="seed 0 is within"):
        polymesh._voronoi_loops(seeds, mirror)


def _assert_exact_walls(mesh):
    # every boundary edge lies on a wall, both ends carrying its
    # coordinate exactly, and the four corners of the square are vertices
    ends = mesh.vertices[mesh.edges[mesh.boundary_edges]]
    assert np.logical_or.reduce([(ends[:, :, axis] == at).all(axis=1)
                                 for axis in (0, 1) for at in (0.0, 1.0)]).all()
    for corner in ([0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]):
        assert (mesh.vertices == corner).all(axis=1).any()


@pytest.mark.parametrize("n", [16, 64, 256])
def test_voronoi_walls_are_exact(n):
    _assert_exact_walls(gen_voronoi_polygons(n, rng_seed=1))


@pytest.mark.parametrize("draw", NEAR_WALL_DRAWS)
@pytest.mark.parametrize("full", [False, True])
def test_voronoi_loops_walls_are_exact(draw, full):
    seeds = _crowded_seeds(*draw, 1e-6)
    cell_ptr, ids, coords = polymesh._voronoi_loops(
        seeds, np.full((len(seeds), 4), full))
    vid, first = polymesh._first_seen(ids)
    _assert_exact_walls(polymesh._unit_square_mesh(coords[ids[first]], cell_ptr, vid))


@pytest.mark.parametrize("rng_seed", [1, 2, 3, 4, 5])
def test_partial_mirroring_matches_full_on_lloyd_seeds(rng_seed):
    seeds = np.random.default_rng(rng_seed).random((256, 2))
    for _ in range(100):
        cell_ptr, ids, coords = polymesh._voronoi_loops(
            seeds, np.zeros((256, 4), dtype=bool))
        seeds = _loop_centroids(np.split(coords[ids], cell_ptr[1:-1]))
    _check_every_start(seeds)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 200), st.integers(0, 2**32 - 1),
       st.floats(0.2, 5.0), st.floats(0.2, 5.0))
@example(*NEAR_WALL_DRAWS[0])
@example(17, 2186120673, 0.752, 3.209)
# two seeds about 3e-8 apart: the triangulation splits a triangle for
# the point Qhull drops
@example(189, 2815109495, 4.116609342219171, 5.0)
@example(158, 1168134100, 4.974017455991089, 4.425023318382549)
@example(200, 4143006814, 4.966026666063994, 4.702268490293837)
def test_lloyd_step_matches_clipped_regions(n, rng_seed, px, py):
    # against the clipping reference, which shares no code with _diagram
    seeds = _crowded_seeds(n, rng_seed, px, py, 1e-6)
    ref = _clipped_loops(seeds)
    pts = np.concatenate(ref)
    cell_ptr = np.r_[0, np.cumsum([len(loop) for loop in ref])]
    rel = pts - np.repeat(seeds, np.diff(cell_ptr), axis=0)
    for mirror in (np.zeros((n, 4), dtype=bool), np.ones((n, 4), dtype=bool)):
        centroid, radius, _ = polymesh._lloyd_step(seeds, mirror)
        assert np.abs(centroid - _loop_centroids(ref)).max() <= 1e-12
        assert abs(radius - np.sqrt((rel ** 2).sum(axis=1)).max()) <= 1e-12


def _incircle_excess(pts, tri, twin):
    """For every interior edge: the incircle determinant of the far point
    of the triangle across against the edge's own triangle, over the
    determinant's permanent (its rounding scale); positive = inside."""
    h = np.flatnonzero(twin >= 0)
    a, b, c = (tri.ravel()[3 * (h // 3) + (h + i) % 3] for i in range(3))
    d = pts[tri.ravel()[3 * (twin[h] // 3) + (twin[h] + 2) % 3]]
    x, y = np.stack([pts[v] - d for v in (a, b, c)], axis=1).transpose(2, 0, 1)
    m = np.stack([x, y, x ** 2 + y ** 2], axis=2)
    permanent = sum(m[:, i, 2] * (np.abs(x[:, j] * y[:, k]) + np.abs(x[:, k] * y[:, j]))
                    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    return np.linalg.det(m) / permanent


def test_flip_repair_restores_delaunay():
    rng = np.random.default_rng(3)
    seeds, mirror, kept = rng.random((256, 2)), np.ones((256, 4), dtype=bool), None
    for _ in range(100):
        seeds, radius, kept = polymesh._lloyd_step(seeds, mirror, kept)
        mirror = (polymesh._wall_distances(seeds.T) < radius).T
    mask, tri, twin = kept
    # a jitter of a tenth of the spacing makes the kept triangulation illegal
    moved = seeds + rng.normal(scale=0.1 / 16, size=seeds.shape)
    src, scale, off = polymesh._reflection(mask)[:3]
    xy = moved.T[:, src] * scale + off
    assert _incircle_excess(xy.T, tri, twin).max() > 1e-3
    repaired = polymesh._flip_to_delaunay(xy, kept)
    assert repaired is not None
    assert (polymesh._orientation(xy, repaired.tri) > 0).all()
    assert np.array_equal(repaired.twin, polymesh._twins(repaired.tri))
    assert _incircle_excess(xy.T, repaired.tri, repaired.twin).max() <= 1e-10
    # a seed and a neighbour make a cocircular quad with their reflections,
    # so the triangles may differ from Qhull's but not the regions
    centroid, _, kept = polymesh._lloyd_step(
        moved, mask, polymesh._Kept(mask, repaired.tri, repaired.twin))
    assert np.array_equal(kept[1], repaired.tri)
    assert np.abs(centroid - polymesh._lloyd_step(moved, mask)[0]).max() <= 1e-14


def _lloyd_steps(n, steps, rng_seed):
    """Seeds, mask and kept record after Lloyd steps as gen_voronoi_polygons
    runs them, from uniform seeds."""
    seeds = np.random.default_rng(rng_seed).random((n, 2))
    mirror, kept = np.ones((n, 4), dtype=bool), None
    for _ in range(steps):
        seeds, radius, kept = polymesh._lloyd_step(seeds, mirror, kept)
        mirror = (polymesh._wall_distances(seeds.T) < radius).T
    return seeds, mirror, kept


def test_flip_repair_returns_or_spares_its_inputs():
    seeds, mirror, kept = _lloyd_steps(256, 20, rng_seed=3)
    xy, kept, _ = polymesh._diagram(seeds, mirror, kept)
    repaired = polymesh._flip_to_delaunay(xy, kept)
    assert repaired is kept
    assert repaired.tri is kept.tri and repaired.twin is kept.twin
    moved = seeds + np.random.default_rng(4).normal(scale=0.1 / 16, size=seeds.shape)
    src, scale, off = polymesh._reflection(kept.mask)[:3]
    xy = moved.T[:, src] * scale + off
    # writable copies: the repair must copy before it flips
    given = polymesh._Kept(kept.mask, kept.tri.copy(), kept.twin.copy())
    repaired = polymesh._flip_to_delaunay(xy, given)
    assert repaired is not None and not np.array_equal(repaired.tri, given.tri)
    assert np.array_equal(given.tri, kept.tri) and np.array_equal(given.twin, kept.twin)
    # the flipped record keeps the arrays of the triangle count
    assert repaired.half_edges is given.half_edges


def _seed_corners(tri, n):
    flat = tri.ravel()
    corner = np.flatnonzero(flat < n)
    ids = np.array([flat[corner], flat[3 * (corner // 3) + (corner + 1) % 3],
                    flat[3 * (corner // 3) + (corner + 2) % 3]])
    return corner // 3, ids, np.concatenate([ids[0], ids[0] + n, ids[0] + 2 * n])


def _first_round(tri, twin):
    # every interior edge once, by its lower half-edge h = 3t + k, with the
    # corners a, b, c of its triangle from h's start and the far corner d
    h = np.flatnonzero(twin > np.arange(twin.size))
    t, k = h // 3, h % 3
    a, b, c = (tri[t, (k + i) % 3] for i in range(3))
    return h, np.array([a, b, c, tri[twin[h] // 3, (twin[h] + 2) % 3]])


def _voronoi_mesh(seeds, mirror, kept):
    cell_ptr, ids, coords = polymesh._voronoi_loops(seeds, mirror, kept)
    vid, first = polymesh._first_seen(ids)
    return polymesh._unit_square_mesh(coords[ids[first]], cell_ptr, vid)


def test_lloyd_record_follows_qhull_fallback(monkeypatch):
    # a repair that fails mid-run hands the step to Qhull, whose triangles
    # come in another order: the record must index those, not the old ones
    ref = _lloyd_steps(64, 20, rng_seed=5)
    seeds, mirror, kept = _lloyd_steps(64, 10, rng_seed=5)
    flip, delaunay, failed, qhull = polymesh._flip_to_delaunay, polymesh._delaunay, [], []

    def fail_once(xy, kept):
        if failed:
            return flip(xy, kept)
        failed.append(kept.tri)
        return None

    monkeypatch.setattr(polymesh, "_flip_to_delaunay", fail_once)
    monkeypatch.setattr(polymesh, "_delaunay", lambda xy: qhull.append(1) or delaunay(xy))
    for step in range(10):
        seeds, radius, kept = polymesh._lloyd_step(seeds, mirror, kept)
        mirror = (polymesh._wall_distances(seeds.T) < radius).T
        if step == 0:
            # one Qhull call, and the mask of the unpatched step: stale wall
            # pairs would misplace vertices and grow the mask
            assert len(failed) == len(qhull) == 1
            assert np.array_equal(kept.mask, _lloyd_steps(64, 11, rng_seed=5)[2].mask)
            assert not np.array_equal(kept.tri, failed[0])
            rows, w = polymesh._wall_pairs(*polymesh._reflection(kept.mask)[3:], kept.tri)
            for got, want in zip(kept.wall_pairs, (rows, polymesh._AXIS[w], polymesh._AT[w])):
                assert np.array_equal(got, want)
            for got, want in zip(kept.seed_corners, _seed_corners(kept.tri, 64)):
                assert np.array_equal(got, want)
            for got, want in zip(kept.first_round, _first_round(kept.tri, kept.twin)):
                assert np.array_equal(got, want)
    assert np.abs(seeds - ref[0]).max() <= 1e-12
    mesh, ref_mesh = _voronoi_mesh(seeds, mirror, kept), _voronoi_mesh(*ref)
    assert np.array_equal(mesh.cell_ptr, ref_mesh.cell_ptr)
    assert np.array_equal(mesh.cell_verts, ref_mesh.cell_verts)
    assert np.abs(mesh.vertices - ref_mesh.vertices).max() <= 1e-12


@pytest.mark.parametrize("n, rng_seed, calls", [
    (256, 1, 2), (1024, 1, 3),
    # a failed repair at step 3 (seed 2), and mask changes (seed 5)
    (256, 2, 5), (256, 5, 6)], ids=["256-2", "1024-3", "256-5-seed2", "256-6-seed5"])
def test_lloyd_qhull_calls(monkeypatch, n, rng_seed, calls):
    # Qhull triangulates only a new point set (the first, fully reflected
    # step, then a mask that shrinks or grows) or after a failed repair;
    # every other step repairs the kept triangles by flips
    delaunay, qhull = polymesh._delaunay, []
    monkeypatch.setattr(polymesh, "_delaunay", lambda xy: qhull.append(1) or delaunay(xy))
    gen_voronoi_polygons(n, 100, rng_seed)
    assert len(qhull) == calls


def test_lloyd_records_match_fresh_builds(monkeypatch):
    # 256 cells, seed 2: in its first 25 steps the repair flips, flips
    # nothing and fails once, and Qhull runs five times, after the failed
    # repair and on new masks; every step's record must hold read-only
    # arrays equal to fresh builds from its own triangles
    flip, delaunay, failed, qhull = polymesh._flip_to_delaunay, polymesh._delaunay, [], []

    def count_failures(xy, kept):
        repaired = flip(xy, kept)
        if repaired is None and kept.mask is not None:
            failed.append(1)
        return repaired

    monkeypatch.setattr(polymesh, "_flip_to_delaunay", count_failures)
    monkeypatch.setattr(polymesh, "_delaunay", lambda xy: qhull.append(1) or delaunay(xy))
    seeds = np.random.default_rng(2).random((256, 2))
    mirror, kept, paths = np.ones((256, 4), dtype=bool), None, set()
    for _ in range(25):
        last, calls = kept, len(qhull)
        seeds, radius, kept = polymesh._lloyd_step(seeds, mirror, kept)
        mirror = (polymesh._wall_distances(seeds.T) < radius).T
        paths.add("qhull" if len(qhull) > calls else "kept" if kept is last else "flipped")
        rows, w = polymesh._wall_pairs(*polymesh._reflection(kept.mask)[3:], kept.tri)
        fresh = (_first_round(kept.tri, kept.twin), _seed_corners(kept.tri, 256),
                 (rows, polymesh._AXIS[w], polymesh._AT[w]))
        for got, want in zip((kept.first_round, kept.seed_corners, kept.wall_pairs), fresh):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b) and not a.flags.writeable
    assert (len(qhull), len(failed), paths) == (5, 1, {"qhull", "kept", "flipped"})


def test_wall_thresholds_compare_coordinates_exactly():
    # the wall-gap check and _diagram's wall check compare x with 1 - eps
    # in place of 1 - x with eps; the decisions agree for every double
    # because 1 - eps rounds down for the strict _WALL_GAP test and up for
    # the 1e-12 one
    for eps, strict in ((polymesh._WALL_GAP, True), (1e-12, False)):
        xs = [1.0 - eps]
        for _ in range(4):
            xs = [np.nextafter(xs[0], 0.0), *xs, np.nextafter(xs[-1], 2.0)]
        for x in xs:
            if strict:
                assert (1.0 - x < eps) == (x > 1.0 - eps)
            else:
                assert (1.0 - x <= eps) == (x >= 1.0 - eps)


def test_flip_rounds_test_only_real_half_edges(monkeypatch):
    # a flipped triangle's hull half-edge has twin -1; a later round's test
    # set must drop it, not keep -1, which would index half-edge 3T - 1
    incircle_ids, seen = polymesh._incircle_ids, []

    def record(flat, nxt, prv, twin, h):
        seen.append(np.asarray(h))
        return incircle_ids(flat, nxt, prv, twin, h)

    monkeypatch.setattr(polymesh, "_incircle_ids", record)
    gen_voronoi_polygons(256, 100, 1)
    assert len(seen) > 100
    assert [i for i, h in enumerate(seen) if (h < 0).any()] == []


def test_lloyd_record_is_read_only_and_reflects_exactly():
    seeds, mirror, kept = _lloyd_steps(64, 5, rng_seed=2)
    xy, kept, _ = polymesh._diagram(seeds, mirror, kept)
    src, scale, off, mate, wall = kept.reflection
    arrays = (*kept, *kept.reflection, *kept.wall_pairs, *kept.seed_corners,
              *kept.half_edges, *kept.first_round)
    for a in arrays:
        assert not a.flags.writeable
    he, nxt, prv = kept.half_edges
    assert np.array_equal(nxt, 3 * (he // 3) + (he + 1) % 3)
    assert np.array_equal(prv, 3 * (he // 3) + (he + 2) % 3)
    # the record is Delaunay for its own seeds: the repair flips nothing
    # and returns the record itself, with every array it had built
    repaired = polymesh._flip_to_delaunay(xy, kept)
    assert repaired is kept
    assert all(a is b for a, b in zip(arrays, (
        *repaired, *repaired.reflection, *repaired.wall_pairs, *repaired.seed_corners,
        *repaired.half_edges, *repaired.first_round)))
    assert polymesh._diagram(seeds, mirror, kept)[1] is kept
    # the map's points are the seeds, the reflections 2a - x and the box
    w, s = np.nonzero(kept.mask.T)
    images = seeds[s]
    images[np.arange(len(s)), polymesh._AXIS[w]] = \
        2.0 * polymesh._AT[w] - images[np.arange(len(s)), polymesh._AXIS[w]]
    assert np.array_equal(np.take(seeds.T, src, axis=1) * scale + off,
                          np.vstack([seeds, images, polymesh._BOX]).T)
    assert np.array_equal(mate[len(seeds):-4], s) and np.array_equal(wall[len(seeds):-4], w)


@pytest.mark.parametrize("make, digest", [
    (lambda: gen_uniform_triangles(4),
     "a0db38afe75788d9000ffff86b9f7de558b05b406b965e68e8131a110a9cf793"),
    (lambda: gen_uniform_squares(3),
     "2a546e23ef0baeee7b0659ec52798a2d0db9943b6ecf245790cffa049af2746d"),
    (lambda: gen_delaunay_triangles(40, rng_seed=3),
     "6c2e64c89cfc016f54c00c409edff1f83f0f7dfc286705526e71d4faf186c9bb"),
    (lambda: gen_voronoi_polygons(64, rng_seed=1),
     "ae31a9710b3afa4c69e80418a2b12fa5f5ab832d410f239fa8ce258958aa7199"),
    (lambda: gen_voronoi_polygons(256, rng_seed=1),
     "90fe488a44491f6cef7112ca232533322299c00576f32d0c0ffba230c0959e71"),
    # three Qhull calls and more flips than the two above; recorded from
    # the Lloyd steps that held their points as (P, 2) arrays
    (lambda: gen_voronoi_polygons(1024, rng_seed=1),
     "b61b500b08d62fc48133eca7e9edbc4380c031c6739de1736243c04a431352de"),
    # a failed repair at step 3 and five Qhull calls; six Qhull calls, on
    # mask changes
    (lambda: gen_voronoi_polygons(256, rng_seed=2),
     "0c7a800ae198b4ceca2a45a9c4c4094b92d618c2307fe2ab1c7985f5e4e787b1"),
    (lambda: gen_voronoi_polygons(256, rng_seed=5),
     "020ea469b268d00b8d719706cb5c4cd1e3a15696e286ba711c7b9449a2ccd435"),
], ids=["tri4", "squares3", "delaunay40", "voronoi64", "voronoi256", "voronoi1024",
        "voronoi256-seed2", "voronoi256-seed5"])
def test_document_digest(make, digest):
    # recorded from the per-cell implementation (the Voronoi meshes from the
    # Lloyd loop that rebuilt its index arrays every step): documents stay
    # byte-identical
    assert hashlib.sha256(mesh_document(make()).encode()).hexdigest() == digest


@pytest.mark.parametrize("make", [
    lambda: gen_voronoi_polygons(16, lloyd_iters=10, rng_seed=-1),
    lambda: gen_voronoi_polygons(16, lloyd_iters=-3, rng_seed=0),
    lambda: gen_delaunay_triangles(16, rng_seed=-2),
], ids=["voronoi-seed", "voronoi-iters", "delaunay-seed"])
def test_generator_rejects_negative_arguments(make):
    with pytest.raises(GenerationError, match=">= 0"):
        make()


def test_voronoi_h_decreases():
    h = [gen_voronoi_polygons(n, lloyd_iters=30, rng_seed=1).h_report
         for n in (64, 256)]
    assert h[1] < h[0]


def test_delaunay_is_triangle_mesh():
    m = gen_delaunay_triangles(60, rng_seed=2)
    assert m.is_triangle_mesh()
    assert m.num_cells <= 200


# ---------------------------------------------------------------------------
# star points and fans

def test_star_point_square(unit_square_cell):
    star = compute_star_points(unit_square_cell)
    assert np.allclose(star[0], [0.5, 0.5], atol=1e-9)


def test_star_point_right_triangle():
    m = make_single_cell([(0, 0), (1, 0), (0, 1)])
    star = compute_star_points(m)
    r = (2.0 - np.sqrt(2.0)) / 2.0
    assert np.allclose(star[0], [r, r], atol=1e-6)


def test_star_point_hexagon():
    ang = 2.0 * np.pi * np.arange(6) / 6.0
    m = make_single_cell(np.column_stack([np.cos(ang), np.sin(ang)]))
    star = compute_star_points(m)
    assert np.allclose(star[0], [0.0, 0.0], atol=1e-9)


L_HEXAGON = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
U_OCTAGON = [(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("vertices, scale, star", [
    (L_HEXAGON, 1.0, (0.5, 0.5)),
    # the LP is posed in each cell's own frame, so tiny cells come out right
    (L_HEXAGON, 1e-9, (0.5, 0.5)),
    (U_OCTAGON, 1.0, None),
], ids=["L-hexagon", "L-hexagon-tiny", "U-octagon"])
def test_star_point_nonconvex(vertices, scale, star):
    m = make_single_cell(scale * np.asarray(vertices, dtype=float))
    if star is None:
        with pytest.raises(StarShapeError, match="cell 0"):
            compute_star_points(m)
    else:
        assert np.allclose(compute_star_points(m)[0] / scale, star,
                           atol=1e-9, rtol=0.0)


def _incenter(pts):
    a = np.linalg.norm(pts[2] - pts[1])
    b = np.linalg.norm(pts[0] - pts[2])
    c = np.linalg.norm(pts[1] - pts[0])
    return (a * pts[0] + b * pts[1] + c * pts[2]) / (a + b + c)


@pytest.mark.parametrize("make", [lambda: gen_uniform_triangles(4),
                                  lambda: gen_delaunay_triangles(60, rng_seed=3)],
                         ids=["tri4", "delaunay60"])
def test_star_points_are_incenters_on_triangles(make):
    m = make()
    star = compute_star_points(m)
    ref = np.array([_incenter(m.vertices[m.cells[c]])
                    for c in range(m.num_cells)])
    assert np.abs(star - ref).max() <= 1e-13


def _kernel_lp_reference(pts):
    """HiGHS solution of the kernel LP max r s.t. n_i . x + r <= b_i: the
    center, the radius, the cell diameter h and the extent of the points
    within 1e-9 h of the optimal radius (a bound on how far apart two
    optimal centers can be). The LP is posed about the vertex mean with the
    cell 1e4 long, so HiGHS's absolute tolerances (>= 1e-10) stay below
    1e-12 h."""
    xbar = pts.mean(axis=0)
    h = max(np.hypot(*(p - q)) for p in pts for q in pts)
    h_lp = h / 1e4
    q = (pts - xbar) / h_lp
    d = np.roll(q, -1, axis=0) - q
    n = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    a_ub, b_ub = np.column_stack([n, np.ones(len(q))]), (n * q).sum(axis=1)
    options = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}
    best = linprog([0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub, bounds=(None, None),
                   method="highs", options=options).x
    ends = [linprog(np.eye(3)[axis] * sign, A_ub=np.vstack([a_ub, [0, 0, -1]]),
                    b_ub=np.r_[b_ub, 1e-5 - best[2]], bounds=(None, None),
                    method="highs", options=options).x[axis]
            for axis in (0, 1) for sign in (1.0, -1.0)]
    extent = max(ends[1] - ends[0], ends[3] - ends[2])
    return xbar + h_lp * best[:2], h_lp * best[2], h, h_lp * extent


@st.composite
def kernel_cells(draw):
    """Vertex loops of cells with a kernel: convex polygons with 3-12 edges,
    radial star-shaped polygons, L-shaped hexagons; optionally a vertex of
    interior angle pi - 1e-8; scaled by 1e-9..1e3 and shifted."""
    kind = draw(st.sampled_from(["convex", "star", "L"]))
    if kind == "L":
        a, b = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
        pts = np.array([(0, 0), (1, 0), (1, b), (a, b), (a, 1), (0, 1)], float)
    else:
        m = draw(st.integers(3, 12))
        gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m,
                                      max_size=m)))
        gaps *= 2.0 * np.pi / gaps.sum()
        # every gap below pi: the origin sees the whole loop
        assume(gaps.max() < 0.95 * np.pi)
        ang = np.cumsum(gaps)
        if kind == "convex":
            radii = np.ones(m), draw(st.floats(0.2, 1.0)) * np.ones(m)
        else:
            radii = (np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=m,
                                            max_size=m))),) * 2
        pts = np.column_stack([radii[0] * np.cos(ang), radii[1] * np.sin(ang)])
    if draw(st.booleans()):
        # the first edge's midpoint pushed out by 2.5e-9 of its length
        t = pts[1] - pts[0]
        pts = np.insert(pts, 1, 0.5 * (pts[0] + pts[1])
                        + 2.5e-9 * np.array([t[1], -t[0]]), axis=0)
    scale = 10.0 ** draw(st.floats(-9.0, 3.0))
    shift = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
    return scale * (pts + shift)


@settings(max_examples=60, deadline=None)
@given(kernel_cells())
def test_kernel_chebyshev_matches_lp_reference(pts):
    center, radius = polymesh._kernel_chebyshev(make_single_cell(pts))
    ref_center, ref_radius, h, extent = _kernel_lp_reference(pts)
    assert abs(radius[0] - ref_radius) <= 1e-12 * h
    # the disc of that radius about the center lies in every inner half-plane
    d = np.roll(pts, -1, axis=0) - pts
    n = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    assert ((pts - center[0]) * n).sum(axis=1).min() >= ref_radius - 1e-12 * h
    if extent <= 1e-6 * h:
        # a unique optimum: both centers lie within the near-optimal extent
        assert np.abs(center[0] - ref_center).max() <= extent + 1e-12 * h


@pytest.mark.parametrize("shift", range(4))
def test_star_point_rectangle_is_segment_midpoint(shift):
    # every point of the segment y = 0.5, 0.5 <= x <= 1.5 is a center of a
    # largest disc; the star point is its midpoint whatever the numbering
    rect = np.roll([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)], -shift,
                   axis=0)
    center, radius = polymesh._kernel_chebyshev(make_single_cell(rect))
    assert center.tolist() == [[1.0, 0.5]]
    assert radius.tolist() == [0.5]


def test_star_point_64gon_bounded_memory():
    # C(64, 3) = 41,664 vertices of 64 slacks each: 21 MB in one array
    ang = 2.0 * np.pi * np.arange(64) / 64.0
    cell = make_single_cell(np.column_stack([np.cos(ang), np.sin(ang)]))
    tracemalloc.start()
    try:
        center, radius = polymesh._kernel_chebyshev(cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(center).max() <= 1e-12
    assert abs(radius[0] - np.cos(np.pi / 64.0)) <= 2e-12
    assert peak < 32e6


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.sparse.csgraph"])
def test_cli_import_leaves_scipy_optimize_out(module):
    # modules the program does not use stay out of it: each costs resident
    # memory in every run, scipy.sparse.csgraph alone about 1 MB
    src = Path(polymesh.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import stagpoly.cli; "
            "sys.exit(int(sys.argv[2] in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code, str(src), module]).returncode == 0


def test_star_point_zero_length_edge_rejected():
    m = build_polymesh([(0, 0), (1, 0), (1, 0), (0, 1)], [[0, 1, 2, 3]])
    with pytest.raises(MeshValidationError, match="zero-length edge"):
        compute_star_points(m)


def test_mesh_groups_cover_every_cell_once(voronoi64):
    # one CellGroup per edge count, ascending, built once, read-only
    groups = voronoi64.groups
    assert voronoi64.groups is groups
    sizes = [grp.n_edges for grp in groups]
    assert len(sizes) >= 4 and sizes == sorted(set(sizes))
    cells = np.concatenate([grp.cells for grp in groups])
    assert np.array_equal(np.sort(cells), np.arange(voronoi64.num_cells))
    for grp in groups:
        assert np.array_equal(grp.verts,
                              [voronoi64.cells[c] for c in grp.cells])
        for f in dataclasses.fields(grp):
            arr = getattr(grp, f.name)
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def test_fan_unit_square(unit_square_cell):
    sub = build_subtriangulation(unit_square_cell,
                                 star_points=np.array([[0.5, 0.5]]))
    (areas,) = sub.areas
    assert areas.shape == (1, 4)
    assert np.allclose(areas, 0.25, atol=1e-15)


def test_fan_pentagon(pentagon_cell):
    (areas,) = subtriangulate(pentagon_cell).areas
    assert areas.shape == (1, 5)
    assert areas.sum() == pytest.approx(pentagon_cell.areas()[0], abs=1e-13)


def test_fan_partition_exact(tri4_sub, squares4_sub, voronoi64_sub):
    for sub in (tri4_sub, squares4_sub, voronoi64_sub):
        for grp, areas in zip(sub.mesh.groups, sub.areas):
            gap = areas.sum(axis=1) - sub.mesh.areas()[grp.cells]
            assert np.abs(gap).max() < 1e-12


def test_star_on_edge_rejected(unit_square_cell):
    with pytest.raises(StarShapeError):
        build_subtriangulation(unit_square_cell,
                               star_points=np.array([[0.5, 0.0]]))


def test_subtriangulation_keeps_its_own_star_points():
    # editing the caller's array after the build leaves the star points
    # the fan areas were computed from
    mesh = gen_uniform_squares(2)
    stars = compute_star_points(mesh)
    kept = stars.copy()
    sub = build_subtriangulation(mesh, star_points=stars)
    stars[0] = [0.9, 0.9]
    assert np.array_equal(sub.star, kept)
    (grp,), (areas,) = mesh.groups, sub.areas
    assert np.all(areas == 0.0625)
    assert np.array_equal(polymesh.fan_areas(grp.loop, sub.star[grp.cells]),
                          areas)
    with pytest.raises(ValueError):
        sub.star[0] = [0.9, 0.9]


def test_fan_normals_opposite_across_interior_edges(tri4):
    normal = {}
    for grp in tri4.groups:
        for c, ids, n in zip(grp.cells, grp.edge_ids, grp.frames[:, :, 0]):
            normal.update({(c, e): n[i] for i, e in enumerate(ids)})
    for e in range(tri4.num_edges):
        c0, c1 = tri4.edge_cells[e]
        if c1 < 0:
            continue
        assert np.allclose(normal[c0, e], -normal[c1, e], atol=1e-14)


def test_fan_geometry_fields(voronoi64, voronoi64_sub):
    for grp in element_groups(voronoi64, voronoi64_sub, 0,
                              identity_coefficient()):
        normals, tangents = grp.frames[:, :, 0], grp.frames[:, :, 1]
        assert np.allclose(np.linalg.norm(normals, axis=-1), 1.0, atol=1e-13)
        assert np.allclose(np.linalg.norm(tangents, axis=-1), 1.0,
                           atol=1e-13)
        # outward normal is the CCW tangent rotated clockwise
        rot = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
        assert np.allclose(normals, rot, atol=1e-13)
        assert np.allclose(grp.h, np.sqrt(voronoi64.areas()[grp.cells]),
                           rtol=0, atol=1e-15)
        assert np.allclose(grp.xbar, grp.loop.mean(axis=1), atol=1e-15)


# ---------------------------------------------------------------------------
# quality report

def test_quality_unit_square(unit_square_cell):
    rep = quality_report(unit_square_cell)
    assert rep.chunkiness[0] == pytest.approx(np.sqrt(2.0) / 0.5, abs=1e-6)


def test_quality_equilateral():
    m = make_single_cell([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)])
    rep = quality_report(m)
    assert rep.chunkiness[0] == pytest.approx(2 * np.sqrt(3), abs=1e-6)


def test_quality_voronoi_bounded(voronoi64):
    rep = quality_report(voronoi64)
    assert rep.max_chunkiness < 20.0
    assert np.all(rep.chunkiness >= 1.0)


# ---------------------------------------------------------------------------
# documents

def test_document_roundtrip(tri4):
    doc = mesh_document(tri4)
    m2 = load_mesh(doc)
    assert np.array_equal(m2.vertices, tri4.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(m2.cells, tri4.cells))
    assert np.array_equal(m2.edge_markers, tri4.edge_markers)


def test_document_is_json(voronoi64):
    data = json.loads(mesh_document(voronoi64))
    assert len(data["vertices"]) == voronoi64.num_vertices
    assert len(data["cells"]) == 64


def test_write_read_file(tmp_path, squares4):
    path = tmp_path / "mesh.json"
    path.write_text(mesh_document(squares4), encoding="utf-8")
    m2 = read_mesh(path)
    assert np.array_equal(m2.vertices, squares4.vertices)


def test_load_rejects_bad_json():
    with pytest.raises(MeshFormatError):
        load_mesh("{not json")


def test_load_rejects_missing_keys():
    with pytest.raises(MeshFormatError):
        load_mesh(json.dumps({"vertices": [[0, 0]]}))


def test_load_propagates_validation():
    doc = json.dumps({"vertices": [[0, 0], [1, 0], [1, 1]],
                      "cells": [[0, 1, 1]]})
    with pytest.raises(MeshValidationError):
        load_mesh(doc)


TRIANGLE = {"vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[0, 1, 2]]}


@pytest.mark.parametrize("change", [
    {"cells": [[0, 1.7, 2]]},
    {"cells": [["0", "1", "2"]]},
    {"cells": [[False, True, 2]]},
    {"cells": 5},
    {"cells": [5]},
    {"vertices": [["0", 0], [1, 0], [0, 1]]},
    {"h": "abc"},
    {"h": True},
    {"boundary_markers": [{"edge": [0, 1], "tag": "x"}]},
    {"boundary_markers": [{"edge": [0, 1], "tag": 2.9}]},
    {"boundary_markers": [{"edge": [0, 1.0], "tag": 1}]},
    {"boundary_markers": [{"edge": [0], "tag": 1}]},
    {"boundary_markers": [{"tag": 1}]},
    {"boundary_markers": 7},
], ids=["float-index", "string-index", "bool-index", "cells-int",
        "cell-int", "string-coordinate", "h-string", "h-bool", "tag-string",
        "tag-float", "edge-float", "edge-short", "edge-missing",
        "markers-int"])
def test_load_rejects_wrong_types(change):
    with pytest.raises(MeshFormatError):
        load_mesh(json.dumps({**TRIANGLE, **change}))


def test_load_accepts_integral_h_and_markers():
    m = load_mesh(json.dumps({**TRIANGLE, "h": 1, "boundary_markers": [
        {"edge": [1, 0], "tag": 3}]}))
    assert m.h_report == 1.0
    assert m.edge_markers.tolist() == [3, 0, 0]
