import json

import numpy as np
import pytest

from stagpoly import polymesh
from stagpoly.polymesh import (
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
    write_mesh,
)

from conftest import make_single_cell, subtriangulate


# ---------------------------------------------------------------------------
# construction and validation

def test_single_quad_cell(unit_square_cell):
    m = unit_square_cell
    assert m.num_cells == 1
    assert m.num_edges == 4
    assert len(m.boundary_edges) == 4
    assert m.cell_area(0) == pytest.approx(1.0, abs=1e-15)


def test_single_pentagon_cell(pentagon_cell):
    m = pentagon_cell
    assert m.num_cells == 1
    assert len(m.boundary_edges) == 5
    # regular pentagon with circumradius 1
    assert m.cell_area(0) == pytest.approx(2.5 * np.sin(2 * np.pi / 5), abs=1e-13)


def test_repeated_vertex_rejected():
    with pytest.raises(MeshValidationError):
        build_polymesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 1, 2]])


def test_clockwise_cell_rejected():
    with pytest.raises(MeshValidationError):
        build_polymesh([(0, 0), (1, 0), (1, 1)], [[0, 2, 1]])


def test_dangling_vertex_rejected():
    with pytest.raises(MeshValidationError):
        build_polymesh([(0, 0), (1, 0), (1, 1), (5, 5)], [[0, 1, 2]])


def test_out_of_range_index_rejected():
    with pytest.raises(MeshValidationError):
        build_polymesh([(0, 0), (1, 0), (1, 1)], [[0, 1, 7]])


def test_nonmanifold_edge_rejected():
    # two cells on the same side of a shared edge traverse it identically
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(MeshValidationError):
        build_polymesh(verts, [[0, 1, 2], [0, 1, 3]])


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
        pts = m.cell_vertices(c)
        q = np.roll(pts, -1, axis=0)
        r = np.roll(pts, -2, axis=0)
        cross = (q[:, 0] - pts[:, 0]) * (r[:, 1] - q[:, 1]) \
            - (q[:, 1] - pts[:, 1]) * (r[:, 0] - q[:, 0])
        assert np.all(cross > -1e-12), f"cell {c} is not convex"


def test_voronoi_two_seeds_bisector():
    m = gen_voronoi_polygons(2, lloyd_iters=0, rng_seed=5)
    assert m.num_cells == 2
    assert abs(m.areas().sum() - 1.0) < 1e-12


def test_voronoi_deterministic():
    a = gen_voronoi_polygons(16, lloyd_iters=10, rng_seed=9)
    b = gen_voronoi_polygons(16, lloyd_iters=10, rng_seed=9)
    assert np.array_equal(a.vertices, b.vertices)
    assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))


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
    ref = np.array([_incenter(m.cell_vertices(c)) for c in range(m.num_cells)])
    assert np.abs(star - ref).max() <= 1e-13


def test_star_point_centroid_method(pentagon_cell):
    star = compute_star_points(pentagon_cell, method="centroid")
    assert np.allclose(star[0], [0.0, 0.0], atol=1e-12)


def test_fan_unit_square(unit_square_cell):
    sub = build_subtriangulation(unit_square_cell,
                                 star_points=np.array([[0.5, 0.5]]))
    fan = sub.fans[0]
    assert fan.n_edges == 4
    assert np.allclose(fan.areas, 0.25, atol=1e-15)
    assert sub.num_triangles == 4


def test_fan_pentagon(pentagon_cell):
    sub = subtriangulate(pentagon_cell)
    fan = sub.fans[0]
    assert fan.n_edges == 5
    assert fan.areas.sum() == pytest.approx(pentagon_cell.cell_area(0), abs=1e-13)


def test_fan_partition_exact(tri4_sub, squares4_sub, voronoi64_sub):
    for sub in (tri4_sub, squares4_sub, voronoi64_sub):
        for c, fan in enumerate(sub.fans):
            assert abs(fan.areas.sum() - sub.mesh.cell_area(c)) < 1e-12


def test_star_on_edge_rejected(unit_square_cell):
    with pytest.raises(StarShapeError):
        build_subtriangulation(unit_square_cell,
                               star_points=np.array([[0.5, 0.0]]))


def test_fan_normals_opposite_across_interior_edges(tri4, tri4_sub):
    for e in range(tri4.num_edges):
        c0, c1 = tri4.edge_cells[e]
        if c1 < 0:
            continue
        f0, f1 = tri4_sub.fans[c0], tri4_sub.fans[c1]
        i0 = int(np.flatnonzero(f0.edge_ids == e)[0])
        i1 = int(np.flatnonzero(f1.edge_ids == e)[0])
        assert np.allclose(f0.normals[i0], -f1.normals[i1], atol=1e-14)


def test_fan_geometry_fields(voronoi64_sub):
    for fan in voronoi64_sub.fans[:10]:
        assert np.allclose(np.linalg.norm(fan.normals, axis=1), 1.0, atol=1e-13)
        assert np.allclose(np.linalg.norm(fan.tangents, axis=1), 1.0, atol=1e-13)
        # outward normal is the CCW tangent rotated clockwise
        rot = np.column_stack([fan.tangents[:, 1], -fan.tangents[:, 0]])
        assert np.allclose(fan.normals, rot, atol=1e-13)
        assert fan.h == pytest.approx(np.sqrt(fan.area), abs=1e-15)
        assert np.allclose(fan.xbar, fan.loop.mean(axis=0), atol=1e-15)


# ---------------------------------------------------------------------------
# quality report

def test_quality_unit_square(unit_square_cell):
    sub = subtriangulate(unit_square_cell)
    rep = quality_report(unit_square_cell, sub)
    assert rep.chunkiness[0] == pytest.approx(np.sqrt(2.0) / 0.5, abs=1e-6)


def test_quality_equilateral():
    m = make_single_cell([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)])
    rep = quality_report(m, subtriangulate(m))
    assert rep.chunkiness[0] == pytest.approx(2 * np.sqrt(3), abs=1e-6)


def test_quality_voronoi_bounded(voronoi64, voronoi64_sub):
    rep = quality_report(voronoi64, voronoi64_sub)
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
    write_mesh(squares4, path)
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
