"""Shared fixtures: the three mesh families plus single-cell meshes."""

import numpy as np
import pytest
from hypothesis import settings

from stagpoly import polymesh

# `pytest --hypothesis-profile=ci` prints the blob that reproduces a
# failing example; every other setting stays at its default
settings.register_profile("ci", print_blob=True)


def make_single_cell(vertices):
    vertices = np.asarray(vertices, dtype=float)
    return polymesh.build_polymesh(vertices, [list(range(len(vertices)))])


def subtriangulate(mesh):
    stars = polymesh.compute_star_points(mesh)
    return polymesh.build_subtriangulation(mesh, star_points=stars)


@pytest.fixture(scope="session")
def tri4():
    return polymesh.gen_uniform_triangles(4)


@pytest.fixture(scope="session")
def tri4_sub(tri4):
    return subtriangulate(tri4)


@pytest.fixture(scope="session")
def squares4():
    return polymesh.gen_uniform_squares(4)


@pytest.fixture(scope="session")
def squares4_sub(squares4):
    return subtriangulate(squares4)


@pytest.fixture(scope="session")
def voronoi64():
    return polymesh.gen_voronoi_polygons(64, lloyd_iters=100, rng_seed=1)


@pytest.fixture(scope="session")
def voronoi64_sub(voronoi64):
    return subtriangulate(voronoi64)


@pytest.fixture(scope="session")
def unit_square_cell():
    return make_single_cell([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.fixture(scope="session")
def pentagon_cell():
    ang = np.pi / 2 + 2.0 * np.pi * np.arange(5) / 5.0
    return make_single_cell(np.column_stack([np.cos(ang), np.sin(ang)]))


@pytest.fixture(scope="session")
def mesh_families(tri4, squares4, voronoi64):
    return {"triangles": tri4, "squares": squares4, "voronoi": voronoi64}
