"""Quadrature rules and scaled polynomial bases.

Reference triangle is {x, y >= 0, x + y <= 1}, reference edge is [0, 1].
Cell bases are scaled monomials in ((x, y) - xbar) / h; face bases are 1D
monomials in the centered arclength parameter of the edge's canonical
direction; flux bases attach the (normal, tangent) frame of each fan
triangle to scaled monomials supported on that triangle only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .polymesh import CellFan

__all__ = [
    "QuadratureError",
    "QuadRule",
    "triangle_rule",
    "edge_rule",
    "map_to_triangle",
    "map_to_edge",
    "CellBasis",
    "FaceBasis",
    "FluxBasis",
    "cell_basis",
    "face_basis",
    "flux_basis",
    "monomial_exponents",
]

MAX_TRIANGLE_DEGREE = 10


class QuadratureError(Exception):
    pass


@dataclass(frozen=True)
class QuadRule:
    """Points and weights on a reference domain (triangle or unit interval)."""
    points: np.ndarray
    weights: np.ndarray
    degree: int


def triangle_rule(degree: int) -> QuadRule:
    """Rule exact to `degree` on the reference triangle.

    Degrees up to 2 use the three-edge-midpoint rule; higher degrees use a
    Duffy-collapsed Gauss-Legendre x Gauss-Jacobi product. Capped at
    MAX_TRIANGLE_DEGREE.
    """
    if degree < 0:
        raise QuadratureError("degree must be >= 0")
    if degree > MAX_TRIANGLE_DEGREE:
        raise QuadratureError(f"triangle rules capped at degree {MAX_TRIANGLE_DEGREE}")
    if degree <= 2:
        pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        wts = np.full(3, 1.0 / 6.0)
        return QuadRule(points=pts, weights=wts, degree=2)
    m = (degree + 2) // 2
    # x = xi (1 - eta), y = eta; the Jacobian (1 - eta) is absorbed into a
    # Gauss-Jacobi (alpha=1, beta=0) rule along eta.
    gx, gw = np.polynomial.legendre.leggauss(m)
    xi = 0.5 * (gx + 1.0)
    wxi = 0.5 * gw
    ju, jw = roots_jacobi(m, 1.0, 0.0)
    eta = 0.5 * (ju + 1.0)
    weta = 0.25 * jw
    pts = np.empty((m * m, 2))
    wts = np.empty(m * m)
    idx = 0
    for a in range(m):
        for b in range(m):
            pts[idx, 0] = xi[a] * (1.0 - eta[b])
            pts[idx, 1] = eta[b]
            wts[idx] = wxi[a] * weta[b]
            idx += 1
    return QuadRule(points=pts, weights=wts, degree=degree)


def edge_rule(npoints: int) -> QuadRule:
    """Gauss rule with `npoints` points on [0, 1], exact to degree 2n - 1."""
    if not 1 <= npoints <= 6:
        raise QuadratureError("edge rules support 1..6 points")
    gx, gw = np.polynomial.legendre.leggauss(npoints)
    return QuadRule(points=0.5 * (gx + 1.0), weights=0.5 * gw,
                    degree=2 * npoints - 1)


def map_to_triangle(rule: QuadRule, tri):
    """Physical points/weights of a reference rule on triangle tri (3, 2)."""
    v0, v1, v2 = np.asarray(tri, dtype=float)
    pts = v0 + np.outer(rule.points[:, 0], v1 - v0) + np.outer(rule.points[:, 1], v2 - v0)
    jac = abs((v1[0] - v0[0]) * (v2[1] - v0[1]) - (v1[1] - v0[1]) * (v2[0] - v0[0]))
    return pts, rule.weights * jac


def map_to_edge(rule: QuadRule, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pts = a + np.outer(rule.points, b - a)
    return pts, rule.weights * float(np.linalg.norm(b - a))


def monomial_exponents(degree: int):
    """Graded ordering: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ..."""
    return [(d - i, i) for d in range(degree + 1) for i in range(d + 1)]


@dataclass(frozen=True)
class CellBasis:
    """Scaled monomials of total degree <= degree on one cell."""
    degree: int
    xbar: np.ndarray
    h: float
    exponents: tuple

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xi = (pts[:, 0] - self.xbar[0]) / self.h
        eta = (pts[:, 1] - self.xbar[1]) / self.h
        out = np.empty((len(pts), self.dim))
        for j, (a, b) in enumerate(self.exponents):
            out[:, j] = xi ** a * eta ** b
        return out

    def grad(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xi = (pts[:, 0] - self.xbar[0]) / self.h
        eta = (pts[:, 1] - self.xbar[1]) / self.h
        out = np.zeros((len(pts), self.dim, 2))
        for j, (a, b) in enumerate(self.exponents):
            if a > 0:
                out[:, j, 0] = a * xi ** (a - 1) * eta ** b / self.h
            if b > 0:
                out[:, j, 1] = b * xi ** a * eta ** (b - 1) / self.h
        return out


def cell_basis(fan: CellFan, k: int) -> CellBasis:
    """Basis of P_{k+1} on the cell, shifted to the vertex average."""
    return CellBasis(degree=k + 1, xbar=fan.xbar, h=fan.h,
                     exponents=tuple(monomial_exponents(k + 1)))


@dataclass(frozen=True)
class FaceBasis:
    """1D monomials in the centered arclength parameter of an edge.

    The parameter s((x,y)) = ((x,y) - midpoint) . direction / length runs
    over [-1/2, 1/2]; `direction` is the canonical edge direction shared by
    both adjacent cells.
    """
    degree: int
    midpoint: np.ndarray
    direction: np.ndarray
    length: float

    @property
    def dim(self) -> int:
        return self.degree + 1

    def param(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.midpoint) @ self.direction / self.length

    def eval(self, points):
        s = self.param(points)
        return np.column_stack([s ** p for p in range(self.dim)])


def face_basis(mesh_vertices, edge, k: int) -> FaceBasis:
    """Canonical face basis of edge (v0, v1) with v0 < v1."""
    a = np.asarray(mesh_vertices[edge[0]], dtype=float)
    b = np.asarray(mesh_vertices[edge[1]], dtype=float)
    length = float(np.linalg.norm(b - a))
    return FaceBasis(degree=k, midpoint=0.5 * (a + b),
                     direction=(b - a) / length, length=length)


@dataclass(frozen=True)
class FluxBasis:
    """Frame-vector times scaled-monomial basis on the fan of one cell.

    Ordering: all normal-frame functions first (triangle-major,
    monomial-minor), then all tangent-frame functions. Function supports
    on distinct fan triangles are disjoint.
    """
    fan: CellFan
    k: int
    centroids: np.ndarray   # (m, 2) fan triangle centroids

    @property
    def n_mono(self) -> int:
        return (self.k + 1) * (self.k + 2) // 2

    @property
    def dim(self) -> int:
        return 2 * self.fan.n_edges * self.n_mono

    def mono_eval(self, tri: int, points):
        """Scalar monomial values on triangle tri at given points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xi = (pts[:, 0] - self.centroids[tri, 0]) / self.fan.h
        eta = (pts[:, 1] - self.centroids[tri, 1]) / self.fan.h
        exps = monomial_exponents(self.k)
        out = np.empty((len(pts), len(exps)))
        for j, (a, b) in enumerate(exps):
            out[:, j] = xi ** a * eta ** b
        return out

    def mono_grad(self, tri: int, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xi = (pts[:, 0] - self.centroids[tri, 0]) / self.fan.h
        eta = (pts[:, 1] - self.centroids[tri, 1]) / self.fan.h
        exps = monomial_exponents(self.k)
        out = np.zeros((len(pts), len(exps), 2))
        for j, (a, b) in enumerate(exps):
            if a > 0:
                out[:, j, 0] = a * xi ** (a - 1) * eta ** b / self.fan.h
            if b > 0:
                out[:, j, 1] = b * xi ** a * eta ** (b - 1) / self.fan.h
        return out

    def index(self, frame: int, tri: int, mono: int) -> int:
        """frame 0 = normal, 1 = tangent."""
        return frame * self.fan.n_edges * self.n_mono + tri * self.n_mono + mono

    def frame_vector(self, frame: int, tri: int):
        return self.fan.normals[tri] if frame == 0 else self.fan.tangents[tri]

    def home_triangle(self, x):
        """Index of the fan triangle containing x, or -1."""
        fan = self.fan
        for i in range(fan.n_edges):
            tri = fan.triangle(i)
            if _in_triangle(tri, np.asarray(x, dtype=float)):
                return i
        return -1

    def eval_at(self, x):
        """Values of all basis functions at one point, shape (dim, 2).

        Zero outside the home triangle of x; points outside the cell give
        all zeros.
        """
        out = np.zeros((self.dim, 2))
        tri = self.home_triangle(x)
        if tri < 0:
            return out
        mono = self.mono_eval(tri, [x])[0]
        for frame in range(2):
            vec = self.frame_vector(frame, tri)
            for m in range(self.n_mono):
                out[self.index(frame, tri, m)] = mono[m] * vec
        return out


def _in_triangle(tri, x, tol=1e-12):
    v0, v1, v2 = tri
    d = np.array([v1 - v0, v2 - v1, v0 - v2])
    p = np.array([x - v0, x - v1, x - v2])
    cross = d[:, 0] * p[:, 1] - d[:, 1] * p[:, 0]
    scale = max(1.0, float(np.abs(cross).max()))
    return bool(np.all(cross >= -tol * scale))


def flux_basis(fan: CellFan, k: int) -> FluxBasis:
    m = fan.n_edges
    cent = np.empty((m, 2))
    for i in range(m):
        cent[i] = fan.triangle(i).mean(axis=0)
    return FluxBasis(fan=fan, k=k, centroids=cent)

