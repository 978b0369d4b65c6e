"""Quadrature rules and scaled polynomial bases.

Reference triangle is {x, y >= 0, x + y <= 1}, reference edge is [0, 1].
Cell bases are scaled monomials in ((x, y) - xbar) / h; face bases are 1D
monomials in the centered arclength parameter of the edge's canonical
direction; the flux basis (weakgrad.flux_basis) is monomials about the
reference centroid times one table. Every function here works on arrays
of any leading shape, so one call covers all cells of a valence group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadRule",
    "triangle_rule",
    "edge_rule",
    "map_to_triangle",
    "map_to_edge",
    "monomial_exponents",
    "monomials",
    "derivative_table",
    "face_monomials",
]

MAX_TRIANGLE_DEGREE = 10


class QuadratureError(Exception):
    pass


@dataclass(frozen=True)
class QuadRule:
    """Points and weights on a reference domain (triangle or unit interval),
    read-only: every caller shares one cached rule."""
    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False


@lru_cache(maxsize=None)
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
    # scipy.special loads only for k >= 1 or high-order quadrature
    from scipy.special import roots_jacobi
    ju, jw = roots_jacobi(m, 1.0, 0.0)
    eta = 0.5 * (ju + 1.0)
    weta = 0.25 * jw
    pts = np.column_stack([np.outer(xi, 1.0 - eta).ravel(), np.tile(eta, m)])
    wts = np.outer(wxi, weta).ravel()
    return QuadRule(points=pts, weights=wts, degree=degree)


@lru_cache(maxsize=None)
def edge_rule(npoints: int) -> QuadRule:
    """Gauss rule with `npoints` points on [0, 1], exact to degree 2n - 1."""
    if not 1 <= npoints <= 6:
        raise QuadratureError("edge rules support 1..6 points")
    gx, gw = np.polynomial.legendre.leggauss(npoints)
    return QuadRule(points=0.5 * (gx + 1.0), weights=0.5 * gw,
                    degree=2 * npoints - 1)


def map_to_triangle(rule: QuadRule, tri):
    """Physical points/weights of a reference rule on triangles tri (..., 3, 2).

    Returns points (..., q, 2) and weights (..., q).
    """
    tri = np.asarray(tri, dtype=float)
    x, y = rule.points.T
    # one product over all triangles, not a stack of (q, 3) @ (3, 2) ones
    pts = np.ascontiguousarray(np.moveaxis(np.tensordot(
        np.stack([1.0 - x - y, x, y], axis=1), tri, axes=(1, -2)), 0, -2))
    e1, e2 = tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :]
    jac = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    return pts, rule.weights * jac[..., None]


def map_to_edge(rule: QuadRule, a, b):
    """Physical points/weights of a reference rule on segments a -> b (..., 2)."""
    a = np.asarray(a, dtype=float)[..., None, :]
    b = np.asarray(b, dtype=float)[..., None, :]
    d = b - a
    pts = a + rule.points[:, None] * d
    return pts, rule.weights * np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)


def monomial_exponents(degree: int):
    """Graded ordering: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ..."""
    return [(d - i, i) for d in range(degree + 1) for i in range(d + 1)]


def _powers(t, top: int) -> list:
    """Powers t^0 .. t^top of an array t by repeated products: pow is slow,
    and t^0 and t^1 come out exact."""
    return list(accumulate([t] * top, np.multiply, initial=np.ones_like(t)))


def monomials(points, center, h, degree: int):
    """Scaled monomials ((x, y) - center) / h of total degree <= degree.

    points (..., 2); center and h broadcast against points (..., 2) and
    points[..., 0]. Returns values (..., n) in the graded ordering of
    monomial_exponents; their gradients are the degree - 1 values over h
    times derivative_table(degree).
    """
    pts = np.asarray(points, dtype=float)
    h = np.asarray(h, dtype=float)
    xi = (pts[..., 0] - center[..., 0]) / h
    eta = (pts[..., 1] - center[..., 1]) / h
    exps = monomial_exponents(degree)
    xp, ep = _powers(xi, degree), _powers(eta, degree)
    out = np.empty(xi.shape + (len(exps),))
    for j, (a, b) in enumerate(exps):
        np.multiply(xp[a], ep[b], out=out[..., j])
    return out


def derivative_table(degree: int) -> np.ndarray:
    """Exponent table D (n_{degree-1}, n_degree, 2) of the scaled monomials:
    d m_c / dx_x = sum_b D[b, c, x] m_b / h, so D[b, c, 0] = a where
    m_c = xi^a eta^e and m_b = xi^(a-1) eta^e, and likewise along y. Every
    other entry is 0, and at degree 0 the table is empty."""
    lower = {e: b for b, e in enumerate(monomial_exponents(degree - 1))}
    exps = monomial_exponents(degree)
    D = np.zeros((len(lower), len(exps), 2))
    for c, (a, e) in enumerate(exps):
        if a:
            D[lower[a - 1, e], c, 0] = a
        if e:
            D[lower[a, e - 1], c, 1] = e
    return D


def face_monomials(s, degree: int):
    """Face basis s^p, p = 0..degree, at centered arclength parameters s.

    s runs over [-1/2, 1/2] along the edge's canonical direction (from its
    lower to its higher vertex id). Returns (..., degree + 1).
    """
    return np.stack(_powers(np.asarray(s, dtype=float), degree), axis=-1)
