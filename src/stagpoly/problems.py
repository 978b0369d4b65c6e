"""Built-in model problems for solves, convergence studies, and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import BoundarySpec
from .weakgrad import CoefficientField, identity_coefficient, scalar_coefficient

__all__ = [
    "Problem",
    "example1",
    "example2",
    "example3",
    "patch_linear",
    "patch_quadratic",
    "get_problem",
]


@dataclass
class Problem:
    """A PDE instance: coefficient, load, boundary data, optional exact u.

    u and grad_u come together: a problem with an exact solution gives its
    gradient too, which the error norms read. flux_sign tags the recovered
    flux: +1 for the potential flux K grad u, -1 for the Darcy flux
    -K grad u. table_columns lists the norms (in report order) a
    convergence study of this problem tabulates.
    """
    name: str
    coeff: CoefficientField
    f: Callable
    bc: BoundarySpec
    u: Callable | None = None
    grad_u: Callable | None = None
    flux_sign: int = 1
    table_columns: tuple = ("e_sigma_L2", "e_L2")

    @property
    def has_exact(self) -> bool:
        return self.u is not None


def _cospi(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.cos(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1])


def _grad_cospi(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    sx, cx = np.sin(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0])
    sy, cy = np.sin(np.pi * pts[:, 1]), np.cos(np.pi * pts[:, 1])
    return np.column_stack([-np.pi * sx * cy, -np.pi * cx * sy])


def _f_cospi(pts):
    return 2.0 * np.pi ** 2 * _cospi(pts)


def example1() -> Problem:
    """u = cos(pi x) cos(pi y) on the unit square, Dirichlet, K = I."""
    return Problem(
        name="example1",
        coeff=identity_coefficient(),
        f=_f_cospi,
        bc=BoundarySpec.dirichlet_everywhere(_cospi),
        u=_cospi,
        grad_u=_grad_cospi,
        flux_sign=1,
        table_columns=("e_sigma_L2", "e_L2"),
    )


def example2() -> Problem:
    """u = cos(pi x) cos(pi y) - 1, Dirichlet, K = I, polygon meshes."""
    def u(pts):
        return _cospi(pts) - 1.0
    return Problem(
        name="example2",
        coeff=identity_coefficient(),
        f=_f_cospi,
        bc=BoundarySpec.dirichlet_everywhere(u),
        u=u,
        grad_u=_grad_cospi,
        flux_sign=1,
        table_columns=("e_1h", "e_L2", "e_sigma_0h"),
    )


def example3() -> Problem:
    """Unit horizontal flow past a low-permeability block (Darcy flux).

    kappa = 1e-3 inside (3/8, 5/8) x (1/4, 3/4) and 1 elsewhere; u = 1 on
    the left wall, u = 0 on the right, no-flow top and bottom; f = 0.
    """
    def kappa(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = ((pts[:, 0] > 0.375) & (pts[:, 0] < 0.625)
                  & (pts[:, 1] > 0.25) & (pts[:, 1] < 0.75))
        return np.where(inside, 1e-3, 1.0)

    def zero(pts):
        return np.zeros(len(np.atleast_2d(pts)))

    def one(pts):
        return np.ones(len(np.atleast_2d(pts)))

    bc = BoundarySpec(dirichlet={1: one, 2: zero}, neumann={3: zero, 4: zero})
    return Problem(
        name="example3",
        coeff=scalar_coefficient(kappa),
        f=zero,
        bc=bc,
        flux_sign=-1,
        table_columns=(),
    )


def patch_linear() -> Problem:
    """u = 1 + 2x - 3y: reproduced exactly by the k = 0 scheme."""
    def u(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return 1.0 + 2.0 * pts[:, 0] - 3.0 * pts[:, 1]

    def grad_u(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.tile([2.0, -3.0], (len(pts), 1))

    def zero(pts):
        return np.zeros(len(np.atleast_2d(pts)))

    return Problem(
        name="patch_linear",
        coeff=identity_coefficient(),
        f=zero,
        bc=BoundarySpec.dirichlet_everywhere(u),
        u=u,
        grad_u=grad_u,
        flux_sign=1,
    )


def patch_quadratic() -> Problem:
    """u = x^2 + xy - y^2 + x: reproduced exactly by the k = 1 scheme."""
    def u(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        return x ** 2 + x * y - y ** 2 + x

    def grad_u(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([2.0 * x + y + 1.0, x - 2.0 * y])

    def f(pts):
        # -laplace u = -(2 - 2) = 0
        return np.zeros(len(np.atleast_2d(pts)))

    return Problem(
        name="patch_quadratic",
        coeff=identity_coefficient(),
        f=f,
        bc=BoundarySpec.dirichlet_everywhere(u),
        u=u,
        grad_u=grad_u,
        flux_sign=1,
    )


_REGISTRY = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "patch_linear": patch_linear,
    "patch_quadratic": patch_quadratic,
}


def get_problem(name: str) -> Problem:
    """Built-in problem by name; "-" and "_" are interchangeable."""
    try:
        return _REGISTRY[name.replace("-", "_")]()
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; "
                       f"choose from {sorted(_REGISTRY)}") from None
