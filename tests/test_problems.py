import numpy as np
import pytest

from stagpoly.problems import (
    example1,
    example2,
    example3,
    get_problem,
    patch_linear,
    patch_quadratic,
)

RNG = np.random.default_rng(31)


def fd_gradient(u, pts, eps=1e-6):
    pts = np.asarray(pts, dtype=float)
    out = np.zeros_like(pts)
    for d in range(2):
        dp = np.zeros(2)
        dp[d] = eps
        out[:, d] = (u(pts + dp) - u(pts - dp)) / (2 * eps)
    return out


def test_registry_aliases():
    assert get_problem("patch-linear").name == "patch_linear"
    assert get_problem("patch_linear").name == "patch_linear"
    assert get_problem("example1").name == "example1"


def test_registry_unknown():
    with pytest.raises(KeyError, match="unknown problem") as info:
        get_problem("example99")
    listed = str(info.value).split("choose from ")[1]
    assert listed.count("patch_linear") == 1
    assert "patch-linear" not in listed


@pytest.mark.parametrize("make", [example1, example2, patch_linear,
                                  patch_quadratic])
def test_gradients_consistent(make):
    prob = make()
    pts = RNG.uniform(0.1, 0.9, size=(40, 2))
    assert np.abs(prob.grad_u(pts) - fd_gradient(prob.u, pts)).max() < 1e-8


def test_example1_load_identity():
    # -laplace(cos pi x cos pi y) = 2 pi^2 u
    prob = example1()
    pts = RNG.uniform(0, 1, size=(50, 2))
    assert np.allclose(prob.f(pts), 2 * np.pi ** 2 * prob.u(pts))


def test_example1_table_columns():
    prob = example1()
    assert prob.table_columns == ("e_sigma_L2", "e_L2")
    assert prob.has_exact


def test_example2_shifted_solution():
    prob = example2()
    pts = RNG.uniform(0, 1, size=(20, 2))
    assert np.allclose(prob.u(pts), example1().u(pts) - 1.0)
    assert prob.table_columns == ("e_1h", "e_L2", "e_sigma_0h")


def test_example3_coefficient_block():
    prob = example3()
    inside = np.array([[0.5, 0.5], [0.4, 0.3], [0.6, 0.7]])
    outside = np.array([[0.1, 0.5], [0.5, 0.1], [0.9, 0.9], [0.375, 0.5]])
    ki = prob.coeff.at(inside)
    ko = prob.coeff.at(outside)
    assert np.allclose(ki[:, 0, 0], 1e-3) and np.allclose(ki[:, 1, 1], 1e-3)
    assert np.allclose(ko[:, 0, 0], 1.0)


def test_example3_boundary_layout():
    prob = example3()
    assert prob.flux_sign == -1
    assert not prob.has_exact
    assert prob.table_columns == ()
    pts = np.array([[0.0, 0.5]])
    assert prob.bc.condition_for(1)[0] == "dirichlet"
    assert float(prob.bc.condition_for(1)[1](pts)[0]) == 1.0
    assert float(prob.bc.condition_for(2)[1](pts)[0]) == 0.0
    assert prob.bc.condition_for(3)[0] == "neumann"
    assert prob.bc.condition_for(4)[0] == "neumann"


def test_patch_quadratic_is_harmonic():
    prob = patch_quadratic()
    pts = RNG.uniform(0, 1, size=(10, 2))
    assert np.array_equal(prob.f(pts), np.zeros(10))
