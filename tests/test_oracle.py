import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from mmrsafi import oracle
from mmrsafi.core import Rng
from mmrsafi.oracle import (AdmmConfig, OracleError, admm_full_oracle,
                            admm_prox_oracle, finite_diff_gradient,
                            jacobi_svd_norm)
from mmrsafi.prox import ConstraintSet


def test_prox_oracle_identity_soft_threshold():
    rng = Rng(0)
    z = rng.gaussian_array(16)
    out = admm_prox_oracle(z, np.eye(16), 0.4, ConstraintSet.all_space())
    expect = np.sign(z) * np.maximum(np.abs(z) - 0.4, 0.0)
    assert np.max(np.abs(out - expect)) < 1e-9


def test_prox_oracle_tiny_gamma_is_projection():
    rng = Rng(1)
    z = rng.gaussian_array(12)
    L = rng.gaussian_array((20, 12))
    X = ConstraintSet.box(0.0, 1.0)
    out = admm_prox_oracle(z, L, 1e-13, X)
    assert np.max(np.abs(out - np.clip(z, 0, 1))) < 1e-8


def test_prox_oracle_optimality_vs_perturbation():
    rng = Rng(2)
    z = rng.gaussian_array(10)
    L = rng.gaussian_array((14, 10))
    out = admm_prox_oracle(z, L, 0.3, ConstraintSet.all_space())

    def obj(w):
        return 0.5 * np.sum((w - z) ** 2) + 0.3 * np.sum(np.abs(L @ w))

    base = obj(out)
    for _ in range(20):
        assert base <= obj(out + 1e-4 * rng.gaussian_array(10)) + 1e-12


def test_full_oracle_least_squares():
    rng = Rng(3)
    H = rng.gaussian_array((12, 8)) + 2.0 * np.eye(12, 8)
    y = rng.gaussian_array(12)
    L = rng.gaussian_array((10, 8))
    out = admm_full_oracle(H, y, L, 1e-14, ConstraintSet.all_space())
    ls = np.linalg.solve(H.T @ H, H.T @ y)
    assert np.max(np.abs(out - ls)) < 1e-7


def test_full_oracle_reduces_to_prox_oracle_for_identity():
    rng = Rng(4)
    z = rng.gaussian_array(9)
    L = rng.gaussian_array((12, 9))
    a = admm_full_oracle(np.eye(9), z, L, 0.2, ConstraintSet.all_space())
    b = admm_prox_oracle(z, L, 0.2, ConstraintSet.all_space())
    assert np.max(np.abs(a - b)) < 1e-8


def test_full_oracle_flags_shared_kernel():
    # H and L both annihilate the constant vector
    ones = np.ones((1, 4))
    H = np.eye(4) - ones.T @ ones / 4
    L = H.copy()
    with pytest.raises(OracleError):
        admm_full_oracle(H, np.zeros(4), L, 0.1, ConstraintSet.all_space())


def test_oracle_scale_cap():
    with pytest.raises(ValueError):
        admm_prox_oracle(np.zeros(65), np.eye(65), 0.1,
                         ConstraintSet.all_space())


def test_finite_diff_quadratic_and_linear():
    rng = Rng(5)
    x = rng.gaussian_array(10)
    fd = finite_diff_gradient(lambda v: 0.5 * np.sum(v ** 2), x)
    assert np.max(np.abs(fd - x)) < 1e-8
    a = rng.gaussian_array(10)
    fd = finite_diff_gradient(lambda v: float(a @ v), x)
    assert np.max(np.abs(fd - a)) < 1e-9


def test_jacobi_svd_known_values():
    assert jacobi_svd_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)
    assert jacobi_svd_norm(np.diag([1.0, 3.0, 2.0])) == pytest.approx(
        3.0, abs=1e-12)


def test_jacobi_svd_matches_gram_eigenvalue():
    rng = Rng(6)
    A = rng.gaussian_array((12, 12))
    top = jacobi_svd_norm(A)
    gram_top = jacobi_svd_norm(A.T @ A)
    assert abs(top ** 2 - gram_top) < 1e-9 * max(1.0, gram_top)


def test_jacobi_svd_rectangular():
    rng = Rng(7)
    A = rng.gaussian_array((6, 15))
    ref = np.linalg.svd(A, compute_uv=False)[0]
    assert jacobi_svd_norm(A) == pytest.approx(ref, rel=1e-10)


def test_admm_config_validation():
    with pytest.raises(ValueError):
        AdmmConfig(rho=0.0)


def test_oracle_imports_no_solver_code():
    # The oracles are references for the solvers only while they share no
    # code with them: oracle.py may import numpy, scipy and the standard
    # library, and nothing relative or from this package.
    tree = ast.parse(Path(oracle.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
    assert roots <= {"numpy", "scipy"} | set(sys.stdlib_module_names), roots
