import numpy as np
import pytest

from mmrsafi.core import Rng
from mmrsafi.fbs import (NumericalError, SolverConfig, fbs_solve,
                         momentum_next, tol_fbs, tol_prox)
from mmrsafi.forward import IdentityOp
from mmrsafi.linops import (ConvStage, FilterBank, MatrixOp, dense_matrix_of,
                            difference_bank)
from mmrsafi.oracle import admm_full_oracle
from mmrsafi.prox import ConstraintSet, WeightedAnalysisOperator


def ones_difference(shape):
    return WeightedAnalysisOperator(difference_bank(), np.ones((2,) + shape))


def test_momentum_values():
    assert momentum_next(1) == 2.0
    assert momentum_next(4) == pytest.approx(3.0, abs=1e-15)
    assert momentum_next(25) == pytest.approx(10.0, abs=1e-15)
    with pytest.raises(ValueError):
        momentum_next(0)


def test_tol_fbs_schedule():
    assert tol_fbs(5) == pytest.approx(1e-5, abs=1e-15)
    assert tol_fbs(6) == 1e-5
    assert tol_fbs(1) == pytest.approx(1e-3 * 0.01 ** 0.2, abs=1e-15)
    assert tol_fbs(1) == pytest.approx(3.9810717055349724e-4, abs=1e-15)


def test_tol_prox_schedule():
    eps = 1e-4
    assert tol_prox(1, 50, eps) == pytest.approx(eps / 3.0, abs=1e-15)
    assert tol_prox(1, 51, eps) == pytest.approx(eps / 3.0, abs=1e-15)
    assert tol_prox(1, 1, eps) == pytest.approx(
        3e-4 * (1.0 / 9.0) ** 0.02, abs=1e-15)
    assert tol_prox(1, 1, eps) == pytest.approx(2.8710212339441607e-4,
                                                abs=1e-15)


def test_identity_no_regularization_returns_y():
    y = Rng(0).gaussian_array((6, 6))
    res = fbs_solve(IdentityOp(), y, ones_difference((6, 6)), 0.0,
                    np.zeros((6, 6)), 1, SolverConfig(),
                    ConstraintSet.all_space())
    assert np.array_equal(res.x, y)
    assert res.iterations == 1


def test_identity_soft_threshold_closed_form():
    kern = np.ones((1, 1, 1, 1))
    L = WeightedAnalysisOperator(FilterBank([ConvStage(kern, 1)]),
                                 np.ones((1, 1, 2)))
    y = np.array([[1.0, -0.2]])
    res = fbs_solve(IdentityOp(), y, L, 0.5, np.zeros((1, 2)), 1,
                    SolverConfig(), ConstraintSet.all_space())
    assert np.max(np.abs(res.x - np.array([[0.5, 0.0]]))) < 1e-10


def test_identity_single_step_ignores_init():
    rng = Rng(1)
    y = rng.gaussian_array((6, 6))
    L = ones_difference((6, 6))
    cfg = SolverConfig(eps_prox=1e-11, k_prox=5000)
    a = fbs_solve(IdentityOp(), y, L, 0.3, np.zeros((6, 6)), 1, cfg,
                  ConstraintSet.all_space())
    b = fbs_solve(IdentityOp(), y, L, 0.3, rng.gaussian_array((6, 6)), 1, cfg,
                  ConstraintSet.all_space())
    assert a.iterations == b.iterations == 1
    assert np.max(np.abs(a.x - b.x)) < 1e-9


def test_lambda_zero_least_squares():
    rng = Rng(2)
    A = rng.gaussian_array((20, 16)) + 2.0 * np.eye(20, 16)
    H = MatrixOp(A, (4, 4))
    y = rng.gaussian_array(20)
    cfg = SolverConfig(k_fbs=50000, eps_fbs=1e-11)
    res = fbs_solve(H, y, ones_difference((4, 4)), 0.0, np.zeros((4, 4)), 6,
                    cfg, ConstraintSet.all_space())
    ls = np.linalg.solve(A.T @ A, A.T @ y).reshape(4, 4)
    assert np.max(np.abs(res.x - ls)) < 1e-6


def test_objective_not_worse_than_init():
    rng = Rng(3)
    A = rng.gaussian_array((18, 16))
    H = MatrixOp(A, (4, 4))
    y = rng.gaussian_array(18)
    L = ones_difference((4, 4))
    x0 = rng.gaussian_array((4, 4))

    def objective(x):
        return (0.5 * np.sum((H.forward(x) - y) ** 2)
                + 0.1 * np.sum(np.abs(L.forward(x))))

    res = fbs_solve(H, y, L, 0.1, x0, 8,
                    SolverConfig(k_fbs=5000, eps_fbs=1e-9, eps_prox=1e-10),
                    ConstraintSet.all_space())
    assert objective(res.x) <= objective(x0) + 1e-10


def test_matches_full_admm_oracle():
    rng = Rng(4)
    A = rng.gaussian_array((20, 16)) + 2.0 * np.eye(20, 16)
    H = MatrixOp(A, (4, 4))
    y = rng.gaussian_array(20)
    L = ones_difference((4, 4))

    def objective(x):
        return (0.5 * np.sum((A @ x.ravel() - y) ** 2)
                + 0.1 * np.sum(np.abs(L.forward(x))))

    res = fbs_solve(H, y, L, 0.1, np.zeros((4, 4)), 10,
                    SolverConfig(k_fbs=30000, k_prox=3000,
                                 eps_fbs=1e-11, eps_prox=1e-11),
                    ConstraintSet.all_space())
    ref = admm_full_oracle(A, y, dense_matrix_of(L.forward, (4, 4)), 0.1,
                           ConstraintSet.all_space()).reshape(4, 4)
    assert abs(objective(res.x) - objective(ref)) < 1e-6


def test_prox_grad_fixed_point_residual():
    rng = Rng(5)
    A = rng.gaussian_array((20, 16)) + 2.0 * np.eye(20, 16)
    H = MatrixOp(A, (4, 4))
    y = rng.gaussian_array(20)
    L = ones_difference((4, 4))
    cfg = SolverConfig(k_fbs=30000, k_prox=3000, eps_fbs=1e-11, eps_prox=1e-12)
    res = fbs_solve(H, y, L, 0.1, np.zeros((4, 4)), 10, cfg,
                    ConstraintSet.all_space())
    from mmrsafi.prox import ProxConfig, prox_weighted_l1
    from mmrsafi.fbs import _step_size
    alpha = _step_size(H)
    z = res.x - alpha * H.adjoint(H.forward(res.x) - y)
    again = prox_weighted_l1(z, L, alpha * 0.1, ConstraintSet.all_space(),
                             ProxConfig(max_iters=20000, epsilon=1e-13)).x
    assert (np.linalg.norm(res.x - again)
            <= 1e-5 * (1.0 + np.linalg.norm(res.x)))


def test_box_constraint_respected():
    rng = Rng(6)
    y = rng.gaussian_array((5, 5)) * 2.0
    res = fbs_solve(IdentityOp(), y, ones_difference((5, 5)), 0.05,
                    np.zeros((5, 5)), 1, SolverConfig(),
                    ConstraintSet.box(0.0, 1.0))
    assert res.x.min() >= 0.0 and res.x.max() <= 1.0


def test_nonfinite_init_rejected():
    y = np.zeros((3, 3))
    bad = np.full((3, 3), np.inf)
    with pytest.raises(NumericalError):
        fbs_solve(IdentityOp(), y, ones_difference((3, 3)), 0.1, bad, 1,
                  SolverConfig(), ConstraintSet.all_space())


def test_prox_counts_summed_over_inner_calls():
    rng = Rng(7)
    H = MatrixOp(rng.gaussian_array((20, 16)) + 2.0 * np.eye(20, 16), (4, 4))
    y = rng.gaussian_array(20)
    L = ones_difference((4, 4))
    X = ConstraintSet.all_space()
    capped = fbs_solve(H, y, L, 0.1, np.zeros((4, 4)), 1,
                       SolverConfig(k_fbs=5, k_prox=1, eps_prox=1e-16), X)
    assert capped.iterations == 5
    assert capped.prox_iterations == capped.prox_unconverged == 5
    free = fbs_solve(H, y, L, 0.0, np.zeros((4, 4)), 1,
                     SolverConfig(k_fbs=5), X)
    assert free.prox_iterations == free.prox_unconverged == 0
