import tracemalloc

import numpy as np
import pytest

from mmrsafi import fbs
from mmrsafi.core import Rng
from mmrsafi.fbs import (NumericalError, SolverConfig, fbs_solve,
                         momentum_next, tol_fbs, tol_prox)
from mmrsafi.forward import (IdentityOp, MaskedDftOp, add_noise,
                             make_cartesian_mask)
from mmrsafi.phantom import make_phantom
from mmrsafi.linops import ConvStage, FilterBank, difference_bank
from mmrsafi.oracle import MatrixOp, admm_full_oracle, dense_matrix_of
from mmrsafi.prox import (ConstraintSet, ProxConfig, WeightedAnalysisOperator,
                          prox_weighted_l1)
from mmrsafi.schemes import (default_safi_model, default_tv_model, mask_mmr,
                             mask_safi)


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
    assert tol_prox(50, eps) == pytest.approx(eps / 3.0, abs=1e-15)
    assert tol_prox(51, eps) == pytest.approx(eps / 3.0, abs=1e-15)
    assert tol_prox(1, eps) == pytest.approx(
        3e-4 * (1.0 / 9.0) ** 0.02, abs=1e-15)
    assert tol_prox(1, eps) == pytest.approx(2.8710212339441607e-4,
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


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_bad_lambda_rejected(lam):
    y = np.zeros((3, 3))
    with pytest.raises(ValueError, match="lambda"):
        fbs_solve(IdentityOp(), y, ones_difference((3, 3)), lam, y, 1,
                  SolverConfig(), ConstraintSet.all_space())


@pytest.mark.parametrize("name", ["eps_out", "eps_fbs", "eps_prox"])
@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1e-6])
def test_bad_tolerance_rejected(name, eps):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: eps})


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
    assert free.prox_restarts == 0


def test_prox_restarts_summed_over_inner_calls(monkeypatch):
    rng = Rng(8)
    H = MatrixOp(rng.gaussian_array((80, 64)) + 2.0 * np.eye(80, 64), (8, 8))
    y = rng.gaussian_array(80)
    L = WeightedAnalysisOperator(difference_bank(),
                                 rng.uniform_array((2, 8, 8)))
    restarts = []

    def recording_prox(*args, **kwargs):
        res = prox_weighted_l1(*args, **kwargs)
        restarts.append(res.restarts)
        return res

    monkeypatch.setattr(fbs, "prox_weighted_l1", recording_prox)
    res = fbs_solve(H, y, L, 0.1, np.zeros((8, 8)), 1,
                    SolverConfig(k_fbs=5, k_prox=20000, eps_prox=1e-13),
                    ConstraintSet.all_space())
    assert len(restarts) == res.iterations
    assert res.prox_restarts == sum(restarts) > 0


def test_loose_warm_started_mri_solve_makes_no_restart():
    # The MRI path's prox solves are warm-started and loose (tol_prox), so
    # their momentum has no time to overshoot: no restart fires, and the
    # iterates are those of plain accelerated ascent.
    n = 64
    H = MaskedDftOp(make_cartesian_mask(n, 4, 0.08, Rng(1)), n, n)
    y = add_noise(H.forward(make_phantom(n)), 2e-3, Rng(2))
    X = ConstraintSet.box(0.0, 1.0)
    cold = fbs_solve(H, y, ones_difference((n, n)), 1e-3, np.zeros((n, n)),
                     1, SolverConfig(), X)
    L = WeightedAnalysisOperator(difference_bank(),
                                 mask_mmr(default_tv_model(), cold.x))
    warm = fbs_solve(H, y, L, 1e-3, cold.x, 2, SolverConfig(), X,
                     warm_u=cold.dual)
    for res in (cold, warm):
        assert res.converged and res.prox_unconverged == 0
        assert res.prox_iterations > res.iterations
        assert res.prox_restarts == 0


class Counting:
    """Delegates to an operator and counts calls by method name."""

    def __init__(self, op):
        self.op = op
        self.calls = {}

    def __getattr__(self, name):
        attr = getattr(self.op, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attr(*args, **kwargs)
        return counted


def masked_dft_problem():
    phantom = make_phantom(16, seed=4)
    H = MaskedDftOp(make_cartesian_mask(16, 4, 0.1, Rng(9)), 16, 16)
    y = H.forward(phantom) + 1e-3 * Rng(10).gaussian_array((16, 4, 2))
    L = WeightedAnalysisOperator(difference_bank(),
                                 0.5 + Rng(11).uniform_array((2, 16, 16)))
    return H, y, L


def test_one_adjoint_per_prox_iteration_plus_one_per_solve(monkeypatch):
    H, y, L = masked_dft_problem()
    cfg = SolverConfig(k_fbs=40, k_prox=50, lam=1e-2)
    X = ConstraintSet.box(0.0, 1.0)
    warm_u = fbs_solve(H, y, L, 1e-2, np.zeros((16, 16)), 1, cfg, X).dual
    results = []

    def recording_prox(*args, **kwargs):
        results.append(prox_weighted_l1(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(fbs, "prox_weighted_l1", recording_prox)
    # L = diag(weights) W: each application of L or L^T is one of W or W^T,
    # counted at the bank.
    counted_H, counted_W = Counting(H), Counting(L.bank)
    counted_L = WeightedAnalysisOperator(counted_W, L.weights)
    res = fbs_solve(counted_H, y, counted_L, 1e-2, np.zeros((16, 16)), 2,
                    cfg, X, warm_u=warm_u)
    # One prox call per FBS step, each opening with one L^T of its warm dual.
    assert len(results) == res.iterations
    assert counted_W.calls["adjoint"] == res.prox_iterations + res.iterations
    # The gap checks call no bank.  Every solve ends at a check (k_prox is a
    # multiple of 5), whose ascent step adds the solve's one more L.
    assert any(r.converged for r in results)
    assert all(r.iterations % 5 == 0 for r in results)
    assert counted_W.calls["forward"] == res.prox_iterations + res.iterations
    assert counted_H.calls == {"adjoint": 1, "normal": res.iterations}


def test_certified_prox_converges_near_a_tight_solve():
    n = 32
    H = MaskedDftOp(make_cartesian_mask(n, 4, 0.08, Rng(1)), n, n)
    y = add_noise(H.forward(make_phantom(n)), 2e-3, Rng(2))
    L = WeightedAnalysisOperator(difference_bank(), np.ones((2, n, n)))
    X = ConstraintSet.box(0.0, 1.0)
    cfg = SolverConfig()
    res = fbs_solve(H, y, L, 1e-2, np.zeros((n, n)), 2, cfg, X)
    assert res.converged and res.iterations < cfg.k_fbs
    assert res.prox_unconverged == 0 and res.prox_gap >= 0.0
    # The tight solve starts at res.x to stay cheap (about 1.5 s instead of
    # 9 s); started from zero with eps_fbs=1e-7 it lands 3e-6 away.
    tight = SolverConfig(k_fbs=20000, k_prox=5000, eps_fbs=1e-6,
                         eps_prox=1e-10)
    ref = fbs_solve(H, y, L, 1e-2, res.x, 2, tight, X, warm_u=res.dual)
    assert ref.converged
    assert np.linalg.norm(res.x - ref.x) <= 1e-3 * np.linalg.norm(ref.x)


def test_identity_path_certifies_its_prox():
    y = Rng(12).gaussian_array((8, 8))
    L = ones_difference((8, 8))
    X = ConstraintSet.box(0.0, 1.0)
    cfg = SolverConfig()
    res = fbs_solve(IdentityOp(), y, L, 0.3, np.zeros((8, 8)), 2, cfg, X)
    assert res.iterations == 1
    assert 0.0 <= res.prox_gap <= 25 * tol_fbs(2)
    # From x = 0 the single step is one direct prox call on y.
    direct = prox_weighted_l1(y, L, 0.3, X,
                              ProxConfig(max_iters=cfg.k_prox,
                                         epsilon=25 * tol_fbs(2)))
    assert np.array_equal(res.x, direct.x)
    assert res.prox_iterations == direct.iterations


def test_identity_path_takes_a_fixed_eps_fbs():
    y = Rng(13).gaussian_array((16, 16))
    L = ones_difference((16, 16))
    X = ConstraintSet.box(0.0, 1.0)
    x0 = np.zeros((16, 16))
    loose = fbs_solve(IdentityOp(), y, L, 0.3, x0, 2, SolverConfig(), X)
    tight = fbs_solve(IdentityOp(), y, L, 0.3, x0, 2,
                      SolverConfig(eps_fbs=1e-12), X)
    ref = fbs_solve(IdentityOp(), y, L, 0.3, x0, 2,
                    SolverConfig(eps_prox=25e-12), X)
    # The one-step prox is certified at 25 * eps_fbs when eps_fbs is fixed,
    # not at 25 * tol_fbs.
    assert tight.prox_iterations > loose.prox_iterations
    assert np.array_equal(tight.x, ref.x)
    assert tight.prox_iterations == ref.prox_iterations


@pytest.mark.parametrize("unit", [False, True], ids=["weighted", "ones"])
def test_identity_path_drops_its_copy_of_the_data_before_the_prox(unit):
    # The identity path's prox takes z = H^T y itself, so its peak is the
    # prox's seven image-sized arrays and z; with H^T y kept next to a
    # gradient step's z through the prox it was nine images.
    shape = (256, 256)
    rng = Rng(14)
    y = rng.uniform_array(shape) + 0.1 * rng.gaussian_array(shape)
    weights = (np.ones((2,) + shape) if unit
               else rng.uniform_array((2,) + shape))
    L = WeightedAnalysisOperator(difference_bank(), weights)
    X = ConstraintSet.all_space()
    cfg = SolverConfig(k_prox=20)
    fbs_solve(IdentityOp(), y, L, 0.05, y, 1, cfg, X)     # norm, cached
    tracemalloc.start()
    try:
        res = fbs_solve(IdentityOp(), y, L, 0.05, y, 1, cfg, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.prox_iterations >= 5
    assert peak <= 8 * y.nbytes + y.nbytes // 4


class BoundedIdentity(IdentityOp):
    """The identity with norm 2, an upper bound on ||H|| = 1."""

    norm = 2.0


def test_identity_path_is_one_prox_of_the_data():
    # H^T H = I: the solve is one prox of H^T y, whatever norm H reports
    # and from whatever x_init, with the prox objective at x_init as its
    # ceiling.
    rng = Rng(15)
    y = rng.gaussian_array((8, 8))
    x0 = rng.uniform_array((8, 8))
    L = WeightedAnalysisOperator(difference_bank(),
                                 rng.uniform_array((2, 8, 8)))
    X = ConstraintSet.box(0.0, 1.0)
    cfg = SolverConfig(eps_prox=1e-10)
    res = fbs_solve(IdentityOp(), y, L, 0.3, x0, 2, cfg, X)
    bounded = fbs_solve(BoundedIdentity(), y, L, 0.3, x0, 2, cfg, X)
    direct = prox_weighted_l1(y, L, 0.3, X,
                              ProxConfig(max_iters=cfg.k_prox, epsilon=1e-10),
                              ceiling=fbs._prox_objective(L, 0.3, y, x0))
    for got in (res, bounded):
        assert got.iterations == 1 and got.converged
        assert np.array_equal(got.x, direct.x)
        assert np.array_equal(got.dual, direct.dual)
        assert got.prox_iterations == direct.iterations


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_identity_path_reads_only_the_adjoint(lam):
    y = Rng(16).gaussian_array((8, 8))
    H = Counting(IdentityOp())
    res = fbs_solve(H, y, ones_difference((8, 8)), lam, np.ones((8, 8)), 2,
                    SolverConfig(), ConstraintSet.all_space())
    assert res.iterations == 1 and res.converged
    assert H.calls == {"adjoint": 1}


@pytest.mark.parametrize("scheme", ["mmr", "safi"])
def test_full_column_mask_takes_one_exact_step(scheme):
    assert IdentityOp.normal_is_identity
    assert not MatrixOp(np.eye(4), (2, 2)).normal_is_identity
    dropped = np.ones(64, dtype=bool)
    dropped[5] = False
    assert not MaskedDftOp(dropped, 64, 64).normal_is_identity

    H = MaskedDftOp(np.ones(64, dtype=bool), 64, 64)
    assert H.normal_is_identity
    y = add_noise(H.forward(make_phantom()), 0.05, Rng(21))
    if scheme == "mmr":
        model = default_tv_model()
        mask = mask_mmr(model, H.adjoint(y))
    else:
        model = default_safi_model()
        mask = mask_safi(model, H.adjoint(y))
    L = WeightedAnalysisOperator(model.W, mask)
    X = ConstraintSet.box(0.0, 1.0)
    res = fbs_solve(H, y, L, model.lam, np.zeros((64, 64)), 2,
                    SolverConfig(), X)
    assert res.iterations == 1 and res.converged
    ref = fbs_solve(IdentityOp(), H.adjoint(y), L, model.lam,
                    np.zeros((64, 64)), 2, SolverConfig(), X)
    assert np.max(np.abs(res.x - ref.x)) <= 1e-12
