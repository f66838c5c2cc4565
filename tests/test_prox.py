import tracemalloc

import numpy as np
import pytest

from mmrsafi.core import Rng
from mmrsafi.linops import (ConvStage, FilterBank, dense_matrix_of,
                            difference_bank)
from mmrsafi.oracle import AdmmConfig, admm_prox_oracle, finite_diff_gradient
from mmrsafi.phantom import make_phantom
from mmrsafi.prox import (ConstraintSet, ProxConfig, WeightedAnalysisOperator,
                          dual_gradient, duality_gap, prox_weighted_l1)
from mmrsafi.schemes import (default_safi_model, default_tv_model, mask_mmr,
                             mask_safi)

TIGHT = ProxConfig(max_iters=20000, epsilon=1e-13)


def identity_operator(shape):
    kern = np.ones((1, 1, 1, 1))
    bank = FilterBank([ConvStage(kern, 1)])
    return WeightedAnalysisOperator(bank, np.ones((1,) + shape))


def weighted_difference(rng, shape):
    return WeightedAnalysisOperator(difference_bank(),
                                    rng.uniform_array((2,) + shape))


def dual_function(L, X, z):
    """min_w-in-X 0.5*||w - z||^2 + <u, L w>; gradient is L Proj_X(z - L^T u)."""
    def fun(u):
        w = X.project(z - L.adjoint(u))
        return 0.5 * np.sum((w - z) ** 2) + np.sum(u * L.forward(w))
    return fun


def test_projection_cases():
    z = Rng(0).gaussian_array((3, 3))
    assert np.array_equal(ConstraintSet.all_space().project(z), z)
    boxed = ConstraintSet.box(0.0, 1.0).project(z + 1.7)
    assert np.max(boxed) <= 1.0 and np.min(boxed) >= 0.0
    with pytest.raises(ValueError):
        ConstraintSet.box(1.0, -1.0)


@pytest.mark.parametrize("lower, upper", [
    (np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
def test_nan_box_bounds_rejected(lower, upper):
    with pytest.raises(ValueError, match="box bounds"):
        ConstraintSet.box(lower, upper)


def test_projection_is_cw_minimizer():
    rng = Rng(1)
    X = ConstraintSet.box(0.0, 1.0)
    z = 3.0 * rng.gaussian_array((4, 4))
    proj = X.project(z)
    ref = np.minimum(np.maximum(z, 0.0), 1.0)
    assert np.array_equal(proj, ref)


def test_dual_gradient_closed_forms():
    rng = Rng(2)
    L = weighted_difference(rng, (5, 5))
    z = rng.gaussian_array((5, 5))
    g = dual_gradient(L, ConstraintSet.all_space(), z,
                      np.zeros((2, 5, 5)))
    assert np.allclose(g, L.forward(z))
    g0 = dual_gradient(L, ConstraintSet.box(0.0, 0.0), np.zeros((5, 5)),
                       rng.gaussian_array((2, 5, 5)))
    assert np.max(np.abs(g0)) < 1e-14


@pytest.mark.parametrize("box", [False, True])
def test_dual_gradient_matches_finite_differences(box):
    rng = Rng(3)
    X = ConstraintSet.box(0.0, 1.0) if box else ConstraintSet.all_space()
    for _ in range(10):
        L = weighted_difference(rng, (4, 4))
        z = rng.gaussian_array((4, 4))
        u = 0.5 * rng.gaussian_array((2, 4, 4))
        grad = dual_gradient(L, X, z, u)
        fd = finite_diff_gradient(dual_function(L, X, z), u)
        assert np.linalg.norm(grad - fd) <= 1e-6 * (1 + np.linalg.norm(grad))


def test_soft_threshold_closed_form():
    L = identity_operator((1, 3))
    z = np.array([[2.0, -0.5, 0.3]])
    res = prox_weighted_l1(z, L, 1.0, ConstraintSet.all_space(), TIGHT)
    assert np.max(np.abs(res.x - np.array([[1.0, 0.0, 0.0]]))) < 1e-10
    assert res.converged


def test_soft_threshold_sweep():
    rng = Rng(5)
    L = identity_operator((1, 40))
    for _ in range(25):
        z = rng.gaussian_array((1, 40))
        gamma = 0.05 + rng.uniform()
        res = prox_weighted_l1(z, L, gamma, ConstraintSet.all_space(), TIGHT)
        expect = np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)
        assert np.max(np.abs(res.x - expect)) < 1e-10


def test_vanishing_gamma_returns_projection():
    rng = Rng(6)
    L = weighted_difference(rng, (6, 6))
    z = rng.gaussian_array((6, 6))
    res = prox_weighted_l1(z, L, 1e-12, ConstraintSet.box(0.0, 1.0), TIGHT)
    assert np.max(np.abs(res.x - np.clip(z, 0, 1))) < 1e-8


def test_dual_feasible_and_in_constraint():
    rng = Rng(7)
    L = weighted_difference(rng, (6, 6))
    z = rng.gaussian_array((6, 6))
    X = ConstraintSet.box(0.0, 1.0)
    res = prox_weighted_l1(z, L, 0.3, X, TIGHT)
    assert np.max(np.abs(res.dual)) <= 0.3
    assert np.min(res.x) >= 0.0 and np.max(res.x) <= 1.0


def test_firm_nonexpansiveness_consequence():
    rng = Rng(8)
    L = weighted_difference(rng, (6, 6))
    X = ConstraintSet.all_space()
    for _ in range(10):
        z1 = rng.gaussian_array((6, 6))
        z2 = rng.gaussian_array((6, 6))
        p1 = prox_weighted_l1(z1, L, 0.3, X, TIGHT).x
        p2 = prox_weighted_l1(z2, L, 0.3, X, TIGHT).x
        assert (np.linalg.norm(p1 - p2)
                <= np.linalg.norm(z1 - z2) + 1e-8)


def test_matches_admm_oracle():
    rng = Rng(9)
    bank = difference_bank()
    for trial in range(10):
        z = rng.gaussian_array((6, 6))
        L = WeightedAnalysisOperator(bank, rng.uniform_array((2, 6, 6)))
        gamma = (0.05, 0.3, 1.0)[trial % 3]
        X = (ConstraintSet.all_space(),
             ConstraintSet.box(0.0, 1.0))[trial % 2]
        res = prox_weighted_l1(z, L, gamma, X, TIGHT)
        ref = admm_prox_oracle(z, dense_matrix_of(L.forward, (6, 6)), gamma, X)
        assert np.max(np.abs(res.x.ravel() - ref)) < 1e-6


def test_objective_close_to_oracle_optimum():
    rng = Rng(10)
    L = weighted_difference(rng, (6, 6))
    z = rng.gaussian_array((6, 6))
    X = ConstraintSet.all_space()

    def objective(x):
        return 0.5 * np.sum((x - z) ** 2) + 0.3 * np.sum(np.abs(L.forward(x)))

    res = prox_weighted_l1(z, L, 0.3, X, TIGHT)
    ref = admm_prox_oracle(z, dense_matrix_of(L.forward, (6, 6)), 0.3, X)
    assert objective(res.x) <= objective(ref.reshape(6, 6)) + 1e-6


def test_warm_start_converges_faster():
    rng = Rng(11)
    L = weighted_difference(rng, (6, 6))
    z = rng.gaussian_array((6, 6))
    X = ConstraintSet.all_space()
    cold = prox_weighted_l1(z, L, 0.3, X, TIGHT)
    warm = prox_weighted_l1(z, L, 0.3, X, TIGHT, warm_u=cold.dual)
    assert warm.iterations <= cold.iterations
    assert np.max(np.abs(warm.x - cold.x)) < 1e-8


def test_zero_mask_returns_projection():
    bank = difference_bank()
    L = WeightedAnalysisOperator(bank, np.zeros((2, 4, 4)))
    z = Rng(12).gaussian_array((4, 4))
    res = prox_weighted_l1(z, L, 0.5, ConstraintSet.box(0.0, 1.0), TIGHT)
    assert np.array_equal(res.x, np.clip(z, 0, 1))


def test_budget_exhaustion_flagged():
    rng = Rng(13)
    L = weighted_difference(rng, (6, 6))
    z = rng.gaussian_array((6, 6))
    res = prox_weighted_l1(z, L, 0.3, ConstraintSet.all_space(),
                           ProxConfig(max_iters=2, epsilon=1e-16))
    assert not res.converged and res.iterations == 2


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, 0.0, -1.0])
def test_bad_epsilon_rejected(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        ProxConfig(epsilon=epsilon)


def test_nonfinite_input_rejected():
    L = identity_operator((1, 3))
    with pytest.raises(ValueError):
        prox_weighted_l1(np.array([[np.nan, 0.0, 0.0]]), L, 1.0,
                         ConstraintSet.all_space(), TIGHT)
    with pytest.raises(ValueError):
        prox_weighted_l1(np.zeros((1, 3)), L, 0.0,
                         ConstraintSet.all_space(), TIGHT)
    # The gap check squares ||x - z||: ||z||^2 = 3e320 overflows, 3e300
    # does not.
    with pytest.raises(ValueError, match="squared norm overflows"):
        prox_weighted_l1(np.full((1, 3), 1e160), L, 1.0,
                         ConstraintSet.all_space(), TIGHT)
    assert prox_weighted_l1(np.full((1, 3), 1e150), L, 1.0,
                            ConstraintSet.all_space(), TIGHT).converged


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_weights_rejected(bad):
    weights = np.ones((2, 4, 4))
    weights[1, 2, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        WeightedAnalysisOperator(difference_bank(), weights)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
def test_bad_gamma_rejected(gamma):
    L = weighted_difference(Rng(20), (4, 4))
    with pytest.raises(ValueError, match="gamma must be finite"):
        prox_weighted_l1(np.zeros((4, 4)), L, gamma,
                         ConstraintSet.all_space(), TIGHT)


def test_weighted_operator_out():
    rng = Rng(21)
    L = weighted_difference(rng, (8, 8))
    x = rng.gaussian_array((8, 8))
    u = rng.gaussian_array((2, 8, 8))
    out = np.full((2, 8, 8), np.nan)
    assert L.forward(x, out=out) is out
    assert np.array_equal(out, L.forward(x))
    assert np.array_equal(out, L.weights * L.bank.forward(x))
    out = np.full((8, 8), np.nan)
    assert L.adjoint(u, out=out) is out
    assert np.array_equal(out, L.adjoint(u))
    assert np.array_equal(out, L.bank.adjoint(L.weights * u))
    # The adjoint may be applied to its own workspace.
    np.copyto(L.workspace, u)
    assert np.array_equal(L.adjoint(L.workspace), out)
    with pytest.raises(ValueError, match="out must be"):
        L.forward(x, out=np.empty((8, 8)))


def prox_arrays(res):
    return [res.x, res.dual]


@pytest.mark.parametrize("box", [False, True])
def test_warm_started_solve_reads_its_inputs_only(box):
    rng = Rng(22)
    L = weighted_difference(rng, (8, 8))
    X = ConstraintSet.box(0.0, 1.0) if box else ConstraintSet.all_space()
    cfg = ProxConfig(max_iters=40, epsilon=1e-12)
    cold = prox_weighted_l1(rng.gaussian_array((8, 8)), L, 0.3, X, cfg)
    z = rng.gaussian_array((8, 8))
    inputs = [z, cold.dual]
    copies = [a.copy() for a in inputs]
    warm = prox_weighted_l1(z, L, 0.3, X, cfg, warm_u=cold.dual)
    assert warm.iterations == 40 or warm.converged
    for a, kept in zip(inputs, copies):
        assert np.array_equal(a, kept)


def test_results_share_no_memory():
    # Each solve's arrays are its own: no result aliases another result,
    # an input, or the operator's workspace.
    rng = Rng(23)
    L = weighted_difference(rng, (8, 8))
    X = ConstraintSet.all_space()
    cfg = ProxConfig(max_iters=30, epsilon=1e-12)
    z = rng.gaussian_array((8, 8))
    results = [prox_weighted_l1(z, L, 0.3, X, cfg)]
    for max_iters in (1, 2, 7, 8):
        last = results[-1]
        results.append(prox_weighted_l1(
            z, L, 0.3, X, ProxConfig(max_iters=max_iters), warm_u=last.dual))
    zero = WeightedAnalysisOperator(difference_bank(), np.zeros((2, 8, 8)))
    results.append(prox_weighted_l1(z, zero, 0.3, X, cfg))
    arrays = [a for res in results for a in prox_arrays(res)]
    others = [z, L.workspace, L.weights, zero.workspace]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:] + others:
            assert not np.shares_memory(a, b)


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("box", [False, True])
def test_dual_iteration_live_set_is_fixed(box):
    # A solve makes its buffers once: u and v (two channels each) and four
    # images, eight image-sized arrays in all.  On top of them, each bank
    # call makes and frees its own transients (numpy's iteration buffers
    # for the stencil's strided block reads).  The peak is the same for 10
    # and for 200 dual iterations: an array kept per iteration would add at
    # least one 32 KB image, while Python's own small objects move the peak
    # by about a kilobyte.
    rng = Rng(24)
    shape = (64, 64)
    L = weighted_difference(rng, shape)
    X = ConstraintSet.box(0.0, 1.0) if box else ConstraintSet.all_space()
    z = rng.gaussian_array(shape)
    # Fill the bank's per-shape caches (norm) first.
    prox_weighted_l1(z, L, 0.3, X, ProxConfig(max_iters=5))
    s, image_out = L.forward(z), np.empty(shape)
    bank_call = traced_peak(lambda: L.bank.adjoint(s, out=image_out))
    peaks = []
    for max_iters in (10, 200):
        cfg = ProxConfig(max_iters=max_iters, epsilon=1e-16)
        res = []
        peaks.append(traced_peak(lambda: res.append(prox_weighted_l1(
            z, L, 0.3, X, cfg))))
        assert res[0].iterations == max_iters
    image = z.nbytes
    assert abs(peaks[1] - peaks[0]) < image // 4
    assert peaks[1] <= 8 * image + bank_call + image // 4


class CountingOperator:
    """Delegates to a weighted operator and counts forward/adjoint calls."""

    def __init__(self, L):
        self.L = L
        self.weights = L.weights
        self.workspace = L.workspace
        self.forward_calls = 0
        self.adjoint_calls = 0

    def forward(self, x, out=None):
        self.forward_calls += 1
        return self.L.forward(x, out=out)

    def adjoint(self, u, out=None):
        self.adjoint_calls += 1
        return self.L.adjoint(u, out=out)

    def norm_bound(self):
        return self.L.norm_bound()


def two_adjoint_prox(z, L, gamma, X, cfg):
    """The dual iteration with L^T applied to v and to u_{k+1} separately,
    restarting its momentum whenever <s, u_{k+1} - u_k> < 0 for the step s;
    every fifth iteration it stops on the duality gap written out here;
    returns (x, iterations)."""
    alpha = 1.0 / L.norm_bound() ** 2
    u = v = L.forward(z)
    a = L.adjoint(u)
    t, j = 1.0, 1
    for k in range(1, cfg.max_iters + 1):
        s = alpha * dual_gradient(L, X, z, v)
        u_next = np.clip(v + s, -gamma, gamma)
        if np.sum(s * (u_next - u)) < 0.0:
            v, t, j = u_next, 1.0, 1
        else:
            t_next = (j + 5.0) / 3.0
            v = u_next + ((t - 1.0) / t_next) * (u_next - u)
            t, j = t_next, j + 1
        a_next = L.adjoint(u_next)
        if k % 5 == 0:
            x = X.project(z - a_next)
            lx = L.forward(x)
            penalty = gamma * np.sum(np.abs(lx))
            primal = 0.5 * np.sum((x - z) ** 2) + penalty
            if penalty - np.sum(u_next * lx) <= cfg.epsilon * primal:
                return x, k
        u, a = u_next, a_next
    return X.project(z - a), cfg.max_iters


def test_one_forward_and_one_adjoint_per_iteration():
    rng = Rng(14)
    L = CountingOperator(weighted_difference(rng, (8, 8)))
    z = rng.gaussian_array((8, 8))
    X = ConstraintSet.box(0.0, 1.0)
    cold = prox_weighted_l1(z, L, 0.3, X, TIGHT)
    assert cold.converged
    # Each gap check, every fifth iteration, adds one L.forward.
    assert L.forward_calls == cold.iterations + 1 + cold.iterations // 5
    assert L.adjoint_calls == cold.iterations + 1
    L.forward_calls = L.adjoint_calls = 0
    warm = prox_weighted_l1(z + 1e-3, L, 0.3, X, TIGHT, warm_u=cold.dual)
    assert warm.converged
    assert L.forward_calls == warm.iterations + warm.iterations // 5
    assert L.adjoint_calls == warm.iterations + 1


def test_matches_two_adjoint_iteration():
    rng = Rng(15)
    bank = difference_bank()
    cfg = ProxConfig(max_iters=20000, epsilon=1e-11)
    restarted = 0
    for trial in range(20):
        z = rng.gaussian_array((8, 8))
        L = WeightedAnalysisOperator(bank, rng.uniform_array((2, 8, 8)))
        gamma = (0.05, 0.3, 1.0)[trial % 3]
        X = (ConstraintSet.all_space(),
             ConstraintSet.box(0.0, 1.0))[trial % 2]
        res = prox_weighted_l1(z, L, gamma, X, cfg)
        x_ref, iters_ref = two_adjoint_prox(z, L, gamma, X, cfg)
        assert res.iterations == iters_ref
        assert np.max(np.abs(res.x - x_ref)) < 1e-12
        restarted += res.restarts > 0
    # The comparison covers the restart rule, not only plain momentum.
    assert restarted >= 10


@pytest.mark.parametrize("box", [False, True])
@pytest.mark.parametrize("max_iters", [1, 2, 3, 20000])
def test_inputs_and_earlier_results_left_unchanged(box, max_iters):
    rng = Rng(18)
    L = weighted_difference(rng, (8, 8))
    X = ConstraintSet.box(0.0, 1.0) if box else ConstraintSet.all_space()
    cfg = ProxConfig(max_iters=max_iters, epsilon=1e-11)
    z = rng.gaussian_array((8, 8))
    z_copy = z.copy()
    results, copies = [], []
    warm = {}
    for step in range(4):
        res = prox_weighted_l1(z, L, 0.3, X, cfg, **warm)
        assert np.array_equal(z, z_copy)
        for old, kept in zip(results, copies):
            for name, value in kept.items():
                assert np.array_equal(getattr(old, name), value), (step, name)
        results.append(res)
        copies.append({name: getattr(res, name).copy()
                       for name in ("x", "dual")})
        warm = {"warm_u": res.dual}


@pytest.mark.parametrize("mean", [1e-3, 1e-5, 0.0])
def test_flat_solution_near_zero_converges(mean):
    # gamma = 1 flattens z to its mean.  With the mean near 0, ||x|| is near
    # 0 too, but the gap is measured against P >= 0.5*||x - z||^2, which is
    # not: the solve still stops on G <= eps * P.
    bank = difference_bank()
    L = WeightedAnalysisOperator(bank, np.ones((2, 8, 8)))
    L_dense = dense_matrix_of(L.forward, (8, 8))
    X = ConstraintSet.all_space()
    for seed in (14, 16, 17):
        z = Rng(seed).gaussian_array((8, 8))
        z = z - z.mean() + mean
        res = prox_weighted_l1(z, L, 1.0, X, TIGHT)
        assert res.converged and res.iterations < 1000
        assert res.gap <= TIGHT.epsilon
        ref = admm_prox_oracle(z, L_dense, 1.0, X,
                               AdmmConfig(rho=3.0, iters=60000))
        assert np.max(np.abs(res.x.ravel() - ref)) < 1e-10


def test_restarts_shorten_a_flat_solve():
    # The benchmark's fixed prox input: seed 14 shifted to mean 1e-3, gamma
    # 1, on all of R^N.  Its momentum overshoots; without restarts the solve
    # took 485 dual iterations to certify, with them about 110.
    L = WeightedAnalysisOperator(difference_bank(), np.ones((2, 8, 8)))
    z = Rng(14).gaussian_array((8, 8))
    res = prox_weighted_l1(z - z.mean() + 1e-3, L, 1.0,
                           ConstraintSet.all_space(), TIGHT)
    assert res.converged and res.restarts > 0
    assert res.iterations < 200


def step_mask(kind, size):
    rng = Rng(size)
    x = make_phantom(size=size) + 0.1 * rng.gaussian_array((size, size))
    if kind == "ones":
        return np.ones((2, size, size))
    if kind == "mmr":
        return mask_mmr(default_tv_model(), x)
    if kind == "safi":
        return mask_safi(default_safi_model(), x)
    return rng.uniform_array((2, size, size))


def dual_step_taken(L, z):
    """The step of the solver's first dual iteration, read off its result.

    From u_0 = L z, with gamma too large for any clipping and X = R^N, the
    first iterate is u_1 = u_0 + alpha * L(z - L^T u_0).
    """
    u0 = L.forward(z)
    g = L.forward(z - L.adjoint(u0))
    res = prox_weighted_l1(z, L, 1e6, ConstraintSet.all_space(),
                           ProxConfig(max_iters=1))
    return np.sum((res.dual - u0) * g) / np.sum(g * g)


@pytest.mark.parametrize("size", [8, 16])
@pytest.mark.parametrize("kind", ["ones", "mmr", "safi", "uniform"])
def test_dual_step_within_inverse_squared_norm(kind, size):
    L = WeightedAnalysisOperator(difference_bank(), step_mask(kind, size))
    exact = np.linalg.norm(dense_matrix_of(L.forward, (size, size)), 2)
    z = Rng(3 * size).gaussian_array((size, size))
    alpha = dual_step_taken(L, z)
    assert alpha == pytest.approx(1.0 / L.norm_bound() ** 2, rel=1e-12)
    # Roundoff in the exact norms and in reading the step off is ~1e-15.
    assert alpha * exact ** 2 <= 1.0 + 1e-12



@pytest.mark.parametrize("X", [ConstraintSet.all_space(),
                               ConstraintSet.box(0.0, 1.0)],
                         ids=["all_space", "box"])
def test_duality_gap_is_the_exact_gap(X):
    rng = Rng(61)
    bank = difference_bank()
    for _ in range(20):
        z = rng.gaussian_array((8, 8))
        gamma = 0.05 + rng.uniform()
        L = WeightedAnalysisOperator(bank, rng.uniform_array((2, 8, 8)))
        u = np.clip(rng.gaussian_array((2, 8, 8)), -gamma, gamma)
        r = z - L.adjoint(u)
        x = X.project(r)
        gap, primal = duality_gap(L, gamma, z, x, u)
        # Dual value min_{w in X} 0.5||w - z||^2 + <u, L w>, in closed form.
        dual = 0.5 * (np.sum(z ** 2) - np.sum(r ** 2)
                      + np.sum((r - x) ** 2))
        assert gap >= 0.0
        assert abs(primal - gap - dual) <= 1e-12 * primal


def test_duality_gap_vanishes_at_a_tight_prox():
    rng = Rng(62)
    bank = difference_bank()
    for i in range(6):
        z = rng.gaussian_array((8, 8))
        L = WeightedAnalysisOperator(bank, rng.uniform_array((2, 8, 8)))
        gamma = (0.05, 0.3, 1.0)[i % 3]
        X = (ConstraintSet.all_space(), ConstraintSet.box(0.0, 1.0))[i % 2]
        res = prox_weighted_l1(z, L, gamma, X, TIGHT)
        gap, primal = duality_gap(L, gamma, z, res.x, res.dual)
        assert 0.0 <= gap <= 1e-9 * primal


def test_certified_prox_stops_on_its_duality_gap():
    rng = Rng(63)
    bank = difference_bank()
    eps = 1e-6
    for i in range(6):
        z = rng.gaussian_array((8, 8))
        L = WeightedAnalysisOperator(bank, rng.uniform_array((2, 8, 8)))
        gamma = (0.05, 0.3, 1.0)[i % 3]
        X = (ConstraintSet.all_space(), ConstraintSet.box(0.0, 1.0))[i % 2]
        cfg = ProxConfig(max_iters=20000, epsilon=eps)
        res = prox_weighted_l1(z, L, gamma, X, cfg)
        gap, primal = duality_gap(L, gamma, z, res.x, res.dual)
        assert res.converged and res.iterations % 5 == 0
        assert 0.0 <= gap <= eps * primal
        assert res.gap == gap / primal


@pytest.mark.parametrize("X", [ConstraintSet.all_space(),
                               ConstraintSet.box(0.0, 1.0)],
                         ids=["all_space", "box"])
def test_tolerance_below_roundoff_converges_only_on_the_gap(X):
    # At epsilon = 1e-300 only a gap that rounds to <= 0 certifies the
    # solve; a gap that roundoff keeps above eps * P spends the budget.
    rng = Rng(65)
    L = weighted_difference(rng, (8, 8))
    z = rng.gaussian_array((8, 8))
    cfg = ProxConfig(max_iters=2000, epsilon=1e-300)
    res = prox_weighted_l1(z, L, 0.3, X, cfg)
    assert np.isfinite(res.gap)
    assert res.converged == (res.gap <= cfg.epsilon)
    if not res.converged:
        assert res.iterations == cfg.max_iters
    x_ref, iters_ref = two_adjoint_prox(z, L, 0.3, X, cfg)
    assert res.iterations == iters_ref
    assert np.max(np.abs(res.x - x_ref)) < 1e-12


def test_certified_prox_out_of_budget_is_unconverged():
    rng = Rng(64)
    L = weighted_difference(rng, (8, 8))
    z = rng.gaussian_array((8, 8))
    X = ConstraintSet.all_space()
    res = prox_weighted_l1(z, L, 0.3, X, ProxConfig(max_iters=7,
                                                    epsilon=1e-16))
    assert not res.converged and res.iterations == 7
    # G/P of the last check, at iteration 5, not of the returned pair.
    early = prox_weighted_l1(z, L, 0.3, X, ProxConfig(max_iters=5,
                                                      epsilon=1e-16))
    gap, primal = duality_gap(L, 0.3, z, early.x, early.dual)
    assert res.gap == early.gap == gap / primal > 1e-16
