import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from helpers import dual_gradient, duality_gap
from mmrsafi.core import Rng
from mmrsafi.linops import (ConvStage, FilterBank, _StencilStage,
                            difference_bank, project_zero_mean)
from mmrsafi.oracle import (AdmmConfig, admm_prox_oracle, dense_matrix_of,
                            finite_diff_gradient)
from mmrsafi.phantom import make_phantom
from mmrsafi.prox import (ConstraintSet, ProxConfig, ProxResult,
                          WeightedAnalysisOperator, prox_weighted_l1)
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


def test_multichannel_input_bank_certifies():
    # With two input channels the image is (2, h, w) and each check's
    # |s_c| is (h, w): summed once per channel, the gap closes.
    rng = Rng(24)
    bank = FilterBank([ConvStage(rng.gaussian_array((3, 2, 3, 3)), 1)])
    L = WeightedAnalysisOperator(bank, rng.uniform_array((3, 4, 4)))
    z = rng.gaussian_array((2, 4, 4))
    X = ConstraintSet.all_space()
    res = prox_weighted_l1(z, L, 0.3, X,
                           ProxConfig(max_iters=5000, epsilon=1e-12))
    assert res.converged and 0.0 <= res.gap <= 1e-12
    ref = admm_prox_oracle(z, dense_matrix_of(L.forward, (2, 4, 4)), 0.3, X,
                           AdmmConfig(iters=60000))
    assert np.max(np.abs(res.x.ravel() - ref)) < 1e-9


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


@pytest.mark.parametrize("unit", [False, True], ids=["random", "ones"])
def test_weighted_operator_out(unit):
    rng = Rng(21)
    L = weighted_difference(rng, (8, 8))
    if unit:
        L = WeightedAnalysisOperator(L.bank, np.ones_like(L.weights))
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


class MultiplyingOperator:
    """L = diag(weights) W applied with both weight multiplies whatever the
    weights; the reference for WeightedAnalysisOperator's unit masks."""

    def __init__(self, bank, weights):
        self.bank, self.weights = bank, weights
        self.unit = False
        self.workspace = np.empty_like(weights)

    def forward(self, x, out=None):
        out = self.bank.forward(x, out=out)
        return np.multiply(self.weights, out, out=out)

    def adjoint(self, u, out=None):
        work = np.multiply(self.weights, u, out=self.workspace)
        return self.bank.adjoint(work, out=out)

    def norm_bound(self):
        return (float(np.max(np.abs(self.weights)))
                * self.bank.norm(self.weights.shape[1:]))


@pytest.mark.parametrize("X", [ConstraintSet.all_space(),
                               ConstraintSet.box(0.0, 1.0)],
                         ids=["all_space", "box"])
def test_unit_mask_solve_matches_multiplied_ones(X):
    # 1.0 * y is y bit for bit, sign of zero included, so a unit-mask solve
    # that skips the weight multiplies gives the solve that makes them:
    # the same x, dual, iterations and restarts, cold and warm-started.
    rng = Rng(23)
    ones = np.ones((2, 16, 16))
    cfg = ProxConfig(max_iters=3000, epsilon=1e-11)
    z = rng.gaussian_array((16, 16))
    z_next = z + 0.05 * rng.gaussian_array((16, 16))
    solves = []
    for L in (WeightedAnalysisOperator(difference_bank(), ones),
              MultiplyingOperator(difference_bank(), ones)):
        cold = prox_weighted_l1(z, L, 0.3, X, cfg)
        warm = prox_weighted_l1(z_next, L, 0.3, X, cfg, warm_u=cold.dual)
        solves.append((cold, warm))
    for got, want in zip(*solves):
        assert got.converged and want.converged
        for a, b in ((got.x, want.x), (got.dual, want.dual)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        assert (got.iterations, got.restarts) == (want.iterations,
                                                  want.restarts)
    assert any(res.restarts for res in solves[0])


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


def test_warm_start_of_another_shape_rejected():
    # Broadcast into the dual, an image-shaped warm_u would pass for one.
    rng = Rng(26)
    L = weighted_difference(rng, (8, 8))
    z = rng.gaussian_array((8, 8))
    for bad in (np.zeros((8, 8)), np.zeros((1, 8, 8)), np.zeros((2, 8, 9))):
        with pytest.raises(ValueError, match="warm_u must be shaped"):
            prox_weighted_l1(z, L, 0.3, ConstraintSet.all_space(), TIGHT,
                             warm_u=bad)


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


def test_solves_run_under_a_line_tracer():
    # A tracer that receives line events, as a debugger with a breakpoint
    # does, holds references to the prox's locals; the solve's results
    # must not depend on them.
    def tracer(frame, event, arg):
        return tracer

    rng = Rng(25)
    shape = (8, 8)
    z = rng.gaussian_array(shape)
    operators = [WeightedAnalysisOperator(difference_bank(),
                                          np.ones((2,) + shape)),
                 weighted_difference(rng, shape)]
    cfg = ProxConfig(max_iters=40, epsilon=1e-12)

    def solves():
        results = []
        for L in operators:
            for X in (ConstraintSet.all_space(), ConstraintSet.box(0.0, 1.0)):
                cold = prox_weighted_l1(z, L, 0.3, X, cfg)
                results += [cold, prox_weighted_l1(z + 1e-3, L, 0.3, X, cfg,
                                                   warm_u=cold.dual)]
        return results

    untraced = solves()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        traced = solves()
    finally:
        sys.settrace(previous)
    assert len(traced) == 8
    for res, ref in zip(traced, untraced):
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.dual, ref.dual)
        assert (res.iterations, res.converged, res.restarts) == (
            ref.iterations, ref.converged, ref.restarts)
        assert np.array_equal(res.gap, ref.gap, equal_nan=True)


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
    # A solve makes its buffers once: u and v (two channels each) and three
    # images, seven image-sized arrays in all.  On top of them, each bank
    # call makes and frees its own transients (numpy's iteration buffers
    # for the stencil's strided block reads).  The peak is the same for 10
    # and for 200 dual iterations: an array kept per iteration would add at
    # least one 32 KB image, while Python's own small objects move the peak
    # by about a kilobyte.  Measured on Python 3.11: 7 images + 8,280 B,
    # 1,448 B under the bound; the views of the solve's four prepared bank
    # calls are part of it.
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
    assert peaks[1] <= 7 * image + bank_call + image // 4


@pytest.mark.parametrize("unit", [False, True], ids=["weighted", "ones"])
def test_scaled_taps_share_one_scratch_block(unit):
    # A stencil stage forms the products of scaled taps in one scratch
    # block per image size, made with its first runner of that size, so a
    # solve's four prepared bank calls add no image to its seven.  With a
    # scratch image made per call the peak was 8.06 images, and 11 with
    # one kept by each prepared call.
    rng = Rng(27)
    shape = (256, 256)
    bank = FilterBank([ConvStage(project_zero_mean(
        rng.gaussian_array((2, 1, 3, 3))))])
    assert type(bank._appliers[0]) is _StencilStage
    weights = (np.ones((2,) + shape) if unit
               else rng.uniform_array((2,) + shape))
    L = WeightedAnalysisOperator(bank, weights)
    X = ConstraintSet.all_space()
    z = rng.gaussian_array(shape)
    prox_weighted_l1(z, L, 0.3, X, ProxConfig(max_iters=5))
    res = []
    peak = traced_peak(lambda: res.append(prox_weighted_l1(
        z, L, 0.3, X, ProxConfig(max_iters=20, epsilon=1e-16))))
    assert res[0].iterations == 20
    assert peak <= 7 * z.nbytes + z.nbytes // 2


@pytest.mark.parametrize("unit", [False, True], ids=["weighted", "ones"])
def test_solves_keep_no_array_of_the_caller(unit):
    # Neither the operator nor its bank holds an array of a finished
    # solve: the input, the warm start and the results are freed once the
    # caller drops them.
    rng = Rng(28)
    shape = (8, 8)
    weights = (np.ones((2,) + shape) if unit
               else rng.uniform_array((2,) + shape))
    L = WeightedAnalysisOperator(difference_bank(), weights)
    z = rng.gaussian_array(shape)
    for X in (ConstraintSet.all_space(), ConstraintSet.box(0.0, 1.0)):
        cold = prox_weighted_l1(z, L, 0.3, X, TIGHT)
        warm = prox_weighted_l1(z + 1e-3, L, 0.3, X, TIGHT, warm_u=cold.dual)
        # The dual is a view of its solve's buffer, which the bank's
        # prepared calls viewed too.
        refs = [weakref.ref(a) for a in (z, cold.x, cold.dual.base, warm.x,
                                         warm.dual.base)]
        del z, cold, warm
        assert [r() is None for r in refs] == [True] * len(refs)
        z = rng.gaussian_array(shape)


class CountingBank:
    """Delegates to a filter bank and counts its forward and adjoint
    applications, plain or prepared."""

    def __init__(self, bank):
        self.bank = bank
        self.out_channels = bank.out_channels
        self.forward_calls = 0
        self.adjoint_calls = 0

    def forward(self, x, out=None):
        self.forward_calls += 1
        return self.bank.forward(x, out=out)

    def adjoint(self, s, out=None):
        self.adjoint_calls += 1
        return self.bank.adjoint(s, out=out)

    def prepare(self, direction, x, out):
        return self.bank.prepare(direction, x, out)

    def norm(self, shape):
        return self.bank.norm(shape)


def two_adjoint_prox(z, L, gamma, X, cfg, ceiling=np.inf):
    """The dual iteration with L^T applied to v and to u_{k+1} separately,
    restarting its momentum whenever <s, u_{k+1} - u_k> < 0 for the step s;
    every fifth iteration k it pairs the dual value at u_k with the primal
    value at x^ = Proj_X(z - L^T v_k), written out here, and stops with x^
    once their gap is <= eps * P(x^) and P(x^) <= ceiling; returns
    (x, iterations)."""
    alpha = 1.0 / L.norm_bound() ** 2
    u = v = L.forward(z)
    a = L.adjoint(u)
    t, j = 1.0, 1
    for k in range(cfg.max_iters + 1):
        x_hat = X.project(z - L.adjoint(v))
        lx_hat = L.forward(x_hat)
        if k > 0 and k % 5 == 0:
            x = X.project(z - a)
            dual = 0.5 * np.sum((x - z) ** 2) + np.sum(a * x)
            primal = (0.5 * np.sum((x_hat - z) ** 2)
                      + gamma * np.sum(np.abs(lx_hat)))
            if primal - dual <= cfg.epsilon * primal and primal <= ceiling:
                return x_hat, k
        if k == cfg.max_iters:
            break
        s = alpha * lx_hat
        u_next = np.clip(v + s, -gamma, gamma)
        if np.sum(s * (u_next - u)) < 0.0:
            v, t, j = u_next, 1.0, 1
        else:
            t_next = (j + 5.0) / 3.0
            v = u_next + ((t - 1.0) / t_next) * (u_next - u)
            t, j = t_next, j + 1
        u, a = u_next, L.adjoint(u_next)
    return X.project(z - a), cfg.max_iters


def six_buffer_prox(z, L, gamma, X, cfg, warm_u=None, ceiling=np.inf):
    """prox_weighted_l1's iteration on six separate arrays: u, v, a = L^T u,
    a_v = L^T v, x and work, with each half of the momentum step formed by
    its own multiply and add, every application through L.forward and
    L.adjoint, and the channel sums of ||s||_1 added left to right.  The
    solver's shared buffers must give its results bit for bit."""
    def project(r):
        if not X.is_all_space:
            r.clip(X.lower, X.upper, out=r)

    def squared_distance(x, work):
        diff = np.subtract(x, z, out=work)
        return float(np.vdot(diff, diff))

    alpha = 1.0 / L.norm_bound() ** 2
    u = L.forward(z) if warm_u is None else np.array(warm_u, dtype=np.float64)
    a = L.adjoint(u)
    v, a_v = u.copy(), a.copy()
    x, work = np.empty(z.shape), np.empty(z.shape)
    step = L.workspace
    t, j, restarts, ratio = 1.0, 1, 0, np.nan
    for k in range(cfg.max_iters + 1):
        check = k > 0 and k % 5 == 0
        if check:
            np.subtract(z, a, out=x)
            project(x)
            dual_value = (0.5 * squared_distance(x, work)
                          + float(np.vdot(a, x)))
        elif k == cfg.max_iters:
            break
        np.subtract(z, a_v, out=a_v)
        project(a_v)
        if check:
            np.copyto(x, a_v)
        L.forward(np.multiply(a_v, alpha, out=a_v), out=step)
        if check:
            penalty = sum(float(np.abs(s, out=work).sum()) for s in step)
            primal = (0.5 * squared_distance(x, work)
                      + gamma * penalty / alpha)
            gap = primal - dual_value
            ratio = gap / primal if primal > 0.0 else 0.0
            if gap <= cfg.epsilon * primal and primal <= ceiling:
                return ProxResult(x, u, k, True, ratio, restarts)
            if k == cfg.max_iters:
                break
        np.add(v, step, out=v)
        u_next = v.clip(-gamma, gamma, out=v)
        np.subtract(u_next, u, out=u)
        if np.vdot(step, u) < 0.0:
            t, j, beta = 1.0, 1, 0.0
            restarts += 1
        else:
            t_next = (j + 5.0) / 3.0
            t, j, beta = t_next, j + 1, (t - 1.0) / t_next
        np.multiply(u, beta, out=u)
        np.add(u_next, u, out=u)
        a_next = L.adjoint(u_next, out=a_v)
        np.subtract(a_next, a, out=a)
        np.multiply(a, beta, out=a)
        np.add(a_next, a, out=a)
        u, v, a, a_v = u_next, u, a_next, a
    np.subtract(z, a, out=x)
    project(x)
    return ProxResult(x, u, cfg.max_iters, False, ratio, restarts)


def assert_same_result(got, want):
    for a, b in ((got.x, want.x), (got.dual, want.dual)):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert (got.iterations, got.converged, got.restarts) == (
        want.iterations, want.converged, want.restarts)
    assert np.array_equal(got.gap, want.gap, equal_nan=True)


def three_channel_bank():
    """Horizontal, vertical and diagonal periodic differences."""
    kern = np.zeros((3, 1, 3, 3))
    kern[:, 0, 1, 1] = -1.0
    kern[0, 0, 1, 2] = kern[1, 0, 2, 1] = kern[2, 0, 2, 2] = 1.0
    return FilterBank([ConvStage(kern, groups=1)])


@pytest.mark.parametrize("X", [ConstraintSet.all_space(),
                               ConstraintSet.box(0.0, 1.0)],
                         ids=["all_space", "box"])
@pytest.mark.parametrize("unit", [False, True], ids=["weighted", "ones"])
@pytest.mark.parametrize("bank, size, merged", [
    (difference_bank, 8, True), (difference_bank, 64, True),
    (difference_bank, 72, True), (three_channel_bank, 8, True),
    (difference_bank, 8, False), (three_channel_bank, 8, False)],
    ids=["difference-8x8", "difference-64x64", "difference-72x72",
         "three-channel-8x8", "difference-8x8-split",
         "three-channel-8x8-split"])
def test_matches_six_buffer_iteration_bit_for_bit(monkeypatch, bank, size,
                                                  merged, unit, X):
    # Every size runs the same prepared bank calls; the split cases take
    # the momentum step of large images.
    # Certified solves run cold and warm-started from the previous dual;
    # out-of-budget ones end at each of the first 20 checks in turn, so
    # that the gaps of all of them are compared.
    if not merged:
        monkeypatch.setattr("mmrsafi.prox._MERGED_MOMENTUM_MAX_PIXELS", 0)
    rng = Rng(67 + size)
    shape = (size, size)
    bank = bank()
    weights = (np.ones((bank.out_channels,) + shape) if unit
               else rng.uniform_array((bank.out_channels,) + shape))
    L = WeightedAnalysisOperator(bank, weights)
    z = X.project(rng.gaussian_array(shape)) + 0.1 * rng.gaussian_array(shape)
    certify = ProxConfig(max_iters=2000, epsilon=1e-7)
    cold = prox_weighted_l1(z, L, 0.3, X, certify)
    assert_same_result(cold, six_buffer_prox(z, L, 0.3, X, certify))
    z_next = z + 0.01 * rng.gaussian_array(shape)
    warm = prox_weighted_l1(z_next, L, 0.3, X, certify, warm_u=cold.dual)
    assert_same_result(warm, six_buffer_prox(z_next, L, 0.3, X, certify,
                                             warm_u=cold.dual))
    assert cold.converged and warm.converged
    for max_iters in range(5, 105, 5):
        cfg = ProxConfig(max_iters=max_iters, epsilon=1e-16)
        for warm_u in (None, cold.dual):
            got = prox_weighted_l1(z_next, L, 0.3, X, cfg, warm_u=warm_u)
            want = six_buffer_prox(z_next, L, 0.3, X, cfg, warm_u=warm_u)
            assert not got.converged
            assert_same_result(got, want)


def primal_and_dual(L, gamma, X, z, x, u):
    """P(x) = 0.5*||x - z||^2 + gamma*||L x||_1 and the dual value
    D(u) = min_{w in X} 0.5*||w - z||^2 + <u, L w>, in closed form as
    0.5*(||z||^2 - ||r||^2 + ||r - Proj_X r||^2) for r = z - L^T u."""
    r = z - L.adjoint(u)
    primal = 0.5 * np.sum((x - z) ** 2) + gamma * np.sum(np.abs(L.forward(x)))
    dual = 0.5 * (np.sum(z ** 2) - np.sum(r ** 2)
                  + np.sum((r - X.project(r)) ** 2))
    return primal, dual


def assert_certified(res, L, gamma, X, z, eps):
    """The returned pair has 0 <= P - D <= eps * P, and res.gap is its
    (P - D) / P to 1e-12 of P."""
    primal, dual = primal_and_dual(L, gamma, X, z, res.x, res.dual)
    assert res.converged and res.iterations % 5 == 0
    assert 0.0 <= primal - dual <= eps * primal
    assert abs(res.gap * primal - (primal - dual)) <= 1e-12 * primal


def test_one_forward_and_one_adjoint_per_iteration():
    # L = diag(weights) W: each application of L or L^T is one of W or W^T.
    rng = Rng(14)
    weighted = weighted_difference(rng, (8, 8))
    bank = CountingBank(weighted.bank)
    L = WeightedAnalysisOperator(bank, weighted.weights)
    z = rng.gaussian_array((8, 8))
    X = ConstraintSet.box(0.0, 1.0)
    cold = prox_weighted_l1(z, L, 0.3, X, TIGHT)
    assert cold.converged
    # The gap checks call no bank: a certified stop adds the one L of the
    # ascent step it takes but does not complete, and a cold start one
    # more for u = L z.
    assert bank.forward_calls == cold.iterations + 2
    assert bank.adjoint_calls == cold.iterations + 1
    bank.forward_calls = bank.adjoint_calls = 0
    warm = prox_weighted_l1(z + 1e-3, L, 0.3, X, TIGHT, warm_u=cold.dual)
    assert warm.converged
    assert bank.forward_calls == warm.iterations + 1
    assert bank.adjoint_calls == warm.iterations + 1


@pytest.mark.parametrize("X", [ConstraintSet.all_space(),
                               ConstraintSet.box(0.0, 1.0)],
                         ids=["all_space", "box"])
@pytest.mark.parametrize("unit", [False, True], ids=["weighted", "ones"])
def test_every_bank_application_calls_the_bank_methods(monkeypatch, X, unit):
    # Bank applications are counted by wrapping FilterBank.forward and
    # adjoint on the class, as the benchmark's tracer does; the solve must
    # make every application through them, at the counts of
    # test_one_forward_and_one_adjoint_per_iteration.
    calls = dict.fromkeys(("forward", "adjoint"), 0)

    def counting(name, method):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(FilterBank, name,
                            counting(name, getattr(FilterBank, name)))
    rng = Rng(16)
    z = rng.gaussian_array((8, 8))
    weights = (np.ones((2, 8, 8)) if unit else rng.uniform_array((2, 8, 8)))
    L = WeightedAnalysisOperator(difference_bank(), weights)
    L.norm_bound()              # the bank's norm applies it once, cached
    calls.update(forward=0, adjoint=0)
    cold = prox_weighted_l1(z, L, 0.3, X, TIGHT)
    assert cold.converged
    assert calls == {"forward": cold.iterations + 2,
                     "adjoint": cold.iterations + 1}
    calls.update(forward=0, adjoint=0)
    warm = prox_weighted_l1(z + 1e-3, L, 0.3, X, TIGHT, warm_u=cold.dual)
    assert warm.converged and warm.iterations > 0
    assert calls == {"forward": warm.iterations + 1,
                     "adjoint": warm.iterations + 1}


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


@pytest.mark.parametrize("X", [ConstraintSet.all_space(),
                               ConstraintSet.box(0.0, 1.0)],
                         ids=["all_space", "box"])
def test_ceiling_holds_back_the_certified_stop(X):
    rng = Rng(66)
    L = weighted_difference(rng, (8, 8))
    z = rng.gaussian_array((8, 8))
    loose = ProxConfig(max_iters=2000, epsilon=1e-3)
    free = prox_weighted_l1(z, L, 0.3, X, loose)
    tight = prox_weighted_l1(z, L, 0.3, X, TIGHT)
    best = primal_and_dual(L, 0.3, X, z, tight.x, tight.dual)[0]
    first = primal_and_dual(L, 0.3, X, z, free.x, free.dual)[0]
    # A ceiling between the optimum and the first certified value makes
    # the solve go on until its primal value is below the ceiling too.
    ceiling = best + 1e-3 * (first - best)
    res = prox_weighted_l1(z, L, 0.3, X, loose, ceiling=ceiling)
    assert_certified(res, L, 0.3, X, z, loose.epsilon)
    assert res.iterations > free.iterations
    assert primal_and_dual(L, 0.3, X, z, res.x, res.dual)[0] <= ceiling
    x_ref, iters_ref = two_adjoint_prox(z, L, 0.3, X, loose, ceiling)
    assert res.iterations == iters_ref
    assert np.max(np.abs(res.x - x_ref)) < 1e-12
    # Below the optimum no point qualifies: the budget runs out.
    low = prox_weighted_l1(z, L, 0.3, X, loose, ceiling=best * (1 - 1e-6))
    assert not low.converged and low.iterations == loose.max_iters


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
        assert_certified(res, L, gamma, X, z, eps)


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
    # It stops at the first check whose gap is <= eps: a budget ending at
    # an earlier check runs the same iterates to the same gap there.
    for k in range(5, res.iterations, 5):
        early = prox_weighted_l1(z, L, 0.3, X, replace(cfg, max_iters=k))
        assert not early.converged and early.gap > cfg.epsilon, k
    # Where a gap rounds to <= 0 depends on roundoff, so the reference may
    # stop at another check, but by then both have reached the same point.
    x_ref, _ = two_adjoint_prox(z, L, 0.3, X, cfg)
    assert np.max(np.abs(res.x - x_ref)) < 1e-12


def test_certified_prox_out_of_budget_is_unconverged():
    rng = Rng(64)
    L = weighted_difference(rng, (8, 8))
    z = rng.gaussian_array((8, 8))
    X = ConstraintSet.all_space()
    res = prox_weighted_l1(z, L, 0.3, X, ProxConfig(max_iters=7,
                                                    epsilon=1e-16))
    assert not res.converged and res.iterations == 7
    assert np.array_equal(res.x, X.project(z - L.adjoint(res.dual)))
    # G/P of the last check, at iteration 5, not of the returned pair.  A
    # budget of 5 still takes that check's ascent step; eps = 1 certifies
    # the same pair, u_5 with the primal point of that step.
    early = prox_weighted_l1(z, L, 0.3, X, ProxConfig(max_iters=5,
                                                      epsilon=1e-16))
    assert not early.converged and early.iterations == 5
    loose = prox_weighted_l1(z, L, 0.3, X, ProxConfig(max_iters=5,
                                                      epsilon=1.0))
    assert np.array_equal(loose.dual, early.dual)
    assert_certified(loose, L, 0.3, X, z, 1.0)
    assert res.gap == early.gap == loose.gap > 1e-16
