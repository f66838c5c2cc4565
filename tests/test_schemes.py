import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_mmr_model, random_safi_model
from mmrsafi import schemes
from mmrsafi.core import Rng, psnr
from mmrsafi.fbs import NumericalError, SolverConfig, fbs_solve, tol_fbs
from mmrsafi.forward import (IdentityOp, MaskedDftOp, add_noise,
                             make_cartesian_mask)
from mmrsafi.linops import (ConvStage, FilterBank, box_bank,
                             project_positive_normalized, project_zero_mean)
from mmrsafi.oracle import MatrixOp, dense_matrix_of, finite_diff_gradient
from mmrsafi.phantom import make_phantom
from mmrsafi.prox import ConstraintSet, WeightedAnalysisOperator
from mmrsafi.schemes import (default_safi_model, default_tv_model,
                             eval_majorization, eval_objective, mask_mmr,
                             mask_safi, run_cvx, run_mmr, run_safi)
from mmrsafi.splines import (ConcavePotential, HalfLineSpline, LinearSpline,
                             SigmoidSpline)


def test_mask_mmr_constant_potential_gives_ones():
    model = default_tv_model()
    model.potentials = [
        ConcavePotential(HalfLineSpline(0.05, np.ones(21)), r=1.0)
        for _ in range(2)
    ]
    mask = mask_mmr(model, Rng(0).gaussian_array((8, 8)))
    assert np.max(np.abs(mask - 1.0)) < 1e-12


def test_mask_mmr_at_zero_is_one():
    mask = mask_mmr(default_tv_model(), np.zeros((8, 8)))
    assert np.max(np.abs(mask - 1.0)) < 1e-12


def test_mask_mmr_matches_dense_composition():
    rng = Rng(1)
    model = random_mmr_model(rng)
    x = rng.gaussian_array((8, 8))
    Wd = dense_matrix_of(model.W.forward, (8, 8))
    Bd = dense_matrix_of(model.B.forward, (2, 8, 8))
    s = np.abs(Wd @ x.ravel())
    t = np.maximum(Bd @ s, 0.0).reshape(2, 8, 8)
    p = np.stack([model.potentials[c].derivative(t[c]) for c in range(2)])
    ref = (Bd.T @ p.ravel()).reshape(2, 8, 8)
    assert np.max(np.abs(mask_mmr(model, x) - ref)) < 1e-12


def test_mask_mmr_range():
    rng = Rng(2)
    for _ in range(20):
        model = random_mmr_model(rng)
        mask = mask_mmr(model, rng.gaussian_array((8, 8)))
        assert mask.min() >= -1e-12 and mask.max() <= 1.0 + 1e-12


def test_mask_safi_zero_coefficients_give_half():
    model = default_safi_model()
    model.phi1 = [LinearSpline(0.1, np.zeros(21)) for _ in range(2)]
    model.phi2 = [LinearSpline(0.1, np.zeros(21)) for _ in range(2)]
    model.phi3 = [SigmoidSpline(LinearSpline(0.1, np.zeros(21)))
                  for _ in range(2)]
    for x in (Rng(3).gaussian_array((8, 8)), np.zeros((8, 8))):
        mask = mask_safi(model, x)
        assert np.max(np.abs(mask - 0.5)) < 1e-15


def test_mask_safi_matches_layerwise_composition():
    rng = Rng(4)
    model = random_safi_model(rng)
    x = rng.gaussian_array((8, 8))
    u = model.Wt.forward(x)
    a = np.stack([model.phi1[c](u[c]) for c in range(2)])
    u = model.Bt.forward(a)
    a = np.stack([model.phi2[c](u[c]) for c in range(2)])
    u = model.Bh.forward(a)
    ref = np.stack([model.phi3[c](u[c]) for c in range(2)])
    assert np.max(np.abs(mask_safi(model, x) - ref)) < 1e-12


def test_mask_safi_strictly_inside_unit_interval():
    rng = Rng(5)
    for _ in range(20):
        model = random_safi_model(rng)
        mask = mask_safi(model, rng.uniform_array((8, 8)))
        assert mask.min() > 0.0 and mask.max() < 1.0


def test_weighted_operator_adjoint_and_extremes():
    rng = Rng(6)
    model = random_mmr_model(rng)
    mask = rng.uniform_array((2, 8, 8))
    L = WeightedAnalysisOperator(model.W, mask)
    A = dense_matrix_of(L.forward, (8, 8))
    x = rng.gaussian_array((8, 8))
    u = rng.gaussian_array((2, 8, 8))
    assert np.max(np.abs(L.forward(x).ravel() - A @ x.ravel())) < 1e-12
    assert np.max(np.abs(L.adjoint(u).ravel() - A.T @ u.ravel())) < 1e-10
    ones = WeightedAnalysisOperator(model.W, np.ones((2, 8, 8)))
    assert np.allclose(ones.forward(x), model.W.forward(x))


def test_objective_lambda_zero_and_origin():
    rng = Rng(7)
    model = random_mmr_model(rng, lam=0.0)
    H = IdentityOp()
    y = rng.gaussian_array((8, 8))
    x = rng.gaussian_array((8, 8))
    assert eval_objective(model, H, y, x) == pytest.approx(
        0.5 * np.sum((x - y) ** 2), rel=1e-12)
    model.lam = 0.7
    assert eval_objective(model, H, y, np.zeros((8, 8))) == pytest.approx(
        0.5 * np.sum(y ** 2), abs=1e-12)


def test_objective_matches_dense_recomputation():
    rng = Rng(8)
    model = random_mmr_model(rng)
    H = IdentityOp()
    y = rng.gaussian_array((8, 8))
    x = rng.gaussian_array((8, 8))
    Wd = dense_matrix_of(model.W.forward, (8, 8))
    Bd = dense_matrix_of(model.B.forward, (2, 8, 8))
    t = np.maximum(Bd @ np.abs(Wd @ x.ravel()), 0.0).reshape(2, 64)
    ref = 0.5 * np.sum((x - y) ** 2)
    for c in range(2):
        ref += model.lam * np.sum(model.potentials[c](t[c]))
    assert eval_objective(model, H, y, x) == pytest.approx(ref, rel=1e-8)


def test_majorization_tight_and_upper_bound():
    rng = Rng(9)
    H = IdentityOp()
    for _ in range(5):
        model = random_mmr_model(rng)
        y = rng.gaussian_array((8, 8))
        for _ in range(40):
            a = rng.gaussian_array((8, 8))
            x = rng.gaussian_array((8, 8))
            f_a = eval_objective(model, H, y, a)
            assert abs(eval_majorization(model, H, y, a, a) - f_a) <= 1e-12
            g = eval_majorization(model, H, y, x, a)
            assert g >= eval_objective(model, H, y, x) - 1e-10


def test_majorization_linear_potential_is_exact():
    rng = Rng(10)
    model = random_mmr_model(rng)
    model.potentials = [
        ConcavePotential(HalfLineSpline(0.1, np.ones(9)), r=1.0)
        for _ in range(2)
    ]
    H = IdentityOp()
    y = rng.gaussian_array((8, 8))
    for _ in range(20):
        x = rng.gaussian_array((8, 8))
        a = rng.gaussian_array((8, 8))
        g = eval_majorization(model, H, y, x, a)
        f = eval_objective(model, H, y, x)
        assert g == pytest.approx(f, rel=1e-10, abs=1e-10)


def test_mmr_gradient_identity_lemma():
    # gradient of x -> <1, psi(B x)> on x >= 0 is B^T psi'(B x)
    rng = Rng(11)
    model = random_mmr_model(rng)
    # keep psi' bounded away from zero so the relative comparison is defined
    grid = 0.1 * np.arange(9)
    model.potentials = [
        ConcavePotential(HalfLineSpline(0.1, 1.0 / (1.0 + grid / s)),
                         r=0.5 + rng.uniform())
        for s in (0.3, 0.8)
    ]
    Bd = dense_matrix_of(model.B.forward, (2, 8, 8))

    def g(v):
        t = Bd @ v.ravel()
        return sum(np.sum(model.potentials[c](t[64 * c:64 * (c + 1)]))
                   for c in range(2))

    worst = 0.0
    for _ in range(20):
        x = 0.5 + rng.uniform_array((2, 8, 8))
        t = (Bd @ x.ravel()).reshape(2, 8, 8)
        p = np.stack([model.potentials[c].derivative(t[c]) for c in range(2)])
        analytic = (Bd.T @ p.ravel()).reshape(2, 8, 8)
        fd = finite_diff_gradient(g, x)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(analytic)
        worst = max(worst, rel)
    assert worst < 1e-6


def test_run_mmr_lambda_zero_single_step():
    rng = Rng(12)
    y = rng.gaussian_array((8, 8))
    x, trace = run_mmr(random_mmr_model(rng, lam=0.0), IdentityOp(), y)
    assert np.array_equal(x, y)
    assert len(trace.residuals) <= 2


def test_run_mmr_constant_potential_early_stop():
    model = default_tv_model()
    model.potentials = [
        ConcavePotential(HalfLineSpline(0.05, np.ones(21)), r=1.0)
        for _ in range(2)
    ]
    y = add_noise(make_phantom(16, seed=1), 0.1, Rng(13))
    cfg = SolverConfig(eps_prox=1e-11, k_prox=5000)
    x, trace = run_mmr(model, IdentityOp(), y, cfg)
    # fixed mask: step 2 reproduces step 1, so the loop stops right there
    assert len(trace.residuals) == 2
    assert trace.residuals[-1] < cfg.eps_out


def test_run_mmr_descent_and_improvement_on_phantom():
    phantom = make_phantom()
    y = add_noise(phantom, 25 / 255, Rng(14))
    model = default_tv_model()
    cfg = SolverConfig(k_prox=3000, eps_prox=1e-10)
    x, trace = run_mmr(model, IdentityOp(), y, cfg, reference=phantom)
    diffs = np.diff(trace.objectives)
    assert np.all(diffs <= 1e-8)
    assert trace.objectives[0] > trace.objectives[-1]
    x_cvx, _ = run_cvx(model, IdentityOp(), y, cfg)
    assert psnr(phantom, x) >= psnr(phantom, x_cvx)
    assert trace.residuals[-1] < 1e-4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_mmr_descends_under_the_default_schedule(seed):
    # The default prox tolerance on the identity path, 25 * tol_fbs, is far
    # above the decrease of a late step; the prox's ceiling, the problem's
    # objective at the step's anchor, keeps each step from rising.
    y = add_noise(make_phantom(size=64), 25 / 255, Rng(seed))
    _, trace = run_mmr(default_tv_model(), IdentityOp(), y)
    objectives = trace.objectives
    assert len(objectives) > 5
    for prev, cur in zip(objectives, objectives[1:]):
        assert cur <= prev * (1.0 + 1e-12)


def test_run_safi_constant_mask_two_steps():
    # zero output splines: mask is 0.5 everywhere, so with the first mask
    # already built from the (zero) iterate, step 2 reproduces step 1
    model = default_safi_model()
    model.phi3 = [SigmoidSpline(LinearSpline(0.1, np.zeros(21)))
                  for _ in range(2)]
    y = add_noise(make_phantom(16, seed=2), 0.1, Rng(15))
    cfg = SolverConfig(eps_prox=1e-11, k_prox=5000)
    x, trace = run_safi(model, IdentityOp(), y, cfg,
                        x_init=np.zeros((16, 16)))
    assert len(trace.residuals) == 2
    assert trace.residuals[-1] < cfg.eps_out


def test_run_safi_radius_bound_denoising():
    rng = Rng(16)
    for _ in range(5):
        model = random_safi_model(rng)
        y = rng.gaussian_array((8, 8))
        _, trace = run_safi(model, IdentityOp(), y,
                            SolverConfig(k_out=5, eps_prox=1e-9))
        bound = 2.0 * np.linalg.norm(y) + 1e-6
        assert all(n <= bound for n in trace.iterate_norms)


def test_run_safi_residual_small_on_phantom():
    phantom = make_phantom()
    y = add_noise(phantom, 25 / 255, Rng(17))
    cfg = SolverConfig(k_prox=3000, eps_prox=1e-10)
    _, trace = run_safi(default_safi_model(), IdentityOp(), y, cfg)
    assert trace.residuals[-1] < 1e-4


def test_run_safi_initialization_robustness_small():
    rng = Rng(18)
    model = default_safi_model()
    y = add_noise(make_phantom(32, seed=3), 25 / 255, Rng(19))
    cfg = SolverConfig(k_prox=3000, eps_prox=1e-10, eps_out=1e-8)
    x_zero, _ = run_safi(model, IdentityOp(), y, cfg)
    x_rand, _ = run_safi(model, IdentityOp(), y, cfg,
                         x_init=rng.gaussian_array((32, 32)))
    rel = np.linalg.norm(x_zero - x_rand) / np.linalg.norm(x_zero)
    assert rel < 1e-3


def test_default_tv_model_structure():
    model = default_tv_model()
    assert np.max(np.abs(model.W.forward(np.full((8, 8), 0.4)))) < 1e-12
    for pot in model.potentials:
        assert pot.derivative(0.0) == 1.0


def test_mmr_model_rejects_bad_b_or_potentials():
    model = default_tv_model()
    box = model.B.stages[0].kernels
    negative = box.copy()           # one negative tap, sums still one
    negative[1, 0, 0, 0] -= 0.5
    negative[1, 0, 2, 2] += 0.5
    bad = [
        ("B", FilterBank([ConvStage(
            project_positive_normalized(np.ones((3, 2, 3, 3))), 1)]),
         "B must map W's 2 channels to as many; it maps 2 to 3"),
        ("B", FilterBank([ConvStage(negative, 2)]),
         "B's kernels must be nonnegative"),
        ("B", FilterBank([ConvStage(2.0 * box, 2)]), "each sum to one"),
        ("potentials", model.potentials[:1],
         "one potential per analysis channel"),
    ]
    for name, value, message in bad:
        with pytest.raises(ValueError, match=message):
            replace(model, **{name: value})


def test_safi_model_rejects_channel_counts_that_do_not_chain():
    model = default_safi_model()
    bad = {
        "phi3": (model.phi3[:1], "Bh -> phi3 -> W: 2, 1, 2"),
        "phi1": (model.phi1 * 2, "Wt -> phi1 -> Bt: 2, 4, 2"),
        "Bt": (box_bank(3), "Wt -> phi1 -> Bt: 2, 2, 3"),
        "Bh": (FilterBank([ConvStage(np.ones((3, 2, 1, 1)), 1)]),
               "Bh -> phi3 -> W: 3, 2, 2"),
        "Wt": (FilterBank([ConvStage(
            project_zero_mean(np.ones((2, 2, 3, 3))), 1)]), "Wt takes 2 input"),
    }
    for name, (value, message) in bad.items():
        with pytest.raises(ValueError, match=message):
            replace(model, **{name: value})
    replace(model, Bh=FilterBank([ConvStage(np.ones((2, 2, 1, 1)), 1)]))


def test_trace_psnr_recorded():
    phantom = make_phantom(16, seed=4)
    y = add_noise(phantom, 0.05, Rng(20))
    _, trace = run_mmr(default_tv_model(), IdentityOp(), y,
                       SolverConfig(k_out=3), reference=phantom)
    assert len(trace.psnrs) == len(trace.residuals)
    assert all(np.isfinite(p) for p in trace.psnrs)


def test_trace_reports_inner_solves():
    phantom = make_phantom(16, seed=4)
    H = MaskedDftOp(make_cartesian_mask(16, 4, 0.1, Rng(9)), 16, 16)
    y = H.forward(phantom)
    cfg = SolverConfig(k_out=3, k_fbs=3, k_prox=50, lam=1e-3)
    for run in (run_mmr, run_safi):
        model = default_tv_model() if run is run_mmr else default_safi_model()
        _, trace = run(model, H, y, cfg)
        steps = len(trace.residuals)
        assert trace.fbs_iterations == [3] * steps
        assert trace.fbs_converged == [False] * steps
        assert len(trace.prox_iterations) == len(trace.prox_unconverged) == steps
        assert all(3 <= n <= 3 * 50 for n in trace.prox_iterations)
        assert all(0 <= n <= 3 for n in trace.prox_unconverged)
        assert len(trace.prox_gaps) == steps
        assert all(g >= 0.0 for g in trace.prox_gaps)
        assert len(trace.prox_restarts) == steps
        assert all(0 <= n <= m for n, m in zip(trace.prox_restarts,
                                                trace.prox_iterations))
    _, trace = run_cvx(default_tv_model(), IdentityOp(), add_noise(
        phantom, 0.05, Rng(20)), SolverConfig())
    assert trace.fbs_iterations == [1] and trace.fbs_converged == [True]
    assert trace.prox_unconverged == [0] and trace.prox_iterations[0] >= 1
    # The one-step identity path certifies its prox at 25 * eps_fbs.
    assert 0.0 <= trace.prox_gaps[0] <= 25 * tol_fbs(1)


def test_schemes_run_on_a_dense_matrix_operator():
    rng = Rng(2)
    H = MatrixOp(rng.gaussian_array((20, 16)) + 2.0 * np.eye(20, 16), (4, 4))
    y = rng.gaussian_array(20)
    model = default_tv_model()
    cfg = SolverConfig(k_out=2, k_fbs=200)
    x, trace = run_cvx(model, H, y, cfg)
    L = WeightedAnalysisOperator(model.W, np.ones((2, 4, 4)))
    ref = fbs_solve(H, y, L, model.lam, np.zeros((4, 4)), 1, cfg,
                    ConstraintSet.all_space())
    assert np.array_equal(x, ref.x)
    assert trace.fbs_iterations == [ref.iterations]
    x, trace = run_mmr(model, H, y, cfg)
    assert x.shape == (4, 4) and np.all(np.isfinite(x))
    assert len(trace.residuals) == len(trace.objectives) == 2


@pytest.mark.parametrize("run, steps, masks_cold, masks_warm", [
    (run_cvx, 1, 0, 0), (run_mmr, 3, 2, 3), (run_safi, 3, 2, 3)])
def test_one_mask_per_step_none_after_the_last(monkeypatch, run, steps,
                                               masks_cold, masks_warm):
    calls = []
    for name in ("mask_mmr", "mask_safi"):
        def counted(model, x, original=getattr(schemes, name)):
            calls.append(x)
            return original(model, x)
        monkeypatch.setattr(schemes, name, counted)
    model = default_safi_model() if run is run_safi else default_tv_model()
    y = add_noise(make_phantom(16, seed=4), 0.05, Rng(20))
    for x_init, masks in ((None, masks_cold), (y, masks_warm)):
        calls.clear()
        _, trace = run(model, IdentityOp(), y, SolverConfig(k_out=3),
                       x_init=x_init)
        assert len(trace.residuals) == steps
        assert len(calls) == masks


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("run", [run_cvx, run_mmr, run_safi])
def test_non_finite_initial_iterate_refused(run, bad):
    model = default_safi_model() if run is run_safi else default_tv_model()
    y = add_noise(make_phantom(8, seed=4), 0.05, Rng(20))
    x_init = y.copy()
    x_init[3, 5] = bad
    with pytest.raises(NumericalError, match="non-finite initial iterate"):
        run(model, IdentityOp(), y, x_init=x_init)


def test_cfg_lambda_replaces_model_lambda_in_the_objective():
    model = default_tv_model()
    y = add_noise(make_phantom(16, seed=4), 0.05, Rng(20))
    x, trace = run_mmr(model, IdentityOp(), y,
                       SolverConfig(lam=0.03, k_out=1))
    assert model.lam == 0.1
    assert trace.objectives[-1] == eval_objective(
        replace(model, lam=0.03), IdentityOp(), y, x)


def test_outer_loop_stops_at_a_fixed_point_at_zero():
    x, trace = run_mmr(default_tv_model(), IdentityOp(), np.zeros((8, 8)),
                       SolverConfig(k_out=5))
    assert trace.residuals == [0.0]
    assert not np.any(x)


@pytest.mark.parametrize("run, make", [(run_cvx, default_tv_model),
                                       (run_mmr, default_tv_model),
                                       (run_safi, default_safi_model)],
                         ids=["cvx", "mmr", "safi"])
def test_schemes_release_the_plans_of_their_solves(monkeypatch, run, make):
    # The analysis bank keeps plans that hold the buffers of the prox solve
    # that made them; each prox solve releases them before it returns, so
    # no scheme step ends with a plan kept.
    model = make()
    kept, released = [], []

    def solve(*args, **kwargs):
        res = real(*args, **kwargs)
        kept.append(sum(map(len, model.W._plans)))
        return res

    def release(bank):
        released.append(sum(map(len, bank._plans)))
        real_release(bank)

    real, real_release = schemes.fbs_solve, FilterBank.release
    monkeypatch.setattr(schemes, "fbs_solve", solve)
    monkeypatch.setattr(FilterBank, "release", release)
    y = Rng(53).gaussian_array((8, 8))
    run(model, IdentityOp(), y, SolverConfig(k_out=3))
    assert released and min(released) > 0
    assert kept and max(kept) == 0


@pytest.mark.parametrize("run", [run_mmr, run_safi], ids=["mmr", "safi"])
def test_masks_are_computed_without_the_last_step_held(monkeypatch, run):
    # When a step computes its mask, the run holds x, its result array and
    # the last dual's [u | a] buffer (two channels and an image): five
    # images.  The last step's mask and its operator's workspace are gone.
    model = default_safi_model() if run is run_safi else default_tv_model()
    name = "mask_safi" if run is run_safi else "mask_mmr"
    y = add_noise(make_phantom(64, seed=4), 0.05, Rng(20))
    cfg = SolverConfig(k_out=4)
    run(model, IdentityOp(), y, cfg)        # per-shape caches
    held = []

    def traced(model, x, original=getattr(schemes, name)):
        held.append(tracemalloc.get_traced_memory()[0])
        return original(model, x)

    monkeypatch.setattr(schemes, name, traced)
    tracemalloc.start()
    try:
        _, trace = run(model, IdentityOp(), y, cfg)
    finally:
        tracemalloc.stop()
    assert len(trace.residuals) == 4 and len(held) == 3
    assert max(held) <= 5 * y.nbytes + y.nbytes // 4
