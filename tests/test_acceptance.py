"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s); the
assertions carry the same conditions.  Criteria that exercise the outer
schemes run with tightened inner tolerances, since the descent and agreement
statements assume the subproblems are solved accurately.
"""

import time

import numpy as np

from helpers import random_mmr_model, random_safi_model
from mmrsafi.core import Rng, psnr
from mmrsafi.fbs import SolverConfig, momentum_next, tol_fbs, tol_prox
from mmrsafi.forward import (IdentityOp, MaskedDftOp, add_noise,
                             make_cartesian_mask)
from mmrsafi.linops import (ConvStage, FilterBank, box_bank, dense_matrix_of,
                            difference_bank, operator_norm)
from mmrsafi.oracle import AdmmConfig, admm_prox_oracle, finite_diff_gradient
from mmrsafi.phantom import make_phantom
from mmrsafi.prox import (ConstraintSet, ProxConfig, WeightedAnalysisOperator,
                          dual_gradient, prox_weighted_l1)
from mmrsafi.schemes import (default_safi_model, default_tv_model,
                             eval_majorization, eval_objective, mask_mmr,
                             mask_safi, run_mmr, run_safi)
from mmrsafi.splines import project_nonincreasing

TIGHT_PROX = ProxConfig(max_iters=20000, epsilon=1e-13)


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}",
          flush=True)
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_prox_oracle_equivalence():
    rng = Rng(101)
    bank = difference_bank()
    # rho=1 cannot pass its own 1e-10 convergence check on boundary-degenerate
    # instances; any rho converges to the same point, and rho=3 passes all 50.
    oracle_cfg = AdmmConfig(rho=3.0, iters=60000)
    start = time.monotonic()
    worst = 0.0
    for i in range(50):
        z = rng.gaussian_array((8, 8))
        weights = rng.uniform_array((2, 8, 8))
        gamma = (0.05, 0.3, 1.0)[i % 3]
        X = (ConstraintSet.all_space(), ConstraintSet.box(0.0, 1.0))[i % 2]
        L = WeightedAnalysisOperator(bank, weights)
        res = prox_weighted_l1(z, L, gamma, X, TIGHT_PROX)
        ref = admm_prox_oracle(z, dense_matrix_of(L.forward, (8, 8)), gamma,
                               X, oracle_cfg)
        worst = max(worst, float(np.max(np.abs(res.x.ravel() - ref))))
    elapsed = time.monotonic() - start
    report(1, f"prox vs ADMM oracle, 50 instances: max dev {worst:.2e} "
              f"({elapsed:.1f}s)", worst < 1e-6 and elapsed < 30.0)


def test_criterion_02_soft_threshold_exactness():
    rng = Rng(102)
    kern = np.ones((1, 1, 1, 1))
    L = WeightedAnalysisOperator(FilterBank([ConvStage(kern, 1)]),
                                 np.ones((1, 1, 16)))
    X = ConstraintSet.all_space()
    worst = 0.0
    for _ in range(1000):
        z = rng.gaussian_array((1, 16))
        gamma = 0.05 + rng.uniform()
        res = prox_weighted_l1(z, L, gamma, X, TIGHT_PROX)
        expect = np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)
        worst = max(worst, float(np.max(np.abs(res.x - expect))))
    report(2, f"soft-threshold exactness on 1000 vectors: max dev {worst:.2e}",
           worst < 1e-10)


def test_criterion_03_majorization_suite():
    rng = Rng(103)
    H = IdentityOp()
    worst_tight = 0.0
    worst_gap = 0.0
    for _ in range(5):
        model = random_mmr_model(rng)
        y = rng.gaussian_array((8, 8))
        for _ in range(200):
            a = rng.gaussian_array((8, 8))
            x = rng.gaussian_array((8, 8))
            worst_tight = max(worst_tight,
                              abs(eval_majorization(model, H, y, a, a)
                                  - eval_objective(model, H, y, a)))
            worst_gap = max(worst_gap,
                            eval_objective(model, H, y, x)
                            - eval_majorization(model, H, y, x, a))
    report(3, f"majorization: |g(a,a)-f(a)| <= {worst_tight:.1e}, "
              f"f(x)-g(x,a) <= {worst_gap:.1e} over 1000 pairs",
           worst_tight <= 1e-12 and worst_gap <= 1e-10)


def test_criterion_04_monotone_descent_on_phantom():
    phantom = make_phantom()
    model = default_tv_model()
    cfg = SolverConfig(k_prox=3000, eps_prox=1e-10)
    start = time.monotonic()
    ok = True
    detail = []
    for tag, sigma in (("15/255", 15 / 255), ("25/255", 25 / 255)):
        y = add_noise(phantom, sigma, Rng(115))
        _, trace = run_mmr(model, IdentityOp(), y, cfg)
        rises = np.diff(trace.objectives)
        worst_rise = float(rises.max()) if rises.size else 0.0
        ok &= worst_rise <= 1e-8
        ok &= trace.residuals[-1] < 1e-4 and len(trace.residuals) <= 10
        detail.append(f"sigma={tag}: max rise {worst_rise:.1e}, "
                      f"final e {trace.residuals[-1]:.1e}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(4, "; ".join(detail) + f" ({elapsed:.1f}s)", ok)


def test_criterion_05_safi_radius_bound():
    rng = Rng(105)
    cfg = SolverConfig(k_out=10, eps_prox=1e-9)
    worst_excess = -np.inf
    for _ in range(20):
        model = random_safi_model(rng)
        y = rng.gaussian_array((8, 8))
        _, trace = run_safi(model, IdentityOp(), y, cfg)
        bound = 2.0 * np.linalg.norm(y)
        worst_excess = max(worst_excess,
                           max(trace.iterate_norms) - bound)
    report(5, f"SAFI radius bound, 20 models: max ||x|| - 2||y|| = "
              f"{worst_excess:.2e}", worst_excess <= 1e-6)


def test_criterion_06a_reweighting_gradient_identity():
    rng = Rng(106)
    model = random_mmr_model(rng)
    grid = 0.1 * np.arange(9)
    from mmrsafi.splines import ConcavePotential, HalfLineSpline
    model.potentials = [
        ConcavePotential(HalfLineSpline(0.1, 1.0 / (1.0 + grid / s)), r=1.0)
        for s in (0.4, 0.9)
    ]
    Bd = dense_matrix_of(model.B.forward, (2, 8, 8))

    def g(v):
        t = Bd @ v.ravel()
        return sum(np.sum(model.potentials[c](t[64 * c:64 * (c + 1)]))
                   for c in range(2))

    worst = 0.0
    for _ in range(100):
        x = 0.5 + rng.uniform_array((2, 8, 8))
        t = (Bd @ x.ravel()).reshape(2, 8, 8)
        p = np.stack([model.potentials[c].derivative(t[c]) for c in range(2)])
        analytic = (Bd.T @ p.ravel()).reshape(2, 8, 8)
        fd = finite_diff_gradient(g, x)
        worst = max(worst, np.linalg.norm(analytic - fd)
                    / np.linalg.norm(analytic))
    report("6a", f"reweighting gradient vs finite differences: rel {worst:.2e}",
           worst < 1e-6)


def test_criterion_06b_dual_gradient_identity():
    rng = Rng(107)
    bank = difference_bank()
    worst = 0.0
    for i in range(100):
        L = WeightedAnalysisOperator(bank, rng.uniform_array((2, 4, 4)))
        X = (ConstraintSet.all_space(), ConstraintSet.box(0.0, 1.0))[i % 2]
        z = rng.gaussian_array((4, 4))
        u = 0.5 * rng.gaussian_array((2, 4, 4))

        def dual_fun(v):
            w = X.project(z - L.adjoint(v))
            return 0.5 * np.sum((w - z) ** 2) + np.sum(v * L.forward(w))

        grad = dual_gradient(L, X, z, u)
        fd = finite_diff_gradient(dual_fun, u)
        worst = max(worst, np.linalg.norm(grad - fd)
                    / max(np.linalg.norm(grad), 1e-30))
    report("6b", f"dual gradient vs finite differences: rel {worst:.2e}",
           worst < 1e-6)


def _adjoint_dev(forward, adjoint, in_shape, out_shape, rng, trials=100):
    worst = 0.0
    for _ in range(trials):
        x = rng.gaussian_array(in_shape)
        s = rng.gaussian_array(out_shape)
        lhs = float(np.sum(forward(x) * s))
        rhs = float(np.sum(x * adjoint(s)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def test_criterion_07_adjoint_and_norm_suite():
    rng = Rng(108)
    devs = {}
    zm = FilterBank([ConvStage(rng.gaussian_array((3, 1, 5, 5)), 1),
                     ConvStage(rng.gaussian_array((3, 3, 3, 3)), 1)],
                    constraint="zero-mean")
    devs["zero-mean bank"] = _adjoint_dev(zm.forward, zm.adjoint,
                                          (8, 8), (3, 8, 8), rng)
    pn = box_bank(3, size=5)
    devs["normalized bank"] = _adjoint_dev(pn.forward, pn.adjoint,
                                           (3, 8, 8), (3, 8, 8), rng)
    L = WeightedAnalysisOperator(difference_bank(),
                                 rng.uniform_array((2, 8, 8)))
    devs["weighted analysis"] = _adjoint_dev(L.forward, L.adjoint,
                                             (8, 8), (2, 8, 8), rng)
    mask = make_cartesian_mask(16, 4, 0.1, Rng(9))
    H = MaskedDftOp(mask, 16, 16)
    devs["masked dft"] = _adjoint_dev(
        H.forward, H.adjoint, (16, 16), (16, int(mask.sum()), 2), rng)
    worst_adj = max(devs.values())

    norm_dev = abs(operator_norm(H.forward, H.adjoint, (16, 16), iters=100,
                                 rng=Rng(0)) - 1.0)
    full = MaskedDftOp(np.ones(16, dtype=bool), 16, 16)
    parseval = 0.0
    for _ in range(20):
        x = rng.gaussian_array((16, 16))
        parseval = max(parseval, abs(np.linalg.norm(full.forward(x))
                                     - np.linalg.norm(x)))
    ok = worst_adj <= 1e-10 and norm_dev <= 1e-6 and parseval <= 1e-10
    report(7, f"adjoints {worst_adj:.1e}, dft norm dev {norm_dev:.1e}, "
              f"Parseval {parseval:.1e}", ok)


def test_criterion_08_schedule_and_momentum_exactness():
    eps = 1e-4
    checks = [
        abs(tol_fbs(5) - 1e-5),
        abs(tol_prox(3, 50, eps) - eps / 3.0),
        abs(tol_prox(3, 51, eps) - eps / 3.0),
        abs(momentum_next(4) - 3.0),
    ]
    report(8, f"schedules/momentum exact: max dev {max(checks):.1e}",
           max(checks) <= 1e-15)


def test_criterion_09_initialization_robustness():
    phantom = make_phantom()
    y = add_noise(phantom, 25 / 255, Rng(109))
    rng = Rng(110)
    inits = [None,
             (15 / 255) * rng.gaussian_array(phantom.shape),
             rng.gaussian_array(phantom.shape)]
    cfg = SolverConfig(k_prox=3000, eps_prox=1e-10, eps_out=1e-7)
    start = time.monotonic()
    worst = 0.0
    for runner, model in ((run_mmr, default_tv_model()),
                          (run_safi, default_safi_model())):
        finals = [runner(model, IdentityOp(), y, cfg, x_init=x0)[0]
                  for x0 in inits]
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                rel = (np.linalg.norm(finals[i] - finals[j])
                       / np.linalg.norm(finals[j]))
                worst = max(worst, float(rel))
    elapsed = time.monotonic() - start
    report(9, f"initialization robustness: worst pairwise rel {worst:.2e} "
              f"({elapsed:.1f}s)", worst < 1e-3 and elapsed < 120.0)


def test_criterion_10_spline_and_mask_invariants():
    rng = Rng(111)
    ok = True
    for _ in range(50):
        d = rng.gaussian_array(9)
        once = project_nonincreasing(d)
        ok &= bool(np.max(np.abs(project_nonincreasing(once) - once)) <= 1e-14)
    from helpers import random_mmr_model as rmm
    worst_concavity = 0.0
    for _ in range(10):
        model = rmm(rng)
        for pot in model.potentials:
            grid = np.linspace(0.0, 10 * 8 * 0.1 / pot.r, 10**4)
            vals = pot.derivative(grid)
            ok &= pot.derivative(0.0) == 1.0
            ok &= bool(np.all(vals >= 0.0) and np.all(vals <= 1.0))
            ok &= bool(np.all(np.diff(vals) <= 1e-14))
        pot = model.potentials[0]
        for _ in range(100):
            a = 2.0 * rng.uniform()
            b = a + 2.0 * rng.uniform() + 1e-9
            t = rng.uniform()
            gap = (t * pot(a) + (1 - t) * pot(b)
                   - pot(t * a + (1 - t) * b))
            worst_concavity = max(worst_concavity, float(gap))
        mask = mask_mmr(model, rng.gaussian_array((8, 8)))
        ok &= bool(mask.min() >= -1e-12 and mask.max() <= 1.0 + 1e-12)
        safi = random_safi_model(rng)
        smask = mask_safi(safi, rng.uniform_array((8, 8)))
        ok &= bool(smask.min() > 0.0 and smask.max() < 1.0)
    ok &= worst_concavity <= 1e-10
    report(10, f"spline/mask invariants (concavity gap {worst_concavity:.1e})",
           ok)


def test_criterion_11_mri_end_to_end():
    phantom = make_phantom()
    mask = make_cartesian_mask(64, 4, 0.08, Rng(1))
    H = MaskedDftOp(mask, 64, 64)
    y = add_noise(H.forward(phantom), 2e-3, Rng(2))
    zero_fill = psnr(phantom, H.adjoint(y))
    cfg = SolverConfig(lam=1e-3, k_fbs=2000, eps_fbs=1e-7, eps_prox=1e-8,
                       eps_out=1e-9)
    ok = True
    detail = [f"zero-fill {zero_fill:.2f} dB"]
    for name, runner, model in (("MMR", run_mmr, default_tv_model()),
                                ("SAFI", run_safi, default_safi_model())):
        x, trace = runner(model, H, y, cfg)
        gain = psnr(phantom, x) - zero_fill
        tail = trace.residuals[-3:]
        mono = all(b <= a for a, b in zip(tail, tail[1:]))
        ok &= gain >= 1.0 and mono
        detail.append(f"{name} +{gain:.2f} dB, tail "
                      + "/".join(f"{e:.1e}" for e in tail)
                      + f" mono={mono}")
    report(11, "; ".join(detail), ok)
