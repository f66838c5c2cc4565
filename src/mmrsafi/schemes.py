"""Reweighting schemes: mask generators, objective, and the outer loops.

Two mask families drive the reweighted l1-analysis solves.  The
majorization-minimization masks come from concave-potential derivatives,
Lambda_c(x) = B_c^T psi'_c(B_c |W_c x|), and yield provable monotone descent
of an explicit objective.  The solution-adaptive masks come from a small
convolutional generator with sigmoid output, Lambda~_c(x) =
phi3_c(Bh_c phi2(Bt phi1(Wt x))), and the reconstruction is a fixed point of
the induced update operator.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import psnr, relative_change
from .fbs import SolverConfig, fbs_solve
from .linops import ConvStage, FilterBank, difference_bank, box_bank
from .prox import ConstraintSet, WeightedAnalysisOperator
from .splines import (ConcavePotential, HalfLineSpline, LinearSpline,
                      SigmoidSpline, project_nonincreasing)


@dataclass
class MmrModel:
    W: FilterBank
    B: FilterBank
    potentials: list          # one ConcavePotential per channel
    lam: float = 0.1

    def __post_init__(self):
        if len(self.potentials) != self.W.out_channels:
            raise ValueError("one potential per analysis channel required")
        if self.B.constraint != "positive-normalized":
            raise ValueError("B must be positive-normalized")


@dataclass
class SafiModel:
    W: FilterBank
    Wt: FilterBank
    Bt: FilterBank
    Bh: FilterBank
    phi1: list                # per-channel LinearSpline
    phi2: list
    phi3: list                # per-channel SigmoidSpline
    lam: float = 0.1


@dataclass
class SchemeTrace:
    residuals: list = field(default_factory=list)      # e_k per outer step
    objectives: list = field(default_factory=list)     # f(x_k), MMR only
    psnrs: list = field(default_factory=list)          # vs reference, if given
    iterate_norms: list = field(default_factory=list)  # ||x_{k+1}||_2
    fbs_iterations: list = field(default_factory=list)    # per outer step
    fbs_converged: list = field(default_factory=list)
    prox_iterations: list = field(default_factory=list)   # summed per step
    prox_unconverged: list = field(default_factory=list)  # prox calls at cap

    def record_solve(self, res):
        """Append the iteration counts and flags of one FBS solve."""
        self.fbs_iterations.append(res.iterations)
        self.fbs_converged.append(res.converged)
        self.prox_iterations.append(res.prox_iterations)
        self.prox_unconverged.append(res.prox_unconverged)


def mask_mmr(model, x):
    """Reweighting mask Lambda_c(x) = B_c^T psi'_c(B_c |W_c x|)."""
    s = np.abs(model.W.forward(x))
    # t >= 0 exactly (B has nonnegative taps and s >= 0), but a B wide enough
    # to run through FFT multipliers can leave -1e-17 where the exact value
    # is 0; the potentials are only defined on the nonnegative axis.
    t = np.maximum(model.B.forward(s), 0.0)
    p = np.empty_like(t)
    for c, pot in enumerate(model.potentials):
        p[c] = pot.derivative(t[c])
    return model.B.adjoint(p)


def mask_safi(model, x):
    """Learned mask Lambda~_c(x) = phi3_c(Bh_c phi2(Bt phi1(Wt x)))."""
    u = model.Wt.forward(x)
    a = np.empty_like(u)
    for c, phi in enumerate(model.phi1):
        a[c] = phi(u[c])
    u = model.Bt.forward(a)
    for c, phi in enumerate(model.phi2):
        a[c] = phi(u[c])
    u = model.Bh.forward(a)
    out = np.empty_like(u)
    for c, phi in enumerate(model.phi3):
        out[c] = phi(u[c])
    return out


def eval_objective(model, H, y, x):
    """f(x) = 0.5*||H x - y||^2 + lam * sum_c <1, psi_c(B_c |W_c x|)>."""
    x = np.asarray(x, dtype=np.float64)
    resid = H.forward(x) - np.asarray(y, dtype=np.float64)
    value = 0.5 * float(np.sum(resid ** 2))
    t = np.maximum(model.B.forward(np.abs(model.W.forward(x))), 0.0)
    for c, pot in enumerate(model.potentials):
        value += model.lam * float(np.sum(pot(t[c])))
    return value


def eval_majorization(model, H, y, x, x_anchor):
    """Tangent majorization g(x, x_anchor) of the objective at the anchor."""
    x = np.asarray(x, dtype=np.float64)
    resid = H.forward(x) - np.asarray(y, dtype=np.float64)
    value = 0.5 * float(np.sum(resid ** 2))
    s_anchor = np.abs(model.W.forward(x_anchor))
    t_anchor = np.maximum(model.B.forward(s_anchor), 0.0)
    for c, pot in enumerate(model.potentials):
        value += model.lam * float(np.sum(pot(t_anchor[c])))
    mask = mask_mmr(model, x_anchor)
    s = np.abs(model.W.forward(x))
    value += model.lam * float(np.sum(mask * (s - s_anchor)))
    return value


def _ones_mask(W, shape):
    return np.ones((W.out_channels,) + tuple(shape))


def _run_scheme(mask_fn, W, lam, H, y, cfg, X, x_init, reference, objective_fn):
    shape = _image_shape(H, y)
    if x_init is None:
        x = np.zeros(shape)
        mask = _ones_mask(W, shape)
    else:
        x = np.asarray(x_init, dtype=np.float64)
        mask = mask_fn(x)
    L = WeightedAnalysisOperator(W, mask)
    trace = SchemeTrace()
    dual = None
    for k in range(1, cfg.k_out + 1):
        res = fbs_solve(H, y, L, lam, x, k, cfg, X, warm_u=dual)
        x_next, dual = res.x, res.dual
        trace.record_solve(res)
        trace.residuals.append(relative_change(x_next, x))
        trace.iterate_norms.append(float(np.linalg.norm(x_next)))
        if objective_fn is not None:
            trace.objectives.append(objective_fn(x_next))
        if reference is not None:
            trace.psnrs.append(psnr(reference, x_next))
        L = WeightedAnalysisOperator(W, mask_fn(x_next))
        stop = (np.linalg.norm(x_next - x)
                < cfg.eps_out * np.linalg.norm(x))
        x = x_next
        if stop:
            break
    return x, trace


def _image_shape(H, y):
    if getattr(H, "kind", None) == "masked-dft":
        return (H.height, H.width)
    return np.asarray(y).shape


def run_mmr(model, H, y, cfg=None, X=None, x_init=None, reference=None):
    """Majorization-minimization loop (reweighted convex solves)."""
    cfg = cfg if cfg is not None else SolverConfig()
    X = X if X is not None else ConstraintSet.all_space()
    lam = cfg.lam if cfg.lam is not None else model.lam
    return _run_scheme(
        lambda x: mask_mmr(model, x), model.W, lam, H, y, cfg, X,
        x_init, reference, lambda x: eval_objective(model, H, y, x))


def run_safi(model, H, y, cfg=None, X=None, x_init=None, reference=None):
    """Solution-adaptive fixed-point loop with the learned mask generator."""
    cfg = cfg if cfg is not None else SolverConfig()
    X = X if X is not None else ConstraintSet.all_space()
    lam = cfg.lam if cfg.lam is not None else model.lam
    return _run_scheme(
        lambda x: mask_safi(model, x), model.W, lam, H, y, cfg, X,
        x_init, reference, None)


def run_cvx(model, H, y, cfg=None, X=None, x_init=None, reference=None):
    """Single non-adaptive convex solve (mask fixed at one)."""
    cfg = cfg if cfg is not None else SolverConfig()
    X = X if X is not None else ConstraintSet.all_space()
    lam = cfg.lam if cfg.lam is not None else model.lam
    shape = _image_shape(H, y)
    x = np.zeros(shape) if x_init is None else np.asarray(x_init, float)
    L = WeightedAnalysisOperator(model.W, _ones_mask(model.W, shape))
    res = fbs_solve(H, y, L, lam, x, 1, cfg, X)
    trace = SchemeTrace(residuals=[relative_change(res.x, x)])
    trace.record_solve(res)
    if reference is not None:
        trace.psnrs.append(psnr(reference, res.x))
    return res.x, trace


# -- analytic default models (stand-ins for trained parameter archives) -----

SIGMA_GRID_M = 20
SIGMA_GRID_DELTA = 0.05
PHI_GRID_M = 10
PHI_GRID_DELTA = 0.1


def default_tv_model(lam=0.1, eps0=0.1):
    """Iteratively reweighted TV: difference filters, box smoothing, and
    potentials sampled from 1/(1 + t/eps0)."""
    W = difference_bank()
    B = box_bank(2, size=3)
    grid = SIGMA_GRID_DELTA * np.arange(SIGMA_GRID_M + 1)
    d = project_nonincreasing(1.0 / (1.0 + grid / eps0))
    potentials = [
        ConcavePotential(HalfLineSpline(SIGMA_GRID_DELTA, d), r=1.0)
        for _ in range(2)
    ]
    return MmrModel(W=W, B=B, potentials=potentials, lam=lam)


def default_safi_model(lam=0.1, gain=2.0, sensitivity=4.0):
    """Edge-adaptive analytic mask generator on TV difference filters.

    The generator measures smoothed gradient activity and maps it through a
    decreasing spline and a sigmoid, so flat regions get masks near
    sigmoid(gain) and strong edges are penalized less.
    """
    W = difference_bank()
    Wt = difference_bank()
    Bt = box_bank(2, size=3)
    mix = np.full((2, 2, 1, 1), 0.5)
    Bh = FilterBank([ConvStage(mix, groups=1)])
    grid = PHI_GRID_DELTA * np.arange(-PHI_GRID_M, PHI_GRID_M + 1)
    phi1 = [LinearSpline(PHI_GRID_DELTA, np.abs(grid)) for _ in range(2)]
    phi2 = [LinearSpline(PHI_GRID_DELTA, grid) for _ in range(2)]
    phi3 = [
        SigmoidSpline(LinearSpline(PHI_GRID_DELTA,
                                   gain - sensitivity * np.abs(grid)))
        for _ in range(2)
    ]
    return SafiModel(W=W, Wt=Wt, Bt=Bt, Bh=Bh,
                     phi1=phi1, phi2=phi2, phi3=phi3, lam=lam)
