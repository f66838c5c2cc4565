"""Reweighting schemes: mask generators, objective, and the outer loops.

Two mask families drive the reweighted l1-analysis solves.  The
majorization-minimization masks come from concave-potential derivatives,
Lambda_c(x) = B_c^T psi'_c(B_c |W_c x|), and yield provable monotone descent
of an explicit objective.  The solution-adaptive masks come from a small
convolutional generator with sigmoid output, Lambda~_c(x) =
phi3_c(Bh_c phi2(Bt phi1(Wt x))), and the reconstruction is a fixed point of
the induced update operator.
"""

from dataclasses import dataclass, field, replace

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
        if not self.B.in_channels == self.B.out_channels == self.W.out_channels:
            raise ValueError(
                f"B must map W's {self.W.out_channels} channels to as many; "
                f"it maps {self.B.in_channels} to {self.B.out_channels}")


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

    def __post_init__(self):
        # The mask generator runs Wt, phi1, Bt, phi2, Bh, phi3 in turn, and
        # its last layer weighs W's channels.
        if self.Wt.in_channels != self.W.in_channels:
            raise ValueError(
                f"Wt takes {self.Wt.in_channels} input channels, W takes "
                f"{self.W.in_channels}")
        for names, counts in (
                ("Wt -> phi1 -> Bt", (self.Wt.out_channels, len(self.phi1),
                                      self.Bt.in_channels)),
                ("Bt -> phi2 -> Bh", (self.Bt.out_channels, len(self.phi2),
                                      self.Bh.in_channels)),
                ("Bh -> phi3 -> W", (self.Bh.out_channels, len(self.phi3),
                                     self.W.out_channels))):
            if len(set(counts)) != 1:
                raise ValueError(f"SAFI channel counts do not chain along "
                                 f"{names}: {', '.join(map(str, counts))}")


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
    prox_gaps: list = field(default_factory=list)         # G/P of last prox

    def record_solve(self, res):
        """Append the iteration counts and flags of one FBS solve."""
        self.fbs_iterations.append(res.iterations)
        self.fbs_converged.append(res.converged)
        self.prox_iterations.append(res.prox_iterations)
        self.prox_unconverged.append(res.prox_unconverged)
        self.prox_gaps.append(res.prox_gap)


def _per_channel(fns, u):
    """u_c <- fn_c(u_c) for each channel c of u, in place; returns u."""
    for c, fn in enumerate(fns):
        u[c] = fn(u[c])
    return u


def _activity(model, x):
    """s = |W x| and t = max(B s, 0), the argument of the MMR potentials."""
    s = model.W.forward(x)
    np.abs(s, out=s)
    # t >= 0 exactly (B has nonnegative taps and s >= 0), but a B wide enough
    # to run through FFT multipliers can leave -1e-17 where the exact value
    # is 0; the potentials are only defined on the nonnegative axis.
    t = model.B.forward(s)
    np.maximum(t, 0.0, out=t)
    return s, t


def _add_penalty(value, model, t):
    """value + lam * sum_c <1, psi_c(t_c)>, added one channel at a time."""
    for psi, t_c in zip(model.potentials, t):
        value += model.lam * float(np.sum(psi(t_c)))
    return value


def _data_fit(H, y, x):
    """0.5*||H x - y||^2."""
    resid = H.forward(x) - np.asarray(y, dtype=np.float64)
    return 0.5 * float(np.sum(resid ** 2))


def mask_mmr(model, x):
    """Reweighting mask Lambda_c(x) = B_c^T psi'_c(B_c |W_c x|)."""
    t = _activity(model, x)[1]
    derivatives = [pot.derivative for pot in model.potentials]
    return model.B.adjoint(_per_channel(derivatives, t))


def mask_safi(model, x):
    """Learned mask Lambda~_c(x) = phi3_c(Bh_c phi2(Bt phi1(Wt x)))."""
    a = _per_channel(model.phi1, model.Wt.forward(x))
    a = _per_channel(model.phi2, model.Bt.forward(a))
    return _per_channel(model.phi3, model.Bh.forward(a))


def eval_objective(model, H, y, x):
    """f(x) = 0.5*||H x - y||^2 + lam * sum_c <1, psi_c(B_c |W_c x|)>."""
    x = np.asarray(x, dtype=np.float64)
    t = _activity(model, x)[1]
    return _add_penalty(_data_fit(H, y, x), model, t)


def eval_majorization(model, H, y, x, x_anchor):
    """Tangent majorization g(x, x_anchor) of the objective at the anchor."""
    x = np.asarray(x, dtype=np.float64)
    s_anchor, t_anchor = _activity(model, x_anchor)
    value = _add_penalty(_data_fit(H, y, x), model, t_anchor)
    mask = mask_mmr(model, x_anchor)
    s = np.abs(model.W.forward(x))
    value += model.lam * float(np.sum(mask * (s - s_anchor)))
    return value


def _run_scheme(model, H, y, cfg, X, x_init, reference, mask_fn=None,
                objective_fn=None):
    """Outer loop shared by every scheme: one reweighted convex solve per step.

    lambda is resolved once: cfg.lam, when set, replaces model.lam, and the
    FBS solves, mask_fn(model, x) and objective_fn(model, H, y, x) all see
    the same model.  Each step takes its mask from the current iterate,
    except a cold first step (no x_init), which uses ones.  Without a mask
    generator the mask stays at one and a single solve is run.  The loop
    stops after cfg.k_out steps, or once the step's relative change
    e_k = ||x_{k+1} - x_k|| / ||x_k|| falls below cfg.eps_out.  The image
    shape is that of x_init, or of H^T y on a cold start.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    X = X if X is not None else ConstraintSet.all_space()
    if cfg.lam is not None:
        model = replace(model, lam=cfg.lam)
    if x_init is None:
        x = np.zeros(H.adjoint(y).shape)
    else:
        x = np.asarray(x_init, dtype=np.float64)
    # The result's array is made before any solve and filled at the end, so
    # that a result the caller keeps does not sit above the solves' freed
    # temporaries and stop the allocator from returning them to the system.
    # A loop that kept the results of 36 runs denoising 256x256 images
    # ended at 53 MB resident (peak 65.5 MB) this way, and at 65 MB (peak
    # 68.7 MB) when it returned the last iterate's array.
    result = np.empty(x.shape)
    k_out = cfg.k_out if mask_fn is not None else 1
    trace = SchemeTrace()
    dual = None
    for k in range(1, k_out + 1):
        if mask_fn is None or (k == 1 and x_init is None):
            mask = np.ones((model.W.out_channels,) + x.shape)
        else:
            mask = mask_fn(model, x)
        L = WeightedAnalysisOperator(model.W, mask)
        res = fbs_solve(H, y, L, model.lam, x, k, cfg, X, warm_u=dual)
        x_next, dual = res.x, res.dual
        trace.record_solve(res)
        trace.residuals.append(relative_change(x_next, x))
        trace.iterate_norms.append(float(np.linalg.norm(x_next)))
        if objective_fn is not None:
            trace.objectives.append(objective_fn(model, H, y, x_next))
        if reference is not None:
            trace.psnrs.append(psnr(reference, x_next))
        x = x_next
        if trace.residuals[-1] < cfg.eps_out:
            break
    np.copyto(result, x)
    return result, trace


def run_mmr(model, H, y, cfg=None, X=None, x_init=None, reference=None):
    """Majorization-minimization loop (reweighted convex solves)."""
    return _run_scheme(model, H, y, cfg, X, x_init, reference,
                       mask_mmr, eval_objective)


def run_safi(model, H, y, cfg=None, X=None, x_init=None, reference=None):
    """Solution-adaptive fixed-point loop with the learned mask generator."""
    return _run_scheme(model, H, y, cfg, X, x_init, reference, mask_safi)


def run_cvx(model, H, y, cfg=None, X=None, x_init=None, reference=None):
    """Single non-adaptive convex solve (mask fixed at one)."""
    return _run_scheme(model, H, y, cfg, X, x_init, reference)


# -- analytic default models (stand-ins for trained parameter archives) -----

SIGMA_GRID_M = 20
SIGMA_GRID_DELTA = 0.05
PHI_GRID_M = 10
PHI_GRID_DELTA = 0.1
TV_EPS0 = 0.1             # scale of the default TV potentials
SAFI_GAIN = 2.0           # phi3 logit at zero gradient activity
SAFI_SENSITIVITY = 4.0    # phi3 logit decrease per unit activity


def default_tv_model(lam=0.1):
    """Iteratively reweighted TV: difference filters, box smoothing, and
    potentials sampled from 1/(1 + t/TV_EPS0)."""
    W = difference_bank()
    B = box_bank(2, size=3)
    grid = SIGMA_GRID_DELTA * np.arange(SIGMA_GRID_M + 1)
    d = project_nonincreasing(1.0 / (1.0 + grid / TV_EPS0))
    potentials = [
        ConcavePotential(HalfLineSpline(SIGMA_GRID_DELTA, d), r=1.0)
        for _ in range(2)
    ]
    return MmrModel(W=W, B=B, potentials=potentials, lam=lam)


def default_safi_model(lam=0.1):
    """Edge-adaptive analytic mask generator on TV difference filters.

    The generator measures smoothed gradient activity and maps it through a
    decreasing spline and a sigmoid, so flat regions get masks near
    sigmoid(SAFI_GAIN) and strong edges are penalized less.
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
        SigmoidSpline(LinearSpline(
            PHI_GRID_DELTA, SAFI_GAIN - SAFI_SENSITIVITY * np.abs(grid)))
        for _ in range(2)
    ]
    return SafiModel(W=W, Wt=Wt, Bt=Bt, Bh=Bh,
                     phi1=phi1, phi2=phi2, phi3=phi3, lam=lam)
