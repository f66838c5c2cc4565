"""Forward-backward splitting for one reweighted analysis problem.

Solves min_{x in X} 0.5*||H x - y||^2 + lam*||L x||_1 with accelerated
proximal-gradient steps; the prox is computed by the dual solver.  Includes
the dynamic tolerance schedules that loosen inner solves early on.
"""

from dataclasses import dataclass

import numpy as np

# Unused here; perfbench/tracer.py wraps this name in this module.
from .linops import operator_norm  # noqa: F401
from .prox import ProxConfig, ProxResult, momentum_next, prox_weighted_l1

# The identity path certifies its one prox at G <= this * eps_fbs * P.
# At 25 a 256x256 denoise runs about as many dual iterations as a stop on
# a relative primal change below eps_fbs did, and every solve is certified.
_IDENTITY_GAP_FACTOR = 25.0


class NumericalError(RuntimeError):
    """Raised when a solve produces non-finite iterates."""


@dataclass
class SolverConfig:
    k_out: int = 10
    k_fbs: int = 1000
    k_prox: int = ProxConfig.max_iters
    eps_out: float = 1e-5
    lam: float = None        # replaces model.lam when set
    eps_fbs: float = None    # fixed FBS tolerance; None follows the schedule
    eps_prox: float = None   # fixed prox tolerance; None follows the schedule

    def __post_init__(self):
        if min(self.k_out, self.k_fbs, self.k_prox) < 1:
            raise ValueError("solver budgets must be positive")
        for name in ("eps_out", "eps_fbs", "eps_prox"):
            eps = getattr(self, name)
            if eps is not None and not 0 < eps < np.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {eps}")


@dataclass
class FbsResult:
    x: np.ndarray
    dual: np.ndarray
    iterations: int
    converged: bool
    prox_iterations: int     # dual iterations summed over the prox calls
    prox_unconverged: int    # prox calls that hit their budget
    prox_gap: float          # G/P of the last prox; nan if it was unchecked
    prox_restarts: int       # dual momentum restarts summed over the calls


def tol_fbs(k_out):
    """Outer-iteration-dependent FBS tolerance."""
    if k_out < 1:
        raise ValueError("outer index must be >= 1")
    if k_out <= 5:
        return 1e-3 * 0.01 ** (k_out / 5.0)
    return 1e-5


def tol_prox(k_fbs, eps_fbs):
    """Prox tolerance inside FBS iteration k_fbs (general H)."""
    if k_fbs < 1:
        raise ValueError("FBS iteration index must be >= 1")
    if k_fbs <= 50:
        return 3.0 * eps_fbs * (1.0 / 9.0) ** (k_fbs / 50.0)
    return eps_fbs / 3.0


def _step_size(H):
    """Gradient step 1/||H||^2 from the operator's norm."""
    if H.norm == 0.0:
        raise ValueError("zero forward operator")
    return 1.0 / H.norm ** 2


def _prox_objective(L, gamma, z, x):
    """P(x) = 0.5*||x - z||^2 + gamma*||L x||_1, formed in L.workspace with
    one L.forward: |L x| there, then x - z in its first x.size entries."""
    lx = L.forward(x, out=L.workspace)
    penalty = gamma * float(np.sum(np.abs(lx, out=lx)))
    diff = np.subtract(x, z, out=lx.reshape(-1)[:x.size].reshape(x.shape))
    return 0.5 * float(np.vdot(diff, diff)) + penalty


def _backward(z, L, gamma, X, cfg, eps_prox, warm_u, ceiling=np.inf):
    """Proj_X(z) when gamma = 0, else the certified prox of gamma*||L.||_1
    over X at z, warm-started from warm_u; its x must be finite."""
    if gamma == 0.0:
        pres = ProxResult(X.project(z), warm_u, 0, True, np.nan, 0)
    else:
        pres = prox_weighted_l1(
            z, L, gamma, X, ProxConfig(max_iters=cfg.k_prox, epsilon=eps_prox),
            warm_u=warm_u, ceiling=ceiling)
    if not np.all(np.isfinite(pres.x)):
        raise NumericalError("non-finite iterate in FBS")
    return pres


def fbs_solve(H, y, L, lam, x_init, k_out, cfg, X, warm_u=None):
    """Accelerated proximal gradient for one reweighted convex problem.

    When H^T H = I (H.normal_is_identity) the step from any point is
    exactly H^T y, so the solve is one prox of H^T y, and of H it reads
    only adjoint.  Otherwise the gradient is H^T H x - H^T y, with H^T y
    formed once per solve, and the step is 1/H.norm^2.  Each prox call is
    warm-started from the dual of the previous one (or warm_u), and the
    dual of the last is returned for warm-starting the next solve.

    Accelerated FBS accumulates the errors of its inexact prox steps, so
    each prox is certified by its duality gap: its dual loop stops once
    G <= eps_prox * P, within k_prox dual iterations per FBS step.  A fixed
    cfg.eps_prox sets eps_prox; otherwise the multi-step path follows
    tol_prox, and the one-prox identity path, where no error accumulates,
    takes _IDENTITY_GAP_FACTOR * eps_fbs.  There the returned x is no worse
    than x_init when x_init lies in X.
    """
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    x = np.asarray(x_init, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite initial iterate")
    eps_fbs = cfg.eps_fbs if cfg.eps_fbs is not None else tol_fbs(k_out)
    if H.normal_is_identity:
        z = H.adjoint(y)
        eps_prox = (cfg.eps_prox if cfg.eps_prox is not None
                    else _IDENTITY_GAP_FACTOR * eps_fbs)
        ceiling = (_prox_objective(L, lam, z, x)
                   if lam > 0.0 and X.contains(x) else np.inf)
        pres = _backward(z, L, lam, X, cfg, eps_prox, warm_u, ceiling)
        return FbsResult(pres.x, pres.dual, 1, True, pres.iterations,
                         int(not pres.converged), pres.gap, pres.restarts)
    alpha = _step_size(H)

    x_tilde, t, dual = x, 1.0, warm_u
    h_adj_y = H.adjoint(y)
    prox_iters = prox_unconverged = prox_restarts = 0
    prox_gap = np.nan
    for k in range(1, cfg.k_fbs + 1):
        # z = x_tilde - alpha * (H^T H x_tilde - H^T y), formed in the
        # new array that H.normal returns.
        z = H.normal(x_tilde)
        np.subtract(z, h_adj_y, out=z)
        np.multiply(z, alpha, out=z)
        np.subtract(x_tilde, z, out=z)
        eps_prox = (cfg.eps_prox if cfg.eps_prox is not None
                    else tol_prox(k, eps_fbs))
        pres = _backward(z, L, alpha * lam, X, cfg, eps_prox, dual)
        x_next, dual = pres.x, pres.dual
        prox_iters += pres.iterations
        prox_unconverged += not pres.converged
        prox_restarts += pres.restarts
        prox_gap = pres.gap
        t_next = momentum_next(k)
        step = x_next - x
        x_tilde = x_next + ((t - 1.0) / t_next) * step
        diff = np.linalg.norm(step)
        done = diff < eps_fbs * np.linalg.norm(x) or diff == 0.0
        x, t = x_next, t_next
        if done:
            break
    return FbsResult(x, dual, k, bool(done), prox_iters, prox_unconverged,
                     prox_gap, prox_restarts)
