"""Forward-backward splitting for one reweighted analysis problem.

Solves min_{x in X} 0.5*||H x - y||^2 + lam*||L x||_1 with accelerated
proximal-gradient steps; the prox is computed by the dual solver.  Includes
the dynamic tolerance schedules that loosen inner solves early on.
"""

from dataclasses import dataclass

import numpy as np

# Unused here; perfbench/tracer.py wraps this name in this module.
from .linops import operator_norm  # noqa: F401
from .prox import ProxConfig, momentum_next, prox_weighted_l1

# The one-step identity path certifies its prox at G <= this * eps_fbs * P.
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


def tol_fbs(k_out):
    """Outer-iteration-dependent FBS tolerance."""
    if k_out < 1:
        raise ValueError("outer index must be >= 1")
    if k_out <= 5:
        return 1e-3 * 0.01 ** (k_out / 5.0)
    return 1e-5


def tol_prox(k_out, k_fbs, eps_fbs):
    """Prox tolerance inside FBS iteration k_fbs (general H)."""
    if k_out < 1 or k_fbs < 1:
        raise ValueError("iteration indices must be >= 1")
    if k_fbs <= 50:
        return 3.0 * eps_fbs * (1.0 / 9.0) ** (k_fbs / 50.0)
    return eps_fbs / 3.0


def _step_size(H):
    """Gradient step 1/||H||^2 from the operator's exact norm."""
    if H.norm == 0.0:
        raise ValueError("zero forward operator")
    return 1.0 / H.norm ** 2


def fbs_solve(H, y, L, lam, x_init, k_out, cfg, X, warm_u=None):
    """Accelerated proximal gradient for one reweighted convex problem.

    When H^T H = I (H.normal_is_identity) a single step returns
    prox_{lam*||L.||_1}(H^T y) exactly, so the loop is cut short.  The
    gradient is H^T H x - H^T y, with H^T y formed once per solve.  Each
    prox call is warm-started from the dual of the previous one (or warm_u),
    and the dual of the last is returned for warm-starting the next solve.

    Accelerated FBS accumulates the errors of its inexact prox steps, so
    each prox is certified by its duality gap: its dual loop stops once
    G <= eps_prox * P, within k_prox dual iterations per FBS step.  A fixed
    cfg.eps_prox sets eps_prox; otherwise the multi-step path follows
    tol_prox, and the one-step identity path, where no error accumulates,
    takes _IDENTITY_GAP_FACTOR * eps_fbs.
    """
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    x = np.asarray(x_init, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite initial iterate")
    alpha = _step_size(H)
    identity = H.normal_is_identity
    max_iter = 1 if identity else cfg.k_fbs
    eps_fbs = cfg.eps_fbs if cfg.eps_fbs is not None else tol_fbs(k_out)

    x_tilde = x
    t = 1.0
    dual = warm_u
    h_adj_y = H.adjoint(y)
    prox_iters = prox_unconverged = 0
    prox_gap = np.nan
    for k in range(1, max_iter + 1):
        # z = x_tilde - alpha * (H^T H x_tilde - H^T y), formed in the
        # new array that H.normal returns.
        z = H.normal(x_tilde)
        np.subtract(z, h_adj_y, out=z)
        np.multiply(z, alpha, out=z)
        np.subtract(x_tilde, z, out=z)
        if lam > 0.0:
            if cfg.eps_prox is not None:
                eps_prox = cfg.eps_prox
            elif identity:
                eps_prox = _IDENTITY_GAP_FACTOR * eps_fbs
            else:
                eps_prox = tol_prox(k_out, k, eps_fbs)
            pres = prox_weighted_l1(
                z, L, alpha * lam, X,
                ProxConfig(max_iters=cfg.k_prox, epsilon=eps_prox),
                warm_u=dual)
            x_next, dual = pres.x, pres.dual
            prox_iters += pres.iterations
            prox_unconverged += not pres.converged
            prox_gap = pres.gap
        else:
            x_next = X.project(z)
        if not np.all(np.isfinite(x_next)):
            raise NumericalError("non-finite iterate in FBS")
        t_next = momentum_next(k)
        step = x_next - x
        x_tilde = x_next + ((t - 1.0) / t_next) * step
        diff = np.linalg.norm(step)
        done = identity or diff < eps_fbs * np.linalg.norm(x) or diff == 0.0
        x, t = x_next, t_next
        if done:
            return FbsResult(x, dual, k, True, prox_iters, prox_unconverged,
                             prox_gap)
    return FbsResult(x, dual, max_iter, False, prox_iters, prox_unconverged,
                     prox_gap)
