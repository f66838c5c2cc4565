"""Forward-backward splitting for one reweighted analysis problem.

Solves min_{x in X} 0.5*||H x - y||^2 + lam*||L x||_1 with accelerated
proximal-gradient steps; the prox is computed by the dual solver.  Includes
the dynamic tolerance schedules that loosen inner solves early on.
"""

from dataclasses import dataclass

import numpy as np

# Unused here; perfbench/tracer.py wraps this name in this module.
from .linops import operator_norm  # noqa: F401
from .prox import ProxConfig, prox_weighted_l1


class NumericalError(RuntimeError):
    """Raised when a solve produces non-finite iterates."""


@dataclass
class SolverConfig:
    k_out: int = 10
    k_fbs: int = 1000
    k_prox: int = 500
    eps_out: float = 1e-5
    lam: float = None        # regularization strength; None defers to the model
    eps_fbs: float = None    # fixed FBS tolerance; None follows the schedule
    eps_prox: float = None   # fixed prox tolerance; None follows the schedule

    def __post_init__(self):
        if min(self.k_out, self.k_fbs, self.k_prox) < 1 or self.eps_out <= 0:
            raise ValueError("solver budgets and tolerance must be positive")


@dataclass
class FbsResult:
    x: np.ndarray
    dual: np.ndarray
    iterations: int
    converged: bool
    prox_iterations: int     # dual iterations summed over the prox calls
    prox_unconverged: int    # prox calls that hit their budget


def momentum_next(k):
    """Momentum scalar t_{k+1} = (k+5)/3 (with t_1 = 1)."""
    if k < 1:
        raise ValueError("iteration index must be >= 1")
    return (k + 5.0) / 3.0


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

    With H = Id a single step returns prox_{lam*||L.||_1}(y) exactly, so the
    loop is cut short.  The dual of the last prox call is returned for
    warm-starting the next solve.
    """
    x = np.asarray(x_init, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite initial iterate")
    alpha = _step_size(H)
    identity = getattr(H, "kind", None) == "identity"
    max_iter = 1 if identity else cfg.k_fbs
    eps_fbs = cfg.eps_fbs if cfg.eps_fbs is not None else tol_fbs(k_out)

    x_tilde = x
    t = 1.0
    dual = warm_u
    prox_iters = prox_unconverged = 0
    for k in range(1, max_iter + 1):
        grad = H.adjoint(H.forward(x_tilde) - y)
        z = x_tilde - alpha * grad
        if lam > 0.0:
            if cfg.eps_prox is not None:
                eps_prox = cfg.eps_prox
            elif identity:
                eps_prox = tol_fbs(k_out)
            else:
                eps_prox = tol_prox(k_out, k, eps_fbs)
            pres = prox_weighted_l1(
                z, L, alpha * lam, X,
                ProxConfig(max_iters=cfg.k_prox, epsilon=eps_prox),
                warm_u=dual)
            x_next, dual = pres.x, pres.dual
            prox_iters += pres.iterations
            prox_unconverged += not pres.converged
        else:
            x_next = X.project(z)
        if not np.all(np.isfinite(x_next)):
            raise NumericalError("non-finite iterate in FBS")
        t_next = momentum_next(k)
        x_tilde = x_next + ((t - 1.0) / t_next) * (x_next - x)
        diff = np.linalg.norm(x_next - x)
        done = identity or diff < eps_fbs * np.linalg.norm(x) or diff == 0.0
        x, t = x_next, t_next
        if done:
            return FbsResult(x, dual, k, True, prox_iters, prox_unconverged)
    return FbsResult(x, dual, max_iter, False, prox_iters, prox_unconverged)
