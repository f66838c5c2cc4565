"""Proximal operator of gamma*||L.||_1 over a constraint set, via the dual.

The dual problem is solved with accelerated projected gradient ascent; the
primal is recovered as Proj_X{z - L^T u}.  Each dual iteration applies L
once and L^T once: by linearity, the adjoint of the momentum point is the
same combination of the adjoints of the last two iterates.  The solve stops
on a relative change of the primal iterate, or on a change at the roundoff
level of z - L^T u.  The dual iterate is returned so that consecutive
solves can be warm-started.

The dual step is 1/B^2 for a certified upper bound B >= ||L||_2, which is
what the accelerated projected gradient method needs to converge.
"""

from dataclasses import dataclass

import numpy as np

# Unused here; perfbench/tracer.py wraps this name in this module.
from .linops import operator_norm  # noqa: F401

# Primal changes at most this many machine epsilons times ||z|| are below
# what z - L^T u resolves, so the stop rule treats them as no change.
_ROUNDOFF_FLOOR = 4.0


class ConstraintSet:
    """Feasible set: all of R^N or a component-wise box."""

    def __init__(self, lower=None, upper=None):
        if (lower is None) != (upper is None):
            raise ValueError("box needs both bounds")
        if lower is not None and lower > upper:
            raise ValueError("box lower bound exceeds upper bound")
        self.lower = lower
        self.upper = upper

    @classmethod
    def all_space(cls):
        return cls()

    @classmethod
    def box(cls, lower, upper):
        return cls(lower, upper)

    @property
    def is_all_space(self):
        return self.lower is None

    def project(self, z):
        z = np.asarray(z, dtype=np.float64)
        if self.is_all_space:
            return z
        return np.clip(z, self.lower, self.upper)


class WeightedAnalysisOperator:
    """L x = (weights_c * (W_c x))_c for an analysis bank W and mask weights."""

    def __init__(self, bank, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 3 or weights.shape[0] != bank.out_channels:
            raise ValueError("weights must be a (channels, h, w) stack")
        if np.any(weights < -1e-9):
            raise ValueError("mask weights must be nonnegative")
        self.bank = bank
        self.weights = weights
        self._norm_bound = None

    def forward(self, x):
        return self.weights * self.bank.forward(x)

    def adjoint(self, u):
        return self.bank.adjoint(self.weights * u)

    def norm_bound(self):
        """Upper bound max|weights| * ||W||_2 >= ||L||_2, cached.

        ||diag(weights) W|| <= ||diag(weights)|| ||W||, and the bank's norm
        is exact for periodic stages.
        """
        if self._norm_bound is None:
            self._norm_bound = (float(np.max(np.abs(self.weights)))
                                * self.bank.norm(self.weights.shape[1:]))
        return self._norm_bound


@dataclass
class ProxConfig:
    max_iters: int = 500
    epsilon: float = 1e-9
    alpha: float = None   # dual step; 1/L.norm_bound()^2 when None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class ProxResult:
    x: np.ndarray
    dual: np.ndarray
    iterations: int
    converged: bool


def dual_gradient(L, X, z, u):
    """Ascent direction of the dual function: L Proj_X{z - L^T u}."""
    return L.forward(X.project(z - L.adjoint(u)))


def prox_weighted_l1(z, L, gamma, X, cfg, warm_u=None):
    """argmin_{w in X} 0.5*||w - z||^2 + gamma*||L w||_1 plus its dual point.

    Accelerated projected gradient on the dual with steps clipped to
    [-gamma, gamma], momentum t_1 = 1, t_{k+1} = (k+5)/3, and stop rule
    ||x_{k+1} - x_k|| < eps * ||x_k||, or ||x_{k+1} - x_k|| at or below the
    roundoff floor _ROUNDOFF_FLOOR * eps_machine * ||z||.

    a_k = L^T u_k is carried across iterations, and the momentum point
    v_{k+1} = u_{k+1} + beta_k (u_{k+1} - u_k) gets its adjoint by
    linearity, a_{k+1} + beta_k (a_{k+1} - a_k).  One L and one L^T call
    per iteration; a_{k+1} is computed fresh from u_{k+1}, so no error
    builds up.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite prox input")

    bound = L.norm_bound()
    if cfg.alpha is not None:
        alpha = cfg.alpha
    elif bound ** 2 < 1e-30:
        # L vanishes: the penalty is zero and the prox is the projection.
        x = X.project(z)
        return ProxResult(x, np.zeros_like(L.weights), 0, True)
    else:
        alpha = 1.0 / bound ** 2
    floor = _ROUNDOFF_FLOOR * np.finfo(np.float64).eps * np.linalg.norm(z)

    u = L.forward(z) if warm_u is None else np.asarray(warm_u, dtype=np.float64)
    a = L.adjoint(u)
    v, a_v = u, a
    x = X.project(z - a)
    t = 1.0
    for k in range(1, cfg.max_iters + 1):
        # v + alpha * dual_gradient(L, X, z, v), with L^T v already known.
        u_next = np.clip(v + alpha * L.forward(X.project(z - a_v)),
                         -gamma, gamma)
        a_next = L.adjoint(u_next)
        t_next = (k + 5.0) / 3.0
        beta = (t - 1.0) / t_next
        v = u_next + beta * (u_next - u)
        a_v = a_next + beta * (a_next - a)
        x_next = X.project(z - a_next)
        diff = np.linalg.norm(x_next - x)
        done = diff < cfg.epsilon * np.linalg.norm(x) or diff <= floor
        u, a, t, x = u_next, a_next, t_next, x_next
        if done:
            return ProxResult(x, u, k, True)
    return ProxResult(x, u, cfg.max_iters, False)
