"""Proximal operator of gamma*||L.||_1 over a constraint set, via the dual.

The dual problem is solved with accelerated projected gradient ascent; the
primal is recovered as Proj_X{z - L^T u}.  Each dual iteration applies L
once and L^T once: by linearity, the adjoint of the momentum point is the
same combination of the adjoints of the last two iterates.  The solve stops
on a relative change of the primal iterate or, when certified, on a small
duality gap checked every _GAP_CHECK_INTERVAL iterations; either way also on
a change at the roundoff level of z - L^T u.  The dual iterate is returned
so that consecutive solves can be warm-started.

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

# A certified solve checks its duality gap (one L.forward) every this many
# iterations; checking every iteration took as many iterations and more time.
_GAP_CHECK_INTERVAL = 5


class ConstraintSet:
    """Feasible set: all of R^N or a component-wise box."""

    def __init__(self, lower=None, upper=None):
        if (lower is None) != (upper is None):
            raise ValueError("box needs both bounds")
        if lower is not None and not lower <= upper:
            raise ValueError(f"box bounds need lower <= upper, got "
                             f"lower={lower}, upper={upper}")
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


def momentum_next(k):
    """Momentum scalar t_{k+1} = (k+5)/3 (with t_1 = 1)."""
    if k < 1:
        raise ValueError("iteration index must be >= 1")
    return (k + 5.0) / 3.0


@dataclass
class ProxConfig:
    max_iters: int = 500
    epsilon: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and positive, "
                             f"got {self.epsilon}")


@dataclass
class ProxResult:
    x: np.ndarray
    dual: np.ndarray
    iterations: int
    converged: bool
    dual_adjoint: np.ndarray   # L^T dual, for a warm start with the same L
    gap: float                 # G/P at the last gap check; nan if unchecked


def dual_gradient(L, X, z, u):
    """Ascent direction of the dual function: L Proj_X{z - L^T u}."""
    return L.forward(X.project(z - L.adjoint(u)))


def duality_gap(L, gamma, z, x, u):
    """Duality gap G and primal value P of the prox at the pair (x, u).

    G = gamma*||L x||_1 - <u, L x> and P = 0.5*||x - z||^2 + gamma*||L x||_1,
    for one L.forward.  When x = Proj_X(z - L^T u) and |u| <= gamma, as for
    a ProxResult's x and dual, the dual value at u is P - G, so G >= 0 is
    the exact gap, both on all of R^N and on a box.
    """
    lx = L.forward(x)
    penalty = gamma * float(np.sum(np.abs(lx)))
    gap = penalty - float(np.vdot(u, lx))
    return gap, 0.5 * float(np.sum((x - z) ** 2)) + penalty


def _project_into(X, r):
    """r <- Proj_X(r), in place."""
    if not X.is_all_space:
        np.clip(r, X.lower, X.upper, out=r)


def prox_weighted_l1(z, L, gamma, X, cfg, warm_u=None, warm_adjoint=None,
                     certify=False):
    """argmin_{w in X} 0.5*||w - z||^2 + gamma*||L w||_1 plus its dual point.

    Accelerated projected gradient on the dual with steps clipped to
    [-gamma, gamma], momentum t_1 = 1, t_{k+1} = (k+5)/3, and stop rule
    ||x_{k+1} - x_k|| < eps * ||x_k||, or ||x_{k+1} - x_k|| at or below the
    roundoff floor _ROUNDOFF_FLOOR * eps_machine * ||z||.

    With certify, the relative-change rule is replaced by a certificate:
    every _GAP_CHECK_INTERVAL iterations, stop once the duality gap of the
    current pair is G <= eps * P (duality_gap, one L.forward).  The result's
    gap is G/P at the last check (nan when none was made).

    a_k = L^T u_k is carried across iterations, and the momentum point
    v_{k+1} = u_{k+1} + beta_k (u_{k+1} - u_k) gets its adjoint by
    linearity, a_{k+1} + beta_k (a_{k+1} - a_k).  One L and one L^T call
    per iteration; a_{k+1} is computed fresh from u_{k+1}, so no error
    builds up.  warm_adjoint, when given, must be L^T warm_u for this same
    L (the dual_adjoint of an earlier result); it saves the opening L^T.

    The iteration's own arrays are preallocated and updated in place; z,
    warm_u, warm_adjoint and the arrays of earlier results are only read.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite prox input")

    bound = L.norm_bound()
    if bound ** 2 < 1e-30:
        # L vanishes: the penalty is zero and the prox is the projection.
        x = X.project(z)
        return ProxResult(x, np.zeros_like(L.weights), 0, True,
                          np.zeros_like(z), np.nan)
    alpha = 1.0 / bound ** 2
    floor = _ROUNDOFF_FLOOR * np.finfo(np.float64).eps * np.linalg.norm(z)

    if warm_u is None:
        u = L.forward(z)
        a = L.adjoint(u)
    else:
        u = np.asarray(warm_u, dtype=np.float64)
        a = L.adjoint(u) if warm_adjoint is None else warm_adjoint
    # Preallocated iteration arrays.  u_next takes over the buffer of the
    # u before it, which is free once v is formed, except in the first
    # iteration: the u there may be warm_u.
    u_next, v = np.empty_like(u), np.empty_like(u)
    x, x_next, r, a_v, delta = (np.empty_like(z) for _ in range(5))
    np.subtract(z, a, out=x)
    _project_into(X, x)
    v[...] = u
    a_v[...] = a
    t, ratio = 1.0, np.nan
    for k in range(1, cfg.max_iters + 1):
        # v + alpha * dual_gradient(L, X, z, v), with L^T v already known.
        np.subtract(z, a_v, out=r)
        _project_into(X, r)
        np.multiply(L.forward(r), alpha, out=u_next)
        np.add(v, u_next, out=u_next)
        np.clip(u_next, -gamma, gamma, out=u_next)
        a_next = L.adjoint(u_next)
        t_next = momentum_next(k)
        beta = (t - 1.0) / t_next
        np.subtract(u_next, u, out=v)
        np.multiply(v, beta, out=v)
        np.add(u_next, v, out=v)
        np.subtract(a_next, a, out=a_v)
        np.multiply(a_v, beta, out=a_v)
        np.add(a_next, a_v, out=a_v)
        np.subtract(z, a_next, out=x_next)
        _project_into(X, x_next)
        np.subtract(x_next, x, out=delta)
        diff = np.linalg.norm(delta)
        done = diff <= floor
        if not certify:
            done = done or diff < cfg.epsilon * np.linalg.norm(x)
        elif k % _GAP_CHECK_INTERVAL == 0:
            gap, primal = duality_gap(L, gamma, z, x_next, u_next)
            ratio = gap / primal if primal > 0.0 else 0.0
            done = done or gap <= cfg.epsilon * primal
        if done or k == cfg.max_iters:
            return ProxResult(x_next, u_next, k, bool(done), a_next, ratio)
        u, u_next = u_next, (np.empty_like(u) if k == 1 else u)
        a, t = a_next, t_next
        x, x_next = x_next, x
