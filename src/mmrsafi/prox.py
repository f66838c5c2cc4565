"""Proximal operator of gamma*||L.||_1 over a constraint set, via the dual.

The dual problem is solved with accelerated projected gradient ascent; the
primal is recovered as Proj_X{z - L^T u}.  Each dual iteration applies L
once and L^T once: by linearity, the adjoint of the momentum point is the
same combination of the adjoints of the last two iterates.  Every solve is
certified: it stops once the duality gap, checked every _GAP_CHECK_INTERVAL
iterations, is small relative to the primal value, or on a change at the
roundoff level of z - L^T u.  The dual iterate is returned so that
consecutive solves can be warm-started; a warm start passes only the dual,
and the solve opens with one L^T of it, as a cold start does.

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

# A solve checks its duality gap (one L.forward) every this many iterations;
# checking every iteration took as many iterations and more time.
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
        if not np.all(np.isfinite(weights)):
            raise ValueError("mask weights must be finite")
        if np.any(weights < -1e-9):
            raise ValueError("mask weights must be nonnegative")
        self.bank = bank
        self.weights = weights
        # Scratch shaped like the weights: adjoint forms weights * u here.
        # Any caller may use it between calls; its contents are not kept.
        self.workspace = np.empty_like(weights)
        self._norm_bound = None

    def forward(self, x, out=None):
        """L x; written into out (shaped like the weights) when given."""
        out = self.bank.forward(x, out=out)
        return np.multiply(self.weights, out, out=out)

    def adjoint(self, u, out=None):
        """L^T u; written into out (shaped like an image) when given.  u may
        be the workspace."""
        work = np.multiply(self.weights, u, out=self.workspace)
        return self.bank.adjoint(work, out=out)

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
    gap: float          # G/P at the last gap check; nan if unchecked


def dual_gradient(L, X, z, u):
    """Ascent direction of the dual function: L Proj_X{z - L^T u}."""
    return L.forward(X.project(z - L.adjoint(u)))


def duality_gap(L, gamma, z, x, u, work=None):
    """Duality gap G and primal value P of the prox at the pair (x, u).

    G = gamma*||L x||_1 - <u, L x> and P = 0.5*||x - z||^2 + gamma*||L x||_1,
    for one L.forward.  When x = Proj_X(z - L^T u) and |u| <= gamma, as for
    a ProxResult's x and dual, the dual value at u is P - G, so G >= 0 is
    the exact gap, both on all of R^N and on a box.

    L x is formed in L.workspace, and x - z in work when one is given (an
    array shaped like x that is overwritten); nothing else is written.
    """
    lx = L.forward(x, out=L.workspace)
    inner = float(np.vdot(u, lx))
    penalty = gamma * float(np.sum(np.abs(lx, out=lx)))
    diff = np.subtract(x, z, out=work)
    distance = float(np.sum(np.square(diff, out=diff)))
    return penalty - inner, 0.5 * distance + penalty


def _project_into(X, r):
    """r <- Proj_X(r), in place."""
    if not X.is_all_space:
        np.clip(r, X.lower, X.upper, out=r)


def prox_weighted_l1(z, L, gamma, X, cfg, warm_u=None):
    """argmin_{w in X} 0.5*||w - z||^2 + gamma*||L w||_1 plus its dual point.

    Accelerated projected gradient on the dual with steps clipped to
    [-gamma, gamma] and momentum t_1 = 1, t_{k+1} = (k+5)/3.  The solve has
    converged once the duality gap, checked every _GAP_CHECK_INTERVAL
    iterations (duality_gap, one L.forward), is G <= eps * P, or once
    ||x_{k+1} - x_k|| is at or below the roundoff floor
    _ROUNDOFF_FLOOR * eps_machine * ||z||; it stops unconverged after
    cfg.max_iters iterations.  The result's gap is G/P at the last check.

    a_k = L^T u_k is carried across iterations, and the momentum point
    v_{k+1} = u_{k+1} + beta_k (u_{k+1} - u_k) gets its adjoint by
    linearity, a_{k+1} + beta_k (a_{k+1} - a_k).  One L and one L^T call
    per iteration and one L per gap check, plus one to open with a = L^T u,
    where u is L z on a cold start and a copy of warm_u on a warm one;
    a_{k+1} is computed fresh from u_{k+1}, so no error builds up.

    Each solve owns six arrays, made when it starts: on the dual side u and
    v, with the ascent step's L applied into L.workspace; on the primal
    side a = L^T u, a_v = L^T v, x and x_next.  The iteration makes no
    other array, and the bank's stencil stages read their input in place;
    only numpy's iteration buffers for strided reads come and go per call.
    u_{k+1} is formed in v's buffer and v_{k+1} in u's, likewise a_{k+1}
    in a_v's and a_{v,k+1} in a's; a_v's buffer first holds
    Proj_X(z - a_v), and x's the change x_next - x, then the gap check's
    x_next - z.  z and warm_u are only read, and the result's arrays are
    buffers of this solve alone.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite prox input")

    bound = L.norm_bound()
    if bound ** 2 < 1e-30:
        # L vanishes: the penalty is zero and the prox is the projection.
        x = z.copy()
        _project_into(X, x)
        return ProxResult(x, np.zeros_like(L.weights), 0, True, np.nan)
    alpha = 1.0 / bound ** 2
    floor = _ROUNDOFF_FLOOR * np.finfo(np.float64).eps * np.linalg.norm(z)

    u = L.forward(z) if warm_u is None else np.array(warm_u, dtype=np.float64)
    a = L.adjoint(u)
    v, a_v = u.copy(), a.copy()
    x, x_next = np.subtract(z, a), np.empty_like(z)
    _project_into(X, x)
    lr = L.workspace
    t, ratio = 1.0, np.nan
    for k in range(1, cfg.max_iters + 1):
        # u_{k+1} = clip(v + alpha * L Proj_X(z - L^T v)), in v's buffer;
        # Proj_X(z - L^T v) is formed in a_v's, which a_{k+1} takes next.
        np.subtract(z, a_v, out=a_v)
        _project_into(X, a_v)
        np.multiply(L.forward(a_v, out=lr), alpha, out=lr)
        np.add(v, lr, out=v)
        u_next = np.clip(v, -gamma, gamma, out=v)
        a_next = L.adjoint(u_next, out=a_v)
        t_next = momentum_next(k)
        beta = (t - 1.0) / t_next
        # v_{k+1} in u's buffer, and its adjoint in a's.
        np.subtract(u_next, u, out=u)
        np.multiply(u, beta, out=u)
        np.add(u_next, u, out=u)
        np.subtract(a_next, a, out=a)
        np.multiply(a, beta, out=a)
        np.add(a_next, a, out=a)
        u, v, a, a_v, t = u_next, u, a_next, a, t_next
        np.subtract(z, a, out=x_next)
        _project_into(X, x_next)
        # x_k is no longer needed: its buffer takes the change.
        done = np.linalg.norm(np.subtract(x_next, x, out=x)) <= floor
        if k % _GAP_CHECK_INTERVAL == 0:
            gap, primal = duality_gap(L, gamma, z, x_next, u, x)
            ratio = gap / primal if primal > 0.0 else 0.0
            done = done or gap <= cfg.epsilon * primal
        if done or k == cfg.max_iters:
            return ProxResult(x_next, u, k, bool(done), ratio)
        x, x_next = x_next, x
