"""Proximal operator of gamma*||L.||_1 over a constraint set, via the dual.

The dual problem is solved with accelerated projected gradient ascent; the
primal is recovered as Proj_X{z - L^T u}.  Each dual iteration applies L
once and L^T once: by linearity, the adjoint of the momentum point is the
same combination of the adjoints of the last two iterates.  The momentum is
restarted whenever it carries the iterate against the ascent step, the
gradient test of O'Donoghue & Candes, "Adaptive restart for accelerated
gradient schemes" (Found. Comput. Math., 2015); on tight solves this stops
the oscillation that momentum alone sets off.  Every solve is
certified: every _GAP_CHECK_INTERVAL iterations it forms its primal point
and stops once the duality gap there is small relative to the primal value;
a solve that never gets there ends unconverged at its budget.  The dual
iterate is returned so that consecutive solves can be warm-started; a warm
start passes only the dual, and the solve opens with one L^T of it, as a
cold start does.

The dual step is 1/B^2 for a certified upper bound B >= ||L||_2, which is
what the accelerated projected gradient method needs to converge.  It
scales the image-sized point before L is applied, so L never sees a point
of size ||L||^2 ||z||.
"""

from dataclasses import dataclass

import numpy as np

# Unused here; perfbench/tracer.py wraps this name in this module.
from .linops import operator_norm  # noqa: F401

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
    restarts: int       # iterations whose momentum was restarted


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
    [-gamma, gamma] and momentum t_1 = 1, t_{k+1} = (k+5)/3.  The ascent
    step is s_k = L(alpha * Proj_X(z - L^T v_k)) with alpha = 1/B^2: the
    step size multiplies the image before L.forward, not the dual-sized
    result after it.  The momentum restarts adaptively (O'Donoghue & Candes
    2015): when s_k and the move u_{k+1} - u_k have <s_k, u_{k+1} - u_k> < 0,
    the momentum point is v_{k+1} = u_{k+1}, and the schedule starts again
    from t = 1 and index 1.  A plain projected step from a point with
    |u| <= gamma never fails this test, so no two restarts come back to
    back.  The result counts the restarts.

    Every _GAP_CHECK_INTERVAL iterations the solve forms its primal point
    x_{k+1} = Proj_X(z - a_{k+1}) and checks it: it has converged once the
    duality gap at (x_{k+1}, u_{k+1}) is G <= eps * P (duality_gap, one
    L.forward), and on no other condition: an eps below roundoff certifies
    only where G rounds to <= 0.  The solve stops unconverged after
    cfg.max_iters iterations, forming x there too; on no other iteration is
    x formed.  The result's gap is G/P at the last check, nan when the
    budget ends before the first.

    a_k = L^T u_k is carried across iterations, and the momentum point
    v_{k+1} = u_{k+1} + beta_k (u_{k+1} - u_k) gets its adjoint by
    linearity, a_{k+1} + beta_k (a_{k+1} - a_k).  One L and one L^T call
    per iteration and one L per gap check, plus one to open with a = L^T u,
    where u is L z on a cold start and a copy of warm_u on a warm one;
    a_{k+1} is computed fresh from u_{k+1}, so no error builds up.  The
    restart test costs one vdot.

    Each solve owns six arrays, made when it starts: on the dual side u and
    v, with the ascent step's L applied into L.workspace; on the primal
    side a = L^T u, a_v = L^T v, x and the gap check's work.  The iteration
    makes no other array, and the bank's stencil stages read their input in
    place; only numpy's iteration buffers for strided reads come and go per
    call.  u_{k+1} is formed in v's buffer and v_{k+1} in u's, which first
    holds u_{k+1} - u_k for the restart test; likewise a_{k+1} in a_v's and
    a_{v,k+1} in a's, which first holds a_{k+1} - a_k for the momentum.
    a_v's buffer first holds alpha * Proj_X(z - a_v), the point L.forward
    reads; work holds the gap check's x - z.  z and warm_u are only read,
    and the result's arrays are buffers of this solve alone.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    z = np.asarray(z, dtype=np.float64)
    # The gap check squares ||x - z||, so ||z||^2 must be a float.
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.vdot(z, z)):
            raise ValueError("prox input is non-finite or its squared norm "
                             "overflows")

    bound = L.norm_bound()
    if bound ** 2 < 1e-30:
        # L vanishes: the penalty is zero and the prox is the projection.
        x = z.copy()
        _project_into(X, x)
        return ProxResult(x, np.zeros_like(L.weights), 0, True, np.nan, 0)
    alpha = 1.0 / bound ** 2

    u = L.forward(z) if warm_u is None else np.array(warm_u, dtype=np.float64)
    a = L.adjoint(u)
    v, a_v = u.copy(), a.copy()
    x, work = np.empty_like(z), np.empty_like(z)
    step = L.workspace
    t, j, restarts, ratio = 1.0, 1, 0, np.nan
    for k in range(1, cfg.max_iters + 1):
        # u_{k+1} = clip(v + s) for the step s = L(alpha * Proj_X(z - L^T v)),
        # in v's buffer; alpha * Proj_X(z - L^T v) is formed in a_v's, which
        # a_{k+1} takes next.
        np.subtract(z, a_v, out=a_v)
        _project_into(X, a_v)
        L.forward(np.multiply(a_v, alpha, out=a_v), out=step)
        np.add(v, step, out=v)
        u_next = np.clip(v, -gamma, gamma, out=v)
        # u_{k+1} - u_k in u's buffer, read against s before L^T overwrites
        # it.  A negative product means the momentum has carried u against
        # the ascent direction: beta = 0 then restarts it, v_{k+1} = u_{k+1},
        # with t and momentum_next's index j back at 1.
        np.subtract(u_next, u, out=u)
        if np.vdot(step, u) < 0.0:
            t, j, beta = 1.0, 1, 0.0
            restarts += 1
        else:
            t_next = momentum_next(j)
            t, j, beta = t_next, j + 1, (t - 1.0) / t_next
        # v_{k+1} in u's buffer, then a_{k+1} in a_v's and a_{v,k+1} in a's,
        # which first holds a_{k+1} - a_k.
        np.multiply(u, beta, out=u)
        np.add(u_next, u, out=u)
        a_next = L.adjoint(u_next, out=a_v)
        np.subtract(a_next, a, out=a)
        np.multiply(a, beta, out=a)
        np.add(a_next, a, out=a)
        u, v, a, a_v = u_next, u, a_next, a
        check = k % _GAP_CHECK_INTERVAL == 0
        if check or k == cfg.max_iters:
            np.subtract(z, a, out=x)
            _project_into(X, x)
            if check:
                gap, primal = duality_gap(L, gamma, z, x, u, work)
                ratio = gap / primal if primal > 0.0 else 0.0
            done = check and gap <= cfg.epsilon * primal
            if done or k == cfg.max_iters:
                return ProxResult(x, u, k, done, ratio, restarts)
