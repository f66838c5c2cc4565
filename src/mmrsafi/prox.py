"""Proximal operator of gamma*||L.||_1 over a constraint set, via the dual.

The dual problem is solved with accelerated projected gradient ascent; the
primal is recovered as Proj_X{z - L^T v} at a dual point v.  Each dual
iteration applies L once and L^T once: by linearity, the adjoint of the
momentum point is the same combination of the adjoints of the last two
iterates.  The momentum is restarted whenever it carries the iterate
against the ascent step, the gradient test of O'Donoghue & Candes,
"Adaptive restart for accelerated gradient schemes" (Found. Comput.
Math., 2015); on tight solves this stops the oscillation that momentum
alone sets off.  Every solve is certified: every _GAP_CHECK_INTERVAL
iterations it pairs the dual value at its iterate u_k with the primal value
at the point the next ascent step already maps through L (Beck & Teboulle,
"A fast dual proximal gradient algorithm for convex minimization and
applications", Oper. Res. Lett. 2014), so a check calls no bank; the
solve stops, returning that primal point, once the duality gap of the pair
is small relative to the primal value.  A solve that never gets there ends
unconverged at its budget.  The dual iterate is returned so that
consecutive solves can be warm-started; a warm start passes only the dual,
and the solve opens with one L^T of it, as a cold start does.

The dual step is 1/B^2 for a certified upper bound B >= ||L||_2, which is
what the accelerated projected gradient method needs to converge.  It
scales the image-sized point before L is applied, so L never sees a point
of size ||L||^2 ||z||.

A solve keeps its dual iterate u next to a = L^T u in one flat buffer,
[u | a], and the momentum point v next to L^T v in another, [v | a_v].
Once u_{k+1} and a_{k+1} are formed in the second, the next momentum point
and its adjoint are formed in the first, on small images by one multiply
and one add over the whole of it, and the two buffers swap roles.  On an
all-ones mask the solve calls the bank's methods directly.  With the image
x they are all the arrays a solve makes: a gap check works in x and in
a_v's part, free after the ascent step's L.  The dual returned is u's part.
"""

from dataclasses import dataclass

import numpy as np

# Unused here; perfbench/tracer.py wraps this name in this module.
from .linops import operator_norm  # noqa: F401

# A solve checks its duality gap every this many iterations.  A check calls
# no bank, but makes about as many elementwise passes as an iteration.
_GAP_CHECK_INTERVAL = 5

# On images of at most this many pixels the momentum step forms both halves
# of [v | a_v] with one multiply and one add over [u | a]; on larger ones it
# forms v's part right after the restart test, while u_{k+1} - u_k is still
# in cache, and a_v's after L^T, with two of each.  Per dual iteration on a
# unit mask (one thread of a 2-core Xeon with 2 MB of L2 per core, numpy
# 2.4), the single pair took 8% less time at 8x8, 32x32 and 128x128 and 2%
# less at 64x64, but 5% more at 256x256, where the iteration's arrays (4 MB)
# no longer fit in L2.
_MERGED_MOMENTUM_MAX_PIXELS = 128 * 128


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

    def contains(self, x):
        """True when every component of x lies in the set."""
        return self.is_all_space or (
            self.lower <= np.min(x) and np.max(x) <= self.upper)

    def project(self, z):
        z = np.asarray(z, dtype=np.float64)
        if self.is_all_space:
            return z
        return np.clip(z, self.lower, self.upper)


class WeightedAnalysisOperator:
    """L x = (weights_c * (W_c x))_c for an analysis bank W and mask weights.

    The weights are read at construction and must not change after it:
    norm_bound is cached from them, and unit, true when they are all
    exactly 1, says that L is the bank alone, as 1.0 * y is y bit for bit.
    forward and adjoint always apply the weights; on a unit mask the dual
    prox calls the bank's methods itself.
    """

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
        self.unit = bool(np.all(weights == 1.0))
        # Scratch shaped like the weights: a weighted adjoint forms
        # weights * u here.  Any caller may use it between calls; its
        # contents are not kept.
        self.workspace = np.empty_like(weights)
        self._norm_bound = None

    def forward(self, x, out=None):
        """L x; written into out (shaped like the weights) when given."""
        out = self.bank.forward(x, out=out)
        return np.multiply(self.weights, out, out=out)

    def adjoint(self, u, out=None):
        """L^T u; written into out (shaped like an image) when given.  u may
        be the workspace."""
        u = np.multiply(self.weights, u, out=self.workspace)
        return self.bank.adjoint(u, out=out)

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


def _project_into(X, r):
    """r <- Proj_X(r), in place."""
    if not X.is_all_space:
        r.clip(X.lower, X.upper, out=r)


def prox_weighted_l1(z, L, gamma, X, cfg, warm_u=None, ceiling=np.inf):
    """argmin_{w in X} 0.5*||w - z||^2 + gamma*||L w||_1 plus its dual point.

    Accelerated projected gradient on the dual with steps clipped to
    [-gamma, gamma] and momentum t_1 = 1, t_{k+1} = (k+5)/3.  The ascent
    step from v_k is s = L(alpha * x^) for x^ = Proj_X(z - L^T v_k) and
    alpha = 1/B^2: the step size multiplies the image before L.forward,
    not the dual-sized result after it.  The momentum restarts adaptively
    (O'Donoghue & Candes 2015): when s and the move u_{k+1} - u_k have
    <s, u_{k+1} - u_k> < 0, the momentum point is v_{k+1} = u_{k+1}, and
    the schedule starts again from t = 1 and index 1.  A plain projected
    step from a point with |u| <= gamma never fails this test, so no two
    restarts come back to back.  The result counts the restarts.

    Every _GAP_CHECK_INTERVAL iterations k the solve checks u_k against
    the primal point x^ of the next ascent step, whose L x^ = s / alpha
    that step forms anyway (Beck & Teboulle, Oper. Res. Lett. 2014, take
    the primal from the dual method's momentum point).  The dual value is
    D(u_k) = 0.5*||x_k - z||^2 + <a_k, x_k> at x_k = Proj_X(z - a_k), and
    the primal value P(x^) = 0.5*||x^ - z||^2 + gamma*||s||_1 / alpha, with
    ||s||_1 summed per channel and the channel sums added in order.  As
    x^ is in X and |u_k| <= gamma, G = P(x^) - D(u_k) >= 0 is a duality
    gap.  The solve has converged once G <= eps * P(x^) and
    P(x^) <= ceiling, and on no other condition: an eps below roundoff
    certifies only where G rounds to <= 0.  It then returns x^, u_k and k
    iterations, and the ascent step it took is not completed.  Otherwise
    it stops unconverged after cfg.max_iters iterations and returns
    Proj_X(z - L^T u); a check on the last of them still takes its ascent
    step, for that step's L.forward.  The result's gap is G/P at the last
    check, nan when the budget ends before the first.

    a_k = L^T u_k is carried across iterations, and the momentum point
    v_{k+1} = u_{k+1} + beta_k (u_{k+1} - u_k) gets its adjoint by
    linearity, a_{k+1} + beta_k (a_{k+1} - a_k).  One L and one L^T call
    per iteration, and one L^T to open with a = L^T u, where u is L z on a
    cold start (one more L) and a copy of warm_u, which must be shaped like
    the weights, on a warm one; the checks call neither.  A certified stop
    after k iterations has made k + 1 L.forward calls on a warm start and
    k + 2 on a cold one.  a_{k+1} is computed fresh from u_{k+1}, so no
    error builds up.  The restart test costs one vdot.  An operator whose
    unit attribute is true is its bank alone, so the solve calls
    L.bank.forward and L.bank.adjoint, bound when it starts.

    Each solve makes three arrays when it starts: two flat buffers, each a
    dual-sized part followed by an image-sized one, [u | a] with a = L^T u
    and [v | a_v] with a_v = L^T v, and the image x; the ascent step's L is
    applied into L.workspace.  The iteration makes no other array, and the
    bank's stencil stages read their input in place; only numpy's
    iteration buffers for strided reads come and go per call.  a_v's part
    first holds alpha * x^, the point L.forward reads.  u_{k+1} is formed
    in v's part, then u_{k+1} - u_k in u's for the restart test, a_{k+1} in
    a_v's part and a_{k+1} - a_k in a's.  On images of at most
    _MERGED_MOMENTUM_MAX_PIXELS pixels one multiply and one add over the
    whole of [u | a] then form [v_{k+1} | a_{v,k+1}] there; on larger ones
    v_{k+1} is formed before L^T and a_{v,k+1} after it, with the same
    operations on every element.  The two buffers then swap roles.  At a
    check, x holds x_k, then x_k - z, then a copy of x^ taken before alpha
    scales it; a_v's part, free from the ascent step's L.forward until
    L^T writes it, holds |s| one channel at a time and then x^ - z.  z and
    warm_u are only read.  The result's x is this solve's x, and its dual
    is u's part of [u | a], so a caller keeping it for a warm start keeps
    the whole buffer.  L.bank.release() drops the bank's kept plans, which
    hold views of both buffers, so that they are freed as soon as the
    caller drops the result.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    z = np.asarray(z, dtype=np.float64)
    # The checks square ||x - z||, so ||z||^2 must be a float.
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

    if getattr(L, "unit", False):
        forward, adjoint = L.bank.forward, L.bank.adjoint
    else:
        forward, adjoint = L.forward, L.adjoint
    dual_shape, m = L.weights.shape, L.weights.size
    ua, va = np.empty(m + z.size), np.empty(m + z.size)
    u, a = ua[:m].reshape(dual_shape), ua[m:].reshape(z.shape)
    v, a_v = va[:m].reshape(dual_shape), va[m:].reshape(z.shape)
    if warm_u is None:
        forward(z, out=u)
    elif np.shape(warm_u) != dual_shape:
        raise ValueError(f"warm_u must be shaped {dual_shape}, got "
                         f"{np.shape(warm_u)}")
    else:
        np.copyto(u, warm_u)
    adjoint(u, out=a)
    np.copyto(va, ua)
    x = np.empty(z.shape)
    step = L.workspace
    box, lower, upper = not X.is_all_space, X.lower, X.upper
    merged = z.size <= _MERGED_MOMENTUM_MAX_PIXELS
    t, j, restarts, ratio, converged = 1.0, 1, 0, np.nan, False
    # Bound once: the loop makes some 15 numpy calls per iteration, and on
    # small images their lookups weigh.
    add, subtract, multiply, vdot = np.add, np.subtract, np.multiply, np.vdot
    reduce_add = np.add.reduce
    # Pass k takes the ascent step of iteration k + 1 from v_k, which a
    # check pairs with u_k, and completes the iteration unless it stops.
    for k in range(cfg.max_iters + 1):
        check = k > 0 and k % _GAP_CHECK_INTERVAL == 0
        if check:
            subtract(z, a, out=x)
            if box:
                x.clip(lower, upper, out=x)
            dual_value = float(vdot(a, x))
            subtract(x, z, out=x)
            dual_value = 0.5 * float(vdot(x, x)) + dual_value
        elif k == cfg.max_iters:
            break
        # u_{k+1} = clip(v + s) for the step s = L(alpha * x^), in v's
        # part; alpha * x^ is formed in a_v's, which a_{k+1} takes next.
        subtract(z, a_v, out=a_v)
        if box:
            a_v.clip(lower, upper, out=a_v)
        if check:
            np.copyto(x, a_v)
        forward(multiply(a_v, alpha, out=a_v), out=step)
        if check:
            penalty = 0.0
            for s in step:
                penalty += float(reduce_add(np.abs(s, out=a_v), axis=None))
            subtract(x, z, out=a_v)
            primal = 0.5 * float(vdot(a_v, a_v)) + gamma * penalty / alpha
            gap = primal - dual_value
            ratio = gap / primal if primal > 0.0 else 0.0
            if gap <= cfg.epsilon * primal and primal <= ceiling:
                converged = True
                break
            if k == cfg.max_iters:
                break
        add(v, step, out=v)
        v.clip(-gamma, gamma, out=v)
        # u_{k+1} - u_k in u's part, read against s before L^T overwrites
        # it.  A negative product means the momentum has carried u against
        # the ascent direction: beta = 0 then restarts it, v_{k+1} = u_{k+1},
        # with t and momentum_next's index j back at 1.
        subtract(v, u, out=u)
        if vdot(step, u) < 0.0:
            t, j, beta = 1.0, 1, 0.0
            restarts += 1
        else:
            t_next = momentum_next(j)
            t, j, beta = t_next, j + 1, (t - 1.0) / t_next
        if merged:
            adjoint(v, out=a_v)
            subtract(a_v, a, out=a)
            multiply(ua, beta, out=ua)
            add(va, ua, out=ua)
        else:
            multiply(u, beta, out=u)
            add(v, u, out=u)
            adjoint(v, out=a_v)
            subtract(a_v, a, out=a)
            multiply(a, beta, out=a)
            add(a_v, a, out=a)
        u, v, a, a_v, ua, va = v, u, a_v, a, va, ua
    if not converged:
        np.subtract(z, a, out=x)
        _project_into(X, x)
    L.bank.release()
    return ProxResult(x, u, k, converged, ratio, restarts)
