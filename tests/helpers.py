"""Shared constructors for randomized models, and closed forms of the dual
prox, used across the test suite."""

import numpy as np

from mmrsafi.linops import (ConvStage, FilterBank, project_positive_normalized,
                            project_zero_mean)
from mmrsafi.schemes import MmrModel, SafiModel
from mmrsafi.splines import (ConcavePotential, HalfLineSpline, LinearSpline,
                             SigmoidSpline, project_nonincreasing)


def dual_gradient(L, X, z, u):
    """Ascent direction of the prox's dual function: L Proj_X{z - L^T u}."""
    return L.forward(X.project(z - L.adjoint(u)))


def duality_gap(L, gamma, z, x, u):
    """Duality gap G and primal value P of the prox at the pair (x, u).

    G = gamma*||L x||_1 - <u, L x> and P = 0.5*||x - z||^2 + gamma*||L x||_1.
    When x = Proj_X(z - L^T u) and |u| <= gamma, the dual value at u is
    P - G, so G >= 0 is the exact gap, both on all of R^N and on a box.
    """
    lx = L.forward(x)
    penalty = gamma * float(np.sum(np.abs(lx)))
    return (penalty - float(np.vdot(u, lx)),
            0.5 * float(np.sum((x - z) ** 2)) + penalty)


def random_mmr_model(rng, channels=2, ks=3, lam=0.1, m=8, delta=0.1):
    W = FilterBank([ConvStage(
        project_zero_mean(rng.gaussian_array((channels, 1, ks, ks))), 1)])
    B = FilterBank([ConvStage(project_positive_normalized(
        rng.gaussian_array((channels, 1, ks, ks)) + 0.2), channels)])
    potentials = []
    for _ in range(channels):
        raw = np.concatenate(([1.0], 1.0 - 2.0 * rng.uniform_array(m)))
        sigma = HalfLineSpline(delta, project_nonincreasing(raw))
        potentials.append(ConcavePotential(sigma, r=0.3 + 1.5 * rng.uniform()))
    return MmrModel(W=W, B=B, potentials=potentials, lam=lam)


def _l1_normalized(kernels):
    # unit l1 gain per output channel, so |out| <= max|in| through the stage
    out = kernels.copy()
    for c in range(out.shape[0]):
        out[c] /= np.sum(np.abs(out[c]))
    return out


def random_safi_model(rng, channels=2, ks=3, lam=0.1, m=6, delta=0.2):
    """Random generator with unit-gain layers.

    Keeping every convolution at unit l1 gain and spline values within [-1, 1]
    keeps activations inside the spline grids for inputs in [-1, 1], so the
    sigmoid never saturates and masks stay strictly inside (0, 1).
    """
    def spline(scale=1.0):
        return LinearSpline(delta, scale * (2.0 * rng.uniform_array(2 * m + 1)
                                            - 1.0))

    def zero_mean_unit(shape):
        k = rng.gaussian_array(shape)
        for c in range(shape[0]):
            k[c] -= k[c].mean()
        return _l1_normalized(k)

    W = FilterBank([ConvStage(
        project_zero_mean(zero_mean_unit((channels, 1, ks, ks))), 1)])
    Wt = FilterBank([ConvStage(
        project_zero_mean(zero_mean_unit((channels, 1, ks, ks))), 1)])
    Bt = FilterBank([ConvStage(
        _l1_normalized(rng.gaussian_array((channels, channels, ks, ks))), 1)])
    Bh = FilterBank([ConvStage(
        _l1_normalized(rng.gaussian_array((channels, channels, ks, ks))), 1)])
    return SafiModel(
        W=W, Wt=Wt, Bt=Bt, Bh=Bh,
        phi1=[spline() for _ in range(channels)],
        phi2=[spline() for _ in range(channels)],
        phi3=[SigmoidSpline(spline()) for _ in range(channels)],
        lam=lam)
