"""Shared constructors for randomized models used across the test suite."""

import numpy as np

from mmrsafi.linops import (ConvStage, FilterBank, project_positive_normalized,
                            project_zero_mean)
from mmrsafi.schemes import MmrModel, SafiModel
from mmrsafi.splines import (ConcavePotential, HalfLineSpline, LinearSpline,
                             SigmoidSpline, project_nonincreasing)


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
