"""Linear-spline activations, monotone projection, and concave potentials.

The reweighting machinery needs three ingredients: symmetric linear splines
with linear extrapolation, half-line splines constrained to be non-increasing
with value 1 at the origin, and the piecewise-quadratic potentials obtained
by integrating the clipped splines.
"""

import numpy as np


class LinearSpline:
    """Piecewise-linear function on the uniform symmetric grid -M*delta..M*delta.

    Inside the grid the spline interpolates the 2M+1 coefficient values;
    outside it extrapolates linearly with the slope of the boundary segment.
    """

    def __init__(self, delta, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size < 3 or values.size % 2 == 0:
            raise ValueError("need an odd number (>= 3) of grid values")
        if not delta > 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        self.values = values
        self.half_count = (values.size - 1) // 2

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        d = self.values
        m = self.half_count
        # Fractional grid coordinate; clamping the segment index realizes the
        # boundary-slope linear extrapolation of the two outer branches.
        g = x / self.delta + m
        j = np.clip(np.floor(g).astype(np.int64), 0, 2 * m - 1)
        frac = g - j
        out = d[j] + (d[j + 1] - d[j]) * frac
        return out if out.ndim else float(out)


class HalfLineSpline:
    """Linear spline on the half grid 0, delta, ..., M*delta.

    Beyond the last knot the value is held constant at the last coefficient,
    which keeps projected (non-increasing) splines monotone everywhere.
    """

    def __init__(self, delta, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("need at least two grid values")
        if not delta > 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        self.values = values

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise ValueError("half-line spline evaluated at negative input")
        d = self.values
        m = d.size - 1
        g = x / self.delta
        j = np.minimum(np.floor(g).astype(np.int64), m - 1)
        frac = np.minimum(g - j, 1.0)   # constant beyond the last knot
        out = d[j] + (d[j + 1] - d[j]) * frac
        return out if out.ndim else float(out)


def project_nonincreasing(d):
    """Map coefficients to the nearest-in-parameterization non-increasing set.

    Realizes S clip_(-inf,0](D d) + 1: forward differences are clipped to be
    non-positive and re-accumulated, and the first value is pinned to 1.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need at least two coefficients")
    steps = np.minimum(np.diff(d), 0.0)
    out = np.empty_like(d)
    out[0] = 1.0
    out[1:] = 1.0 + np.cumsum(steps)
    return out


class ConcavePotential:
    """Increasing concave potential given through its derivative.

    The derivative is psi'(x) = clip_[0,1](sigma(r*x)) with sigma a projected
    half-line spline, so psi'(0) = 1, psi' is non-increasing and in [0, 1].
    The potential itself is recovered in closed form per linear piece of the
    derivative (psi is piecewise quadratic with psi(0) = 0).
    """

    def __init__(self, sigma, r):
        if not r > 0:
            raise ValueError("scaling r must be positive")
        self.sigma = sigma
        self.r = float(r)
        self._knot_integrals = self._integrate_knots()

    def _integrate_knots(self):
        # Cumulative integral of clip_[0,1](sigma) over the sigma grid,
        # in grid units (argument u = r*x).
        d = self.sigma.values
        delta = self.sigma.delta
        cum = np.zeros(d.size)
        for j in range(d.size - 1):
            cum[j + 1] = cum[j] + _clipped_segment_integral(
                d[j], d[j + 1], delta, delta)
        return cum

    def derivative(self, x):
        """psi'(x) for x >= 0."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise ValueError("potential derivative evaluated at negative input")
        return np.clip(self.sigma(self.r * x), 0.0, 1.0)

    def __call__(self, x):
        """psi(x) = integral of psi' from 0 to x, for x >= 0."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0):
            raise ValueError("potential evaluated at negative input")
        d = self.sigma.values
        delta = self.sigma.delta
        m = d.size - 1
        u = self.r * x
        j = np.minimum((u / delta).astype(np.int64), m)
        base = self._knot_integrals[j]
        inside = j < m
        jj = np.minimum(j, m - 1)
        partial = _clipped_segment_integral(
            d[jj], d[jj + 1], delta, u - jj * delta)
        # Constant extrapolation of sigma beyond the last knot.
        tail = np.clip(d[m], 0.0, 1.0) * (u - m * delta)
        out = (base + np.where(inside, partial, tail)) / self.r
        return out if out.ndim else float(out)


def _clipped_segment_integral(d0, d1, delta, s):
    """Integral of clip_[0,1](linear segment) from 0 to s, s in [0, delta].

    The segment runs from value d0 to d1 over length delta.  Only called for
    projected coefficients, where d0 <= 1 rules out the upper clip except as
    a touching point; the lower clip is handled through the crossing point.
    """
    d0 = np.asarray(d0, dtype=np.float64)
    d1 = np.asarray(d1, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    top = np.minimum(d0, 1.0)
    slope = (np.minimum(d1, 1.0) - top) / delta
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = np.where(slope < 0, top / np.where(slope < 0, -slope, 1.0),
                            np.inf)
    s_eff = np.clip(np.minimum(s, crossing), 0.0, None)
    area = top * s_eff + 0.5 * slope * s_eff ** 2
    return np.where(top <= 0, 0.0, np.maximum(area, 0.0))


class SigmoidSpline:
    """Sigmoid composed with a symmetric linear spline; output in (0, 1)."""

    def __init__(self, base):
        self.base = base

    def __call__(self, x):
        # Logistic evaluated on -|u|, so exp cannot overflow.
        u = np.asarray(self.base(x), dtype=np.float64)
        e = np.exp(-np.abs(u))
        out = np.where(u >= 0, 1.0, e) / (1.0 + e)
        return out if out.ndim else float(out)
