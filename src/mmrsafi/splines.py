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
        # boundary-slope linear extrapolation of the two outer branches.  g is
        # clamped before the cast, which a coordinate beyond int64 would wrap.
        g = x / self.delta + m
        j = np.floor(np.clip(g, 0, 2 * m - 1)).astype(np.int64)
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
        j = np.floor(np.minimum(g, m - 1)).astype(np.int64)
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

    The derivative is psi'(x) = clip_[0,1](sigma(r*x)) and psi(x) is its
    integral from 0.  With sigma a projected half-line spline, psi'(0) = 1
    and psi' is non-increasing, so psi is concave.  The knots are the sigma
    grid refined by every point where sigma crosses 0 or 1: between two
    knots the clipped derivative is linear, so psi is exactly quadratic
    there, for any sigma, projected or not.
    """

    def __init__(self, sigma, r):
        if not r > 0:
            raise ValueError("scaling r must be positive")
        self.sigma = sigma
        self.r = float(r)
        # Knots, clipped values, cumulative integrals and slopes in the
        # argument u = r*x; the appended zero slope is sigma's constant tail.
        d = sigma.values
        knots = [0.0]
        for j in range(d.size - 1):
            # Points strictly inside the segment where sigma crosses 0 or 1.
            cuts = sorted((level - d[j]) / (d[j + 1] - d[j])
                          for level in (0.0, 1.0)
                          if (d[j] - level) * (d[j + 1] - level) < 0)
            knots += [(j + t) * sigma.delta for t in cuts]
            knots.append((j + 1) * sigma.delta)
        # A crossing that rounds onto a grid point would repeat a knot.
        knots = np.array(knots)
        self._knots = knots[np.diff(knots, prepend=-1.0) > 0]
        v = np.clip(sigma(self._knots), 0.0, 1.0)
        steps = np.diff(self._knots)
        self._values = v
        self._integrals = np.concatenate(
            ([0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * steps)))
        self._slopes = np.append(np.diff(v) / steps, 0.0)

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
        u = self.r * x
        k = np.searchsorted(self._knots, u, side="right") - 1
        s = u - self._knots[k]
        out = (self._integrals[k] + self._values[k] * s
               + 0.5 * self._slopes[k] * s * s) / self.r
        return out if out.ndim else float(out)


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
