"""Shared numerics: deterministic random numbers and image metrics.

Images are plain 2-D float64 arrays with intensities nominally in [0, 1];
channel stacks are 3-D arrays of shape (channels, height, width).
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Rng:
    """Counter-based SplitMix64 generator with Box-Muller normals.

    The stream is fully specified (no library RNG) so that any run is
    reproducible from its 64-bit seed alone.
    """

    def __init__(self, seed):
        self.state = int(seed) & _MASK64

    def _block(self, n):
        # SplitMix64 outputs for counters state+g, ..., state+n*g.
        idx = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self.state) + idx * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self.state = (self.state + n * _GAMMA) & _MASK64
        # Top 53 bits scaled to [0, 1).
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def uniform(self):
        """One draw from U[0, 1)."""
        return float(self._block(1)[0])

    def gaussian(self):
        """One standard normal draw (consumes two uniforms)."""
        u = self._block(2)
        return float(np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1]))

    def uniform_array(self, shape):
        n = int(np.prod(shape))
        return self._block(n).reshape(shape)

    def gaussian_array(self, shape):
        n = int(np.prod(shape))
        u = self._block(2 * n)
        z = np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        return z.reshape(shape)

    def integer(self, bound):
        """Uniform integer in [0, bound)."""
        return int(self.uniform() * bound)


def psnr(reference, test):
    """Peak signal-to-noise ratio in dB for unit-range images.

    A Python float; np.inf when the images coincide (zero MSE).
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(
            f"shape mismatch: {reference.shape} vs {test.shape}")
    mse = np.mean((reference - test) ** 2)
    if mse == 0.0:
        return np.inf
    return float(10.0 * np.log10(1.0 / mse))


def relative_change(x_new, x_old):
    """||x_new - x_old||_2 / ||x_old||_2.

    With x_old = 0 it is 0.0 when x_new is also zero, else np.inf.
    """
    denom = np.linalg.norm(x_old)
    diff = np.linalg.norm(x_new - x_old)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return float(diff / denom)
