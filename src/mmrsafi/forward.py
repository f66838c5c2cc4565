"""Forward operators: identity (denoising) and masked Fourier (MRI).

The DFT uses the orthonormal convention so that the masked operator has unit
spectral norm and the gradient step 1/||H||^2 is exactly one.  Complex
measurements are stored as real pairs (..., 2); images stay real.  Each
operator also applies its normal map H^T H directly, which is what the FBS
gradient needs, and says in normal_is_identity whether H^T H = I.
"""

import numpy as np


class IdentityOp:
    """H = Id, used for denoising."""

    norm = 1.0
    normal_is_identity = True

    def forward(self, x):
        return np.array(x, dtype=np.float64)

    def adjoint(self, y):
        return np.array(y, dtype=np.float64)

    def normal(self, x):
        return np.array(x, dtype=np.float64)


class MaskedDftOp:
    """Single-coil Cartesian undersampling: orthonormal 2-D DFT, kept columns.

    Mask indices refer to centered (fftshifted) k-space, so a central block
    covers the low horizontal frequencies.  Power-of-two image dimensions are
    required.  The rows of H are orthonormal, so ||H|| = 1.

    On real images H^T H = I (x) Re(F^H P F): the DFT along the image's
    columns cancels, and along each row Re(F^H P F) = F^H S F, where P keeps
    the measured frequencies and S is the real, even multiplier
    (1_P(f) + 1_P(-f)) / 2.  normal() applies it with one real FFT pair.
    When every column is kept, H^T H = I.
    """

    norm = 1.0

    def __init__(self, column_mask, height, width):
        column_mask = np.asarray(column_mask, dtype=bool)
        if column_mask.shape != (width,):
            raise ValueError("column mask length must equal image width")
        if not column_mask.any():
            raise ValueError("mask keeps no columns")
        if height & (height - 1) or width & (width - 1):
            raise ValueError("image dimensions must be powers of two")
        self.normal_is_identity = bool(column_mask.all())
        self.height = height
        self.width = width
        # Centered mask index -> unshifted DFT column.
        self.columns = np.fft.ifftshift(np.arange(width))[np.flatnonzero(column_mask)]
        kept = np.zeros(width)
        kept[self.columns] = 1.0
        # Half spectrum f = 0..width/2 of (1_P(f) + 1_P(-f)) / 2.
        half = np.arange(width // 2 + 1)
        self._normal_multiplier = 0.5 * (kept[half] + kept[-half % width])

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.height, self.width):
            raise ValueError("image shape does not match operator")
        coef = np.fft.fft2(x, norm="ortho")[:, self.columns]
        return np.stack([coef.real, coef.imag], axis=-1)

    def adjoint(self, y):
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.height, self.columns.size, 2):
            raise ValueError("measurement shape does not match operator")
        full = np.zeros((self.height, self.width), dtype=np.complex128)
        full[:, self.columns] = y[..., 0] + 1j * y[..., 1]
        return np.fft.ifft2(full, norm="ortho").real

    def normal(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.height, self.width):
            raise ValueError("image shape does not match operator")
        spec = np.fft.rfft(x, axis=1)
        spec *= self._normal_multiplier
        return np.fft.irfft(spec, n=self.width, axis=1)


def make_cartesian_mask(width, acc, center_fraction, rng):
    """Column-selection mask: a fully sampled center plus random columns.

    Keeps ceil(width * center_fraction) central columns and fills up to
    ceil(width / acc) total with uniformly drawn ones.  Deterministic in rng.
    """
    if acc < 1:
        raise ValueError("acceleration factor must be >= 1")
    if acc > width:
        raise ValueError("acceleration factor exceeds width")
    if not 0 <= center_fraction < 1:
        raise ValueError("center fraction must lie in [0, 1)")
    total = int(np.ceil(width / acc))
    n_center = min(int(np.ceil(width * center_fraction)), total)
    mask = np.zeros(width, dtype=bool)
    start = (width - n_center) // 2
    mask[start:start + n_center] = True
    kept = int(mask.sum())
    while kept < total:
        j = rng.integer(width)
        if not mask[j]:
            mask[j] = True
            kept += 1
    return mask


def add_noise(y, sigma, rng):
    """Add i.i.d. N(0, sigma^2) to every real component of y."""
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    y = np.asarray(y, dtype=np.float64)
    if sigma == 0.0:
        return y.copy()
    return y + sigma * rng.gaussian_array(y.shape)


def read_mask_file(path):
    """Mask file format: a single line of 0/1 characters, one per column."""
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline().strip()
    if not line or set(line) - {"0", "1"}:
        raise ValueError(f"malformed mask file {path!r}")
    return np.array([ch == "1" for ch in line], dtype=bool)


def write_mask_file(path, mask):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join("1" if kept else "0" for kept in mask) + "\n")
