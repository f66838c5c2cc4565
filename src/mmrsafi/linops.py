"""Constrained convolutional filter banks and linear-operator utilities.

Banks are stacks of periodic (circular) 2-D correlation stages.  Periodic
boundaries keep adjoints exact, make zero-mean kernels annihilate constants,
and give positive-normalized kernels exact row and column sums of one.
Stages with few nonzero taps per channel are applied directly as periodic
stencils, each tap reading the one to four blocks of its wrapped shift
straight from the input; dense multi-channel stages go through FFT
multipliers cached per image shape.  A bank's forward and adjoint write
into a caller's out array when given one, which may share memory with the
input.  Periodic banks are block-circulant, so their spectral norm
is exact from one impulse response per input channel.  A direct dense
materialization is available for oracle-scale checks.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Rng


def project_zero_mean(taps):
    """Shift kernel taps so that they sum to zero. Idempotent."""
    taps = np.asarray(taps, dtype=np.float64)
    return taps - taps.mean()


def project_positive_normalized(taps):
    """Map taps to |taps| / sum(|taps|): nonnegative, summing to one."""
    taps = np.asarray(taps, dtype=np.float64)
    mag = np.abs(taps)
    total = mag.sum()
    if total == 0.0:
        raise ValueError("degenerate kernel: all taps are zero")
    return mag / total


_CONSTRAINTS = {
    None: lambda k: np.asarray(k, dtype=np.float64),
    "zero-mean": project_zero_mean,
    "positive-normalized": project_positive_normalized,
}


@dataclass(frozen=True)
class ConvStage:
    """One periodic correlation stage.

    kernels has shape (c_out, c_in_per_group, ks, ks) with odd ks; the stage
    maps c_in = c_in_per_group * groups input channels to c_out outputs.
    """
    kernels: np.ndarray
    groups: int = 1

    def __post_init__(self):
        k = self.kernels
        if k.ndim != 4 or k.shape[2] != k.shape[3] or k.shape[2] % 2 == 0:
            raise ValueError("kernels must be (c_out, c_in_pg, ks, ks), odd ks")
        if self.groups < 1 or k.shape[0] % self.groups != 0:
            raise ValueError("c_out must be divisible by groups")

    @property
    def c_out(self):
        return self.kernels.shape[0]

    @property
    def c_in(self):
        return self.kernels.shape[1] * self.groups


class FilterBank:
    """Composition of ConvStages with an optional per-kernel constraint.

    Immutable after construction; forward/adjoint are pure.  Accepts 2-D
    input (single-channel image) or a 3-D channel stack.
    """

    def __init__(self, stages, constraint=None):
        if constraint not in _CONSTRAINTS:
            raise ValueError(f"unknown constraint {constraint!r}")
        proj = _CONSTRAINTS[constraint]
        fixed = []
        for st in stages:
            kern = np.empty_like(np.asarray(st.kernels, dtype=np.float64))
            for o in range(st.kernels.shape[0]):
                for i in range(st.kernels.shape[1]):
                    kern[o, i] = proj(st.kernels[o, i])
            fixed.append(ConvStage(kern, st.groups))
        for prev, nxt in zip(fixed, fixed[1:]):
            if nxt.c_in != prev.c_out:
                raise ValueError("stage channel counts do not compose")
        self.stages = tuple(fixed)
        self.constraint = constraint
        self._appliers = tuple(_applier(st) for st in self.stages)
        self._norms = {}

    @property
    def in_channels(self):
        return self.stages[0].c_in

    @property
    def out_channels(self):
        return self.stages[-1].c_out

    def forward(self, x, out=None):
        """W x, shaped (out_channels, h, w); written into out when given."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[None]
        if x.shape[0] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[0]}")
        if out is not None:
            _check_out(out, (self.out_channels,) + x.shape[1:])
        for app in self._appliers[:-1]:
            x = app.forward(x)
        return self._appliers[-1].forward(x, out)

    def adjoint(self, s, out=None):
        """W^T s, shaped (h, w) for one input channel and (in_channels, h, w)
        otherwise; written into out when given."""
        s = np.asarray(s, dtype=np.float64)
        if s.ndim == 2:
            s = s[None]
        if s.shape[0] != self.out_channels:
            raise ValueError(
                f"expected {self.out_channels} channels, got {s.shape[0]}")
        if out is not None:
            shape = s.shape[1:]
            _check_out(out, shape if self.in_channels == 1
                       else (self.in_channels,) + shape)
        for app in self._appliers[:0:-1]:
            s = app.adjoint(s)
        if out is None:
            x = self._appliers[0].adjoint(s)
            return x[0] if self.in_channels == 1 else x
        self._appliers[0].adjoint(s, out[None] if out.ndim == 2 else out)
        return out

    def norm(self, shape):
        """Exact ||W||_2 on periodic images of this shape, cached per shape.

        Every stage is circulant, so the DFT splits W into one
        (out_channels, in_channels) matrix per frequency, whose entries are
        the spectra of the impulse responses; ||W|| is the largest singular
        value of these matrices over all frequencies.
        """
        shape = tuple(shape)
        if shape not in self._norms:
            c_in = self.in_channels
            deltas = np.zeros((c_in, c_in) + shape)
            deltas[np.arange(c_in), np.arange(c_in), 0, 0] = 1.0
            # Real responses: frequencies -w and w give conjugate matrices
            # with equal singular values, so the half spectrum suffices.
            spec = np.fft.rfft2(np.stack([self.forward(d) for d in deltas]))
            # With one input channel each matrix is a column, whose singular
            # value is its Euclidean norm; this skips a batched SVD.
            sv = (np.linalg.norm(spec[0], axis=0) if c_in == 1
                  else np.linalg.norm(spec, 2, axis=(0, 1)))
            self._norms[shape] = float(sv.max())
        return self._norms[shape]


def _check_out(out, shape):
    """Raise unless out is a float64 array of exactly this shape."""
    if out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")


# Direct stencils cost one to four block operations per nonzero tap; FFT
# multipliers cost a few transforms per channel.  Measured break-even, when
# each tap was one operation on a wrap-padded copy: about 4.5 taps per input
# and output channel at 8x8 and 64x64, about 12 at 256x256.  Stages with
# more nonzero taps than this per channel run through FFTs.
_STENCIL_MAX_TAPS_PER_CHANNEL = 8


def _applier(stage):
    taps = np.count_nonzero(stage.kernels)
    if taps <= _STENCIL_MAX_TAPS_PER_CHANNEL * (stage.c_in + stage.c_out):
        return _StencilStage(stage)
    return _SpectralStage(stage)


@lru_cache(maxsize=256)
def _wrapped_blocks(n, d):
    """The one or two (target, source) slice pairs that tile t[i] = s[(i + d)
    % n] over i < n; any integer shift d, so taps may wrap more than once."""
    d %= n
    if d == 0:
        return ((slice(None), slice(None)),)
    return ((slice(0, n - d), slice(d, n)), (slice(n - d, n), slice(0, d)))


def _apply_taps(taps, x, out):
    """out[c] = sum over taps[c] of weight * x[source] shifted periodically,
    so that element (i, j) reads x[source, (i + dr) % h, (j + dc) % w];
    into a new array unless out is given.

    Each tap reads its wrapped blocks straight from x.  The sum starts from
    the first tap and runs in tap order, and +-1 taps are added or
    subtracted without a product, so it equals the sum started from 0 up to
    the sign of zero.
    """
    h, w = x.shape[1:]
    if out is None:
        out = np.empty((len(taps), h, w))
    elif np.may_share_memory(x, out):
        x = x.copy()            # taps read x while out is written
    tmp = None
    for acc, ops in zip(out, taps):
        if not ops:
            acc.fill(0.0)
        for n, (src, dr, dc, v) in enumerate(ops):
            for tr, sr in _wrapped_blocks(h, dr):
                for tc, sc in _wrapped_blocks(w, dc):
                    t, s = acc[tr, tc], x[src, sr, sc]
                    if n == 0:
                        if v == 1.0:
                            np.copyto(t, s)
                        elif v == -1.0:
                            np.negative(s, out=t)
                        else:
                            np.multiply(s, v, out=t)
                    elif v == 1.0:
                        np.add(t, s, out=t)
                    elif v == -1.0:
                        np.subtract(t, s, out=t)
                    else:
                        if tmp is None:
                            tmp = np.empty(h * w)
                        # A contiguous scratch block: numpy buffers
                        # strided outputs.
                        scaled = tmp[:s.size].reshape(s.shape)
                        np.add(t, np.multiply(s, v, out=scaled), out=t)
    return out


class _StencilStage:
    """A stage applied as a sum over its nonzero taps, each read as periodic
    blocks of the input with no padded copy."""

    def __init__(self, stage):
        c_out, c_in_pg, ks, _ = stage.kernels.shape
        per_group = c_out // stage.groups
        r = ks // 2
        # Per target channel, (source, row shift, col shift, weight) in
        # kernel order: the forward correlates, shifting by the tap's offset
        # from the kernel centre; the adjoint shifts the other way, with
        # the channels transposed.
        self._forward_taps = [[] for _ in range(c_out)]
        self._adjoint_taps = [[] for _ in range(stage.c_in)]
        for o, i, a, b in np.argwhere(stage.kernels).tolist():
            v = float(stage.kernels[o, i, a, b])
            i += (o // per_group) * c_in_pg
            self._forward_taps[o].append((i, a - r, b - r, v))
            self._adjoint_taps[i].append((o, r - a, r - b, v))

    def forward(self, x, out=None):
        return _apply_taps(self._forward_taps, x, out)

    def adjoint(self, y, out=None):
        return _apply_taps(self._adjoint_taps, y, out)


class _SpectralStage:
    """A stage applied through rFFT multipliers cached per image shape."""

    def __init__(self, stage):
        self.kernels = stage.kernels
        self.groups = stage.groups
        self._spectra = {}

    def _spectrum(self, shape):
        """Multipliers of the center-anchored kernels embedded periodically,
        shaped (groups, c_out_pg, c_in_pg, h, w // 2 + 1)."""
        if shape not in self._spectra:
            h, w = shape
            c_out, c_in_pg, ks, _ = self.kernels.shape
            r = ks // 2
            pad = np.zeros((c_out, c_in_pg, h, w))
            rows = np.arange(-r, r + 1) % h
            cols = np.arange(-r, r + 1) % w
            for a in range(ks):
                for b in range(ks):
                    # += so kernels wider than the image wrap correctly
                    pad[:, :, rows[a], cols[b]] += self.kernels[:, :, a, b]
            spec = np.fft.rfft2(pad)
            self._spectra[shape] = spec.reshape(
                self.groups, c_out // self.groups, *spec.shape[1:])
        return self._spectra[shape]

    def forward(self, x, out=None):
        # Periodic cross-correlation, hence the conjugate multiplier.
        spec = self._spectrum(x.shape[1:])
        xf = np.fft.rfft2(x).reshape(self.groups, -1, *spec.shape[3:])
        yf = np.einsum("goihw,gihw->gohw", np.conj(spec), xf)
        return _into(out, np.fft.irfft2(yf.reshape(-1, *yf.shape[2:]),
                                        s=x.shape[1:]))

    def adjoint(self, y, out=None):
        spec = self._spectrum(y.shape[1:])
        yf = np.fft.rfft2(y).reshape(self.groups, -1, *spec.shape[3:])
        xf = np.einsum("goihw,gohw->gihw", spec, yf)
        return _into(out, np.fft.irfft2(xf.reshape(-1, *xf.shape[2:]),
                                        s=y.shape[1:]))


def _into(out, value):
    """value, copied into out when one is given."""
    if out is None:
        return value
    np.copyto(out, value)
    return out


class MatrixOp:
    """Dense matrix as a forward operator on flattened images (test scale)."""

    def __init__(self, matrix, in_shape):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.in_shape = tuple(in_shape)
        if self.matrix.shape[1] != int(np.prod(in_shape)):
            raise ValueError("matrix columns do not match input size")
        self.norm = float(np.linalg.norm(self.matrix, 2))
        self.normal_is_identity = False

    def forward(self, x):
        return self.matrix @ np.asarray(x, dtype=np.float64).ravel()

    def adjoint(self, y):
        return (self.matrix.T @ np.asarray(y, dtype=np.float64).ravel()).reshape(
            self.in_shape)

    def normal(self, x):
        return self.adjoint(self.forward(x))


def operator_norm(forward, adjoint, in_shape, iters=100, rng=None):
    """Largest singular value estimate by power iteration on A^T A."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = rng if rng is not None else Rng(0)
    v = rng.gaussian_array(in_shape)
    n = np.linalg.norm(v)
    if n == 0.0:
        return 0.0
    v = v / n
    lam = 0.0
    for _ in range(iters):
        w = adjoint(forward(v))
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


# Largest input dimension the dense oracle will materialize.
_DENSE_MAX_DIM = 4096


def dense_matrix_of(apply_fn, in_shape):
    """Materialize a linear map column by column (oracle support)."""
    n = int(np.prod(in_shape))
    if n > _DENSE_MAX_DIM:
        raise ValueError(
            f"input dimension {n} exceeds oracle cap {_DENSE_MAX_DIM}")
    cols = []
    basis = np.zeros(in_shape)
    flat = basis.reshape(-1)
    for j in range(n):
        flat[j] = 1.0
        cols.append(np.asarray(apply_fn(basis), dtype=np.float64).ravel().copy())
        flat[j] = 0.0
    return np.stack(cols, axis=1)


def difference_bank():
    """Two-channel periodic forward differences (horizontal, vertical)."""
    kern = np.zeros((2, 1, 3, 3))
    kern[0, 0, 1, 1] = -1.0
    kern[0, 0, 1, 2] = 1.0
    kern[1, 0, 1, 1] = -1.0
    kern[1, 0, 2, 1] = 1.0
    return FilterBank([ConvStage(kern, groups=1)], constraint="zero-mean")


def box_bank(channels, size=3):
    """Channel-wise normalized box smoothing, one stage."""
    kern = np.ones((channels, 1, size, size))
    return FilterBank([ConvStage(kern, groups=channels)],
                      constraint="positive-normalized")
