"""Constrained convolutional filter banks and linear-operator utilities.

Banks are stacks of periodic (circular) 2-D correlation stages.  Periodic
boundaries keep adjoints exact, make zero-mean kernels annihilate constants,
and give positive-normalized kernels exact row and column sums of one.
Stages with few nonzero taps per channel are applied directly as periodic
stencils; dense multi-channel stages go through FFT multipliers cached per
image shape.  A bank's forward and adjoint write into a caller's out array
when given one.  Periodic banks are block-circulant, so their spectral norm
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


# Direct stencils cost one array operation per nonzero tap; FFT multipliers
# cost a few transforms per channel.  Measured break-even: about 4.5 taps per
# input and output channel at 8x8 and 64x64, about 12 at 256x256.  Stages
# with more nonzero taps than this per channel run through FFTs.
_STENCIL_MAX_TAPS_PER_CHANNEL = 8


def _applier(stage):
    taps = np.count_nonzero(stage.kernels)
    if taps <= _STENCIL_MAX_TAPS_PER_CHANNEL * (stage.c_in + stage.c_out):
        return _StencilStage(stage)
    return _SpectralStage(stage)


@lru_cache(maxsize=32)
def _wrap_index(h, w, r):
    """Flat indices of an h-by-w periodic image padded by r on every side.

    Modular indices stay correct when r exceeds the image size.
    """
    rows = np.arange(-r, h + r) % h
    cols = np.arange(-r, w + r) % w
    index = rows[:, None] * w + cols
    index.flags.writeable = False     # shared by every caller of the cache
    return index


def _wrap_pad(x, r):
    """Periodic padding by r on every side of each channel of x."""
    c, h, w = x.shape
    if r > h or r > w:
        # The pad wraps around the image more than once.
        return np.take(x.reshape(c, h * w), _wrap_index(h, w, r), axis=1)
    xp = np.empty((c, h + 2 * r, w + 2 * r))
    xp[:, r:r + h, r:r + w] = x
    if r:
        xp[:, r:r + h, :r] = x[:, :, w - r:]
        xp[:, r:r + h, r + w:] = x[:, :, :r]
        xp[:, :r] = xp[:, h:h + r]
        xp[:, r + h:] = xp[:, r:2 * r]
    return xp


def _tap_plan(taps, channels):
    """Group (target, source, row, col, weight) taps by target channel.

    Returns one list per target channel of (source, row, col, weight) in
    the given summation order.  When the first two taps are +-1 of opposite
    signs they are merged into one entry (source, row, col, source2, row2,
    col2) meaning "first minus second".
    """
    plan = [[] for _ in range(channels)]
    for target, src, a, b, v in taps:
        plan[target].append((src, a, b, v))
    for ops in plan:
        if len(ops) >= 2 and {ops[0][3], ops[1][3]} == {-1.0, 1.0}:
            pos, neg = ops[:2] if ops[0][3] == 1.0 else ops[1::-1]
            ops[:2] = [pos[:3] + neg[:3]]
    return plan


def _apply_plan(plan, xp, h, w, out=None):
    """out[c] = sum over plan[c] of weight * xp[source, row:+h, col:+w],
    into a new array unless out is given.

    Equals the sum started from 0 and taken in plan order, up to the sign
    of zero: +-1 taps are added or subtracted without a product.
    """
    if out is None:
        out = np.empty((len(plan), h, w))
    tmp = None
    for acc, ops in zip(out, plan):
        if not ops:
            acc.fill(0.0)
        for n, op in enumerate(ops):
            s = xp[op[0], op[1]:op[1] + h, op[2]:op[2] + w]
            if len(op) == 6:
                np.subtract(s, xp[op[3], op[4]:op[4] + h, op[5]:op[5] + w],
                            out=acc)
            elif n == 0:
                if op[3] == 1.0:
                    np.copyto(acc, s)
                elif op[3] == -1.0:
                    np.negative(s, out=acc)
                else:
                    np.multiply(s, op[3], out=acc)
            elif op[3] == 1.0:
                np.add(acc, s, out=acc)
            elif op[3] == -1.0:
                np.subtract(acc, s, out=acc)
            else:
                if tmp is None:
                    tmp = np.empty((h, w))
                np.multiply(s, op[3], out=tmp)
                np.add(acc, tmp, out=acc)
    return out


class _StencilStage:
    """A stage applied as a sum over its nonzero taps on a wrap-padded input."""

    def __init__(self, stage):
        c_out, c_in_pg, ks, _ = stage.kernels.shape
        per_group = c_out // stage.groups
        self.r = r = ks // 2
        # (out channel, in channel, row, col, weight); row and col are the
        # slice offsets into the padded input of the forward map.
        taps = [(o, (o // per_group) * c_in_pg + i, a, b,
                 float(stage.kernels[o, i, a, b]))
                for o, i, a, b in np.argwhere(stage.kernels).tolist()]
        self._forward_plan = _tap_plan(taps, c_out)
        # The adjoint correlates with the flipped taps, channels transposed.
        self._adjoint_plan = _tap_plan(
            [(i, o, 2 * r - a, 2 * r - b, v) for o, i, a, b, v in taps],
            stage.c_in)

    def forward(self, x, out=None):
        return _apply_plan(self._forward_plan, _wrap_pad(x, self.r),
                           *x.shape[1:], out)

    def adjoint(self, y, out=None):
        return _apply_plan(self._adjoint_plan, _wrap_pad(y, self.r),
                           *y.shape[1:], out)


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
