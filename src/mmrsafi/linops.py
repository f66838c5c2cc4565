"""Periodic convolutional filter banks and linear-operator utilities.

Banks are stacks of periodic (circular) 2-D correlation stages, applied
with their kernels as given.  Periodic boundaries keep adjoints exact, make
zero-mean kernels annihilate constants, and give nonnegative unit-sum
kernels exact row and column sums of one; project_zero_mean and
project_positive_normalized put a stack of kernels in those forms.
Stages with few nonzero taps per channel are applied directly as periodic
stencils on the flattened (channels, h * w) images: each tap is one
periodic shift, read as one or two contiguous blocks straight from the
input, and each column where a tap's column shift wraps is redone through
column views right after the last tap that wraps in it.  A channel whose
first two taps are +-1, and not both -1, opens with their signed sum in one
pass.  Dense multi-channel stages go through FFT multipliers, built once
per image shape.  A bank builds a runner per direction and input shape at
the first call of that shape, from each stage's stencil steps or FFT
multipliers, after a check of the channel count.  Later calls of that
shape look the runner up and check only what depends on the arrays passed.
A stencil stage then runs the call as a flat list of ufunc calls on views
of the input and out, which may share memory and need not be contiguous.
A caller that applies the bank to the same arrays again and again, as the
dual prox does, prepares each (input, out) pair once, and forward or
adjoint run the prepared call with no lookup or check.  The bank keeps no
array of a caller's.
Periodic banks are block-circulant, so their spectral norm is exact from
one impulse response per input channel.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Rng


def project_zero_mean(taps):
    """Shift each kernel, over the last two axes, so that its taps sum to
    zero.  Idempotent."""
    taps = np.asarray(taps, dtype=np.float64)
    return taps - taps.mean(axis=(-2, -1), keepdims=True)


def project_positive_normalized(taps):
    """Map each kernel, over the last two axes, to |taps| / sum(|taps|):
    nonnegative, summing to one."""
    mag = np.abs(np.asarray(taps, dtype=np.float64))
    total = mag.sum(axis=(-2, -1), keepdims=True)
    if np.any(total == 0.0):
        raise ValueError("degenerate kernel: all taps are zero")
    return mag / total


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
    """Composition of ConvStages, applied with their kernels as given.

    Keeps its own float64 copy of the kernels, so it is immutable after
    construction; forward/adjoint are pure.  Accepts 2-D input
    (single-channel image) or a 3-D channel stack.  Stencil stages share
    scratch memory between calls, so one bank serves one thread at a time.
    """

    def __init__(self, stages):
        if not stages:
            raise ValueError("a filter bank needs at least one stage")
        own = [ConvStage(np.array(st.kernels, dtype=np.float64), st.groups)
               for st in stages]
        for prev, nxt in zip(own, own[1:]):
            if nxt.c_in != prev.c_out:
                raise ValueError("stage channel counts do not compose")
        self.stages = tuple(own)
        self._appliers = tuple(_applier(st) for st in self.stages)
        self._c_in, self._c_out = own[0].c_in, own[-1].c_out
        self._norms = {}
        self._runners = {}

    @property
    def in_channels(self):
        return self._c_in

    @property
    def out_channels(self):
        return self._c_out

    def forward(self, x, out=None):
        """W x, shaped (out_channels, h, w); written into out when given.
        x may be a call of this bank's prepare(0, ...), given with no out."""
        if type(x) is PreparedCall:
            if x.bank is not self or x.direction or out is not None:
                raise ValueError(_MISUSED)
            for f, args in x.calls:
                f(*args)
            return x.out
        x = np.asarray(x, dtype=np.float64)
        return (self._runners.get((0, x.shape))
                or self._runner(0, x.shape))(x, out)

    def adjoint(self, s, out=None):
        """W^T s, shaped (h, w) for one input channel and (in_channels, h, w)
        otherwise; written into out when given.  s may be a call of this
        bank's prepare(1, ...), given with no out."""
        if type(s) is PreparedCall:
            if s.bank is not self or not s.direction or out is not None:
                raise ValueError(_MISUSED)
            for f, args in s.calls:
                f(*args)
            return s.out
        s = np.asarray(s, dtype=np.float64)
        return (self._runners.get((1, s.shape))
                or self._runner(1, s.shape))(s, out)

    def prepare(self, direction, x, out):
        """The call of forward (direction 0) or adjoint (1) from x into out,
        checked once: given to that method in place of x, it writes the
        result for x as it is then into out, and returns out.  x must be a
        C-contiguous float64 array, and out a writeable, C-contiguous
        float64 array of the result's shape that shares no memory with x,
        as the call reads x in place; otherwise ValueError, with a plain
        call's message where a plain call refuses the pair too.  A one-stage
        stencil bank prepares the stage's ufunc calls, any other bank one
        call of its runner."""
        if not (isinstance(x, np.ndarray) and x.dtype == _FLOAT64
                and x.flags.c_contiguous):
            raise ValueError("a prepared call needs a C-contiguous float64 "
                             "input")
        run = (self._runners.get((direction, x.shape))
               or self._runner(direction, x.shape))
        if out.shape != run.out_shape or out.dtype != _FLOAT64:
            _reject(out, run.out_shape)
        if not out.flags.writeable:
            raise ValueError("output array is read-only")
        if not out.flags.c_contiguous or np.may_share_memory(x, out):
            raise ValueError("a prepared call needs a C-contiguous out that "
                             "does not share memory with its input")
        plan = getattr(run, "plan", None)
        return PreparedCall(self, direction,
                            plan(x, out) if plan else [(run, (x, out))], out)

    def _runner(self, direction, shape):
        """The function (x, out) that applies the bank forward (direction 0)
        or adjoint (1) to inputs x of this shape, (channels, h, w) or (h, w)
        for one channel; built, once the channel count is checked, and
        cached at the first call of the shape.  Its out_shape attribute is
        the shape of its result."""
        order = -1 if direction else 1
        c = (self._c_in, self._c_out)[direction]
        if len(shape) not in (2, 3) or (
                shape[0] if len(shape) == 3 else 1) != c:
            raise ValueError(f"expected {c} channels, got an input of "
                             f"shape {shape}")
        h, w = shape[-2:]
        # Each stage's result is (channels, h, w); a one-channel adjoint's
        # is (h, w).
        shapes = [((st.c_in if direction else st.c_out), h, w)
                  for st in self.stages[::order]]
        if direction and self._c_in == 1:
            shapes[-1] = (h, w)
        *inner, last = [app.runner(direction, res) for app, res in
                        zip(self._appliers[::order], shapes)]

        def chain(x, out):
            for f in inner:
                x = f(x, None)
            return last(x, out)
        run = self._runners[direction, shape] = chain if inner else last
        run.out_shape = shapes[-1]
        return run

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


# Direct stencils cost one or two contiguous block operations per nonzero
# tap, plus, per wrapped column, one or two column operations per tap up to
# the last that wraps there, two per block for a tap that is not +-1; FFT
# multipliers cost a few transforms per channel.  Break-even, measured on
# earlier stencils that read a wrap-padded copy (forward plus adjoint of
# one grouped two-channel stage with Gaussian taps in a 5x5 kernel, one
# thread of a 2-core Xeon, numpy 2.4): about 2 taps per input and output
# channel at 8x8, 3.5 at 64x64 and 12 at 256x256.  With the present steps
# (forward plus adjoint of one stage, same machine) the difference bank
# (1.3 taps per channel, all +-1) runs 7.5x, 9.5x and 15x faster as a
# stencil at those sizes; the 3x3 box bank (4.5) 3.3x and 1.5x slower at
# 8x8 and 64x64, and 2.2x faster at 256x256.  The limit does not depend on
# the image, and it keeps every shipped bank on stencils: stages with more
# nonzero taps than this per channel run through FFTs.
_STENCIL_MAX_TAPS_PER_CHANNEL = 8


def _applier(stage):
    taps = np.count_nonzero(stage.kernels)
    if taps <= _STENCIL_MAX_TAPS_PER_CHANNEL * (stage.c_in + stage.c_out):
        return _StencilStage(stage)
    return _SpectralStage(stage)


@lru_cache(maxsize=256)
def _wrapped_blocks(n, *shifts):
    """Slice tuples (target, source_1, ..., source_m) that tile
    t[i] = s_j[(i + d_j) % n] over i < n for each shift d_j at once: the
    blocks break wherever any source wraps, so each block reads every
    source as one contiguous slice.  Any integer shifts, so taps may wrap
    more than once."""
    cuts = sorted({0, n} | {-d % n for d in shifts})
    return tuple(
        (slice(p, q),) + tuple(slice((p + d) % n, (p + d) % n + q - p)
                               for d in shifts)
        for p, q in zip(cuts, cuts[1:]))


# Kinds of stencil step, run by _StencilStage.runner.
_ZERO, _OPEN, _PAIR, _ADD, _ADD_SCALED = range(5)


def _terms(taps):
    """One channel's taps (source, row shift, col shift, weight), in kernel
    order, as (kind, arg, taps) terms: the first opens the channel, the
    others accumulate into it.

    When the first two weights are +-1 and not both -1, they open the
    channel together as arg(p, q), their signed sum exactly, sign of zero
    included: first + second, first - second, or second - first.
    -first - second is not paired: a negation then a subtraction gives a
    zero sign no single op gives.  Otherwise the first tap opens it as
    weight * tap; x * -1.0 is -x exactly.  The remaining +-1 taps are
    added or subtracted without a product.  Either way the sum equals the
    tap-by-tap sum opened by the first tap, sign of zero included.
    """
    if not taps:
        return [(_ZERO, None, ())]
    pair = None
    if len(taps) > 1:
        first, second = taps[:2]
        pair = {(1.0, 1.0): (np.add, (first, second)),
                (1.0, -1.0): (np.subtract, (first, second)),
                (-1.0, 1.0): (np.subtract, (second, first))}.get(
                    (first[3], second[3]))
    if pair is not None:
        terms, rest = [(_PAIR,) + pair], taps[2:]
    else:
        terms, rest = [(_OPEN, taps[0][3], taps[:1])], taps[1:]
    for tap in rest:
        v = tap[3]
        if v == 1.0 or v == -1.0:
            terms.append((_ADD, np.add if v == 1.0 else np.subtract, (tap,)))
        else:
            terms.append((_ADD_SCALED, v, (tap,)))
    return terms


@lru_cache(maxsize=64)
def _stencil_steps(channel_taps, h, w):
    """The steps that apply each channel's taps to (c, h * w) flattened
    images, as (kind, target, source, second source, arg) tuples of
    indices, run by _StencilStage.runner.  Cached, so that stages with the
    same taps share them.

    A tap shifting by (dr, dc) is a periodic shift by dr * w + dc of the
    flattened image, exact on every column j with 0 <= j + dc < w.  Each
    term runs over the contiguous blocks of its shifts.  Right after the
    last term whose taps wrap in column j, terms 0 to that one are redone
    on column j through column views whose rows wrap by dr; the later terms
    are exact there.  So every element sees the op sequence of the
    tap-by-tap sum.  A flat block is left out when every column it reaches
    is redone through its term; an opening block only when they are all
    redone right after it, so that no later term accumulates into an
    element not yet written.
    """
    n = h * w
    steps = []
    for c, taps in enumerate(channel_taps):
        terms = _terms(taps)
        last = {}                   # column -> last term that wraps in it
        for k, (_, _, tt) in enumerate(terms):
            for _, _, dc, _ in tt:
                last.update(dict.fromkeys(range(max(w - dc, 0), w) if dc > 0
                                          else range(min(-dc, w)), k))

        def step(term, target, *reads):
            kind, arg, tt = term
            return (kind, (c, target), *zip([t[0] for t in tt], reads),
                    *(None,) * (2 - len(tt)), arg)

        for k, term in enumerate(terms):
            for target, *reads in _wrapped_blocks(
                    n, *(dr * w + dc for _, dr, dc, _ in term[2])):
                lasts = {last.get(i % w, -1) for i in range(
                    target.start, min(target.stop, target.start + w))}
                if (lasts != {0}) if k == 0 else (min(lasts) < k):
                    steps.append(step(term, target, *reads))
            # Column j of rows p:q is the flat slice p * w + j : q * w : w;
            # the target is column j and a tap reads column (j + dc) % w.
            for j in [j for j, kj in last.items() if kj == k]:
                for done in terms[:k + 1]:
                    dcs = [0] + [t[2] for t in done[2]]
                    for rows in _wrapped_blocks(h, *(t[1] for t in done[2])):
                        steps.append(step(done, *[
                            slice(r.start * w + (j + dc) % w, r.stop * w, w)
                            for dc, r in zip(dcs, rows)]))
    return tuple(steps)


def _reject(out, shape):
    """Raise for an out that is not a float64 array of this shape."""
    raise ValueError(f"out must be a float64 array of shape {shape}, "
                     f"got {out.dtype} {out.shape}")


_FLOAT64 = np.dtype(np.float64)
_MISUSED = "a prepared call runs, with no out, on the method it was made for"


class PreparedCall:
    """A call from FilterBank.prepare: its (function, args) calls fill out."""

    def __init__(self, bank, direction, calls, out):
        self.bank, self.direction = bank, direction
        self.calls, self.out = calls, out


def _ufunc_calls(steps, x, y, scratch):
    """The steps, run on flat views x of the input and y of the output, as
    (ufunc or method, args) calls; the ufuncs take their out positionally."""
    calls = []
    for kind, target, a, b, arg in steps:
        t = y[target]
        if kind == _ADD:
            calls.append((arg, (t, x[a], t)))
        elif kind == _PAIR:
            calls.append((arg, (x[a], x[b], t)))
        elif kind == _ADD_SCALED:
            s = x[a]
            # A contiguous scratch block: numpy buffers strided outputs.
            scaled = scratch[:s.size]
            calls += [(np.multiply, (s, arg, scaled)),
                      (np.add, (t, scaled, t))]
        elif kind == _OPEN:
            calls.append((np.multiply, (x[a], arg, t)))
        else:
            calls.append((t.fill, (0.0,)))
    return calls


class _StencilStage:
    """A stage applied as a sum over its nonzero taps, each read as
    periodic shifts of the flattened input with no padded copy."""

    def __init__(self, stage):
        c_out, c_in_pg, ks, _ = stage.kernels.shape
        per_group = c_out // stage.groups
        r = ks // 2
        # Per target channel, (source, row shift, col shift, weight) in
        # kernel order: the forward correlates, shifting by the tap's offset
        # from the kernel centre; the adjoint shifts the other way, with
        # the channels transposed.
        forward_taps = [[] for _ in range(c_out)]
        adjoint_taps = [[] for _ in range(stage.c_in)]
        for o, i, a, b in np.argwhere(stage.kernels).tolist():
            v = float(stage.kernels[o, i, a, b])
            i += (o // per_group) * c_in_pg
            forward_taps[o].append((i, a - r, b - r, v))
            adjoint_taps[i].append((o, r - a, r - b, v))
        self._taps = (tuple(map(tuple, forward_taps)),
                      tuple(map(tuple, adjoint_taps)))
        self._scratch = {}          # pixels -> block for scaled taps

    def runner(self, direction, shape):
        """The function (x, out) that applies the stage forward (direction
        0) or adjoint (1) to x, whose channels are the sources of the taps,
        shaped (channels, h, w) or (h, w), into out of this shape; into a
        new array when out is None.  out[c] = sum over channel c's taps of
        weight * x[source] shifted periodically, so that element (i, j)
        reads x[source, (i + dr) % h, (j + dc) % w].

        Its plan attribute, plan(x, out), lists the steps as ufunc calls on
        (channels, h * w) views of a C-contiguous x and out that share no
        memory.  Each call of the function runs such a list, on a copy of
        an x that shares memory with out or has no such view, and through a
        new array for an out that is not C-contiguous.  Scaled taps form
        their products in the stage's scratch block for this size.
        """
        taps = self._taps[direction]
        c_in, c_out = len(self._taps[1 - direction]), len(taps)
        h, w = shape[-2:]
        n = h * w
        steps = _stencil_steps(taps, h, w)
        scratch = (self._scratch.setdefault(n, np.empty(n)) if any(
            step[0] == _ADD_SCALED for step in steps) else None)

        def plan(x, out):
            # x.reshape copies when x's strides allow no view.
            return _ufunc_calls(steps, x.reshape(c_in, n),
                                out.reshape(c_out, n), scratch)

        def run(x, out):
            if out is None:
                out = np.empty(shape)
            elif out.shape != shape or out.dtype != _FLOAT64:
                _reject(out, shape)
            elif np.may_share_memory(x, out):
                x = x.copy()        # taps read x while out is written
            y = out if out.flags.c_contiguous else np.empty(shape)
            for f, args in plan(x, y):
                f(*args)
            if y is not out:
                np.copyto(out, y)
            return out
        run.plan = plan
        return run


class _SpectralStage:
    """A stage applied through rFFT multipliers, built once per image
    shape and shared by the runners of both directions."""

    def __init__(self, stage):
        self.kernels = stage.kernels
        self.groups = stage.groups
        self._spectra = {}

    def _spectrum(self, h, w):
        """Multipliers of the center-anchored kernels embedded periodically,
        shaped (groups, c_out_pg, c_in_pg, h, w // 2 + 1)."""
        if (h, w) not in self._spectra:
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
            self._spectra[h, w] = spec.reshape(
                self.groups, c_out // self.groups, *spec.shape[1:])
        return self._spectra[h, w]

    def runner(self, direction, shape):
        """As _StencilStage.runner, through the stage's multipliers, and
        with no plan attribute."""
        h, w = shape[-2:]
        spec = self._spectrum(h, w)
        c_in = self.kernels.shape[0] if direction else (
            self.kernels.shape[1] * self.groups)
        path = "goihw,gohw->gihw" if direction else "goihw,gihw->gohw"

        def run(x, out):
            if out is not None and (out.shape != shape
                                    or out.dtype != _FLOAT64):
                _reject(out, shape)
            xf = np.fft.rfft2(x.reshape(c_in, h, w))
            # Periodic cross-correlation: the forward takes the conjugate
            # multiplier.
            yf = np.einsum(path, spec if direction else np.conj(spec),
                           xf.reshape(self.groups, -1, *spec.shape[3:]))
            y = np.fft.irfft2(yf.reshape(-1, *yf.shape[2:]), s=(h, w))
            if out is None:
                return y.reshape(shape)
            np.copyto(out, y.reshape(shape))
            return out
        return run


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


def difference_bank():
    """Two-channel periodic forward differences (horizontal, vertical)."""
    kern = np.zeros((2, 1, 3, 3))
    kern[0, 0, 1, 1] = -1.0
    kern[0, 0, 1, 2] = 1.0
    kern[1, 0, 1, 1] = -1.0
    kern[1, 0, 2, 1] = 1.0
    return FilterBank([ConvStage(kern, groups=1)])


def box_bank(channels, size=3):
    """Channel-wise normalized box smoothing, one stage."""
    kern = np.full((channels, 1, size, size), 1.0 / size**2)
    return FilterBank([ConvStage(kern, groups=channels)])
