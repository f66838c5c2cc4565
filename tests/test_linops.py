import tracemalloc
import weakref

import numpy as np
import pytest

from mmrsafi import linops
from mmrsafi.core import Rng
from mmrsafi.linops import (ConvStage, FilterBank, _SpectralStage,
                            _StencilStage, box_bank, difference_bank,
                            operator_norm, project_positive_normalized,
                            project_zero_mean)
from mmrsafi.oracle import MatrixOp, dense_matrix_of, jacobi_svd_norm


def periodic_correlate(x, k):
    """Direct tap-by-tap periodic correlation; the oracle for bank stages."""
    r = k.shape[0] // 2
    out = np.zeros_like(x)
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            out += k[a + r, b + r] * np.roll(x, shift=(-a, -b), axis=(0, 1))
    return out


def per_tap_stage(stage, x, adjoint=False):
    """One stage as a sum over nonzero taps of weight * shifted slice, in
    tap order, on an np.pad wrap-padded input, each channel opened by its
    first tap; the reference the fused stencil must match bit for bit, sign
    of zero included."""
    c_out, c_in_pg, ks, _ = stage.kernels.shape
    per_group = c_out // stage.groups
    r, d = ks // 2, ks - 1
    h, w = x.shape[1:]
    xp = np.pad(x, ((0, 0), (r, r), (r, r)), mode="wrap")
    out = np.zeros(((stage.c_in if adjoint else c_out), h, w))
    opened = set()
    for o, i, a, b in np.argwhere(stage.kernels).tolist():
        v = float(stage.kernels[o, i, a, b])
        i += (o // per_group) * c_in_pg
        if adjoint:
            c, term = i, v * xp[o, d - a:d - a + h, d - b:d - b + w]
        else:
            c, term = o, v * xp[i, a:a + h, b:b + w]
        if c in opened:
            out[c] += term
        else:
            out[c] = term
            opened.add(c)
    return out


def assert_same_bits(a, b):
    """Equal values with equal signs, so +0 and -0 differ."""
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_stencil_matches_per_tap_sum(bank, shape, rng):
    """Each stencil stage of the bank, forward and adjoint, and the whole
    bank equal the per-tap reference exactly, on Gaussian inputs and on
    rounded ones, whose signed zeros and cancelling taps test zero signs."""
    for draw in (rng.gaussian_array,
                 lambda shape: np.round(rng.gaussian_array(shape))):
        x = draw((bank.in_channels,) + shape)
        s = draw((bank.out_channels,) + shape)
        fwd, adj = x, s
        for stage, app in zip(bank.stages, bank._appliers):
            assert type(app) is _StencilStage
            y = draw((stage.c_out,) + shape)
            forward = app.runner(0, (stage.c_out,) + shape)
            adjoint = app.runner(1, (stage.c_in,) + shape)
            assert_same_bits(forward(fwd, None), per_tap_stage(stage, fwd))
            assert_same_bits(adjoint(y, None), per_tap_stage(stage, y, True))
            fwd = per_tap_stage(stage, fwd)
        for stage in reversed(bank.stages):
            adj = per_tap_stage(stage, adj, True)
        assert_same_bits(bank.forward(x), fwd)
        assert_same_bits(bank.adjoint(s),
                         adj[0] if bank.in_channels == 1 else adj)


def sparse_kernels(rng, shape):
    """Gaussian taps with about half of them zeroed."""
    return rng.gaussian_array(shape) * (rng.uniform_array(shape) < 0.5)


def stencil_test_banks():
    rng = Rng(37)
    mix = rng.gaussian_array((3, 1, 1, 1))
    mix[1] = 0.0                       # a channel with no taps at all
    signs = np.zeros((2, 1, 3, 3))     # +-1 taps, first pair (+1, -1)
    signs[0, 0, 0, 1], signs[0, 0, 1, 0], signs[0, 0, 2, 2] = 1.0, -1.0, -1.0
    signs[1, 0, 1, 1], signs[1, 0, 2, 0] = -1.0, 2.0
    # 5x5, channel-wise, so the adjoint keeps each channel's first pair:
    # (+1, +1) cut at different rows and columns, then a third tap;
    # (-1, +1); (-1, -1), which is not merged; (+1, -1) on one row.
    pairs = np.zeros((4, 1, 5, 5))
    pairs[0, 0, 0, 0], pairs[0, 0, 4, 3], pairs[0, 0, 4, 4] = 1.0, 1.0, 0.5
    pairs[1, 0, 1, 2], pairs[1, 0, 3, 0], pairs[1, 0, 4, 4] = -1.0, 1.0, 2.0
    pairs[2, 0, 0, 4], pairs[2, 0, 2, 1], pairs[2, 0, 4, 4] = -1.0, -1.0, 1.0
    pairs[3, 0, 2, 2], pairs[3, 0, 2, 3] = 1.0, -1.0
    # An unpaired -1 opens the channel from a column that wraps; numpy
    # 2.4's np.negative misreads such column views on 8-column images.
    negate = np.zeros((1, 1, 3, 3))
    negate[0, 0, 0, 2], negate[0, 0, 1, 1] = -1.0, 0.5
    return {
        "difference": difference_bank(),
        "box": box_bank(2, size=3),
        "mix-1x1": FilterBank([ConvStage(mix, 1)]),
        "signs": FilterBank([ConvStage(signs, 1)]),
        "pairs": FilterBank([ConvStage(pairs, 4)]),
        "negate": FilterBank([ConvStage(negate, 1)]),
        "grouped": FilterBank([ConvStage(sparse_kernels(rng, (3, 1, 3, 3)),
                                         3)]),
        "two-stage": FilterBank([
            ConvStage(sparse_kernels(rng, (2, 1, 3, 3)), 1),
            ConvStage(sparse_kernels(rng, (2, 2, 3, 3)), 1)]),
    }


# 3x3 kernels are taller than the 1x4 and 1x1 images, whose single row is
# its own wrap; the 5x5 pairs, and test_kernels_wider_than_image's other
# 5x5 kernels, wrap around the 1x4 image more than once.
@pytest.mark.parametrize("shape", [(8, 8), (5, 9), (3, 8), (1, 4), (1, 1),
                                   (64, 64)],
                         ids=["8x8", "5x9", "3x8", "1x4", "1x1", "64x64"])
def test_stencil_matches_per_tap_sum(shape):
    rng = Rng(38)
    for bank in stencil_test_banks().values():
        assert_stencil_matches_per_tap_sum(bank, shape, rng)


def test_project_zero_mean():
    assert np.allclose(project_zero_mean([[1.0, 2.0, 3.0]]),
                       [[-1.0, 0.0, 1.0]])
    taps = Rng(1).gaussian_array((7, 7))
    out = project_zero_mean(taps)
    assert abs(out.sum()) < 1e-12
    assert np.allclose(project_zero_mean(out), out)
    # A stack is projected kernel by kernel, over its last two axes.
    stack = Rng(3).gaussian_array((3, 2, 5, 5))
    out = project_zero_mean(stack)
    for o in range(3):
        for i in range(2):
            assert np.array_equal(out[o, i], project_zero_mean(stack[o, i]))


def test_project_positive_normalized():
    assert np.allclose(project_positive_normalized([[-1.0, 1.0, 2.0]]),
                       [[0.25, 0.25, 0.5]])
    assert np.allclose(project_positive_normalized([[5.0]]), [[1.0]])
    out = project_positive_normalized(Rng(2).gaussian_array((3, 3)))
    assert np.all(out >= 0) and abs(out.sum() - 1.0) < 1e-12
    assert np.allclose(project_positive_normalized(out), out)
    with pytest.raises(ValueError):
        project_positive_normalized(np.zeros((3, 3)))
    # A stack is projected kernel by kernel; one all-zero kernel is refused.
    stack = Rng(4).gaussian_array((3, 2, 5, 5))
    out = project_positive_normalized(stack)
    for o in range(3):
        for i in range(2):
            assert np.array_equal(out[o, i],
                                  project_positive_normalized(stack[o, i]))
    stack[2, 1] = 0.0
    with pytest.raises(ValueError, match="degenerate kernel"):
        project_positive_normalized(stack)


def test_bank_needs_a_stage():
    with pytest.raises(ValueError, match="at least one stage"):
        FilterBank([])


def test_forward_zero_and_identity():
    bank = difference_bank()
    assert np.all(bank.forward(np.zeros((5, 5))) == 0.0)
    kern = np.ones((1, 1, 1, 1))
    ident = FilterBank([ConvStage(kern, 1)])
    x = Rng(3).gaussian_array((4, 4))
    assert np.allclose(ident.forward(x)[0], x)


def test_forward_matches_direct_correlation():
    rng = Rng(5)
    x = rng.gaussian_array((8, 8))
    k1 = rng.gaussian_array((3, 1, 3, 3))
    k2 = rng.gaussian_array((3, 3, 3, 3))
    fb = FilterBank([ConvStage(k1, 1), ConvStage(k2, 1)])
    mid = np.stack([periodic_correlate(x, k1[c, 0]) for c in range(3)])
    ref = np.stack([sum(periodic_correlate(mid[i], k2[o, i]) for i in range(3))
                    for o in range(3)])
    assert np.max(np.abs(fb.forward(x) - ref)) < 1e-12


def test_grouped_forward_is_channelwise():
    rng = Rng(6)
    stack = rng.gaussian_array((3, 8, 8))
    kg = rng.gaussian_array((3, 1, 3, 3))
    fg = FilterBank([ConvStage(kg, 3)])
    ref = np.stack([periodic_correlate(stack[c], kg[c, 0]) for c in range(3)])
    assert np.max(np.abs(fg.forward(stack) - ref)) < 1e-12


def test_forward_matches_dense_materialization():
    rng = Rng(7)
    fb = FilterBank([ConvStage(rng.gaussian_array((2, 1, 3, 3)), 1)])
    A = dense_matrix_of(fb.forward, (8, 8))
    x = rng.gaussian_array((8, 8))
    assert np.max(np.abs(fb.forward(x).ravel() - A @ x.ravel())) < 1e-12
    u = rng.gaussian_array((2, 8, 8))
    assert np.max(np.abs(fb.adjoint(u).ravel() - A.T @ u.ravel())) < 1e-12


def wide_kernels(rng, shape, sparse):
    """5x5 kernels; sparse ones keep five taps, two of them at the corners."""
    kern = rng.gaussian_array(shape)
    if sparse:
        keep = np.zeros((5, 5), dtype=bool)
        keep[0, 0] = keep[4, 4] = keep[0, 3] = keep[2, 2] = keep[4, 1] = True
        kern = kern * keep
    return kern


@pytest.mark.parametrize("sparse, applier", [(True, _StencilStage),
                                             (False, _SpectralStage)],
                         ids=["stencil", "fft"])
@pytest.mark.parametrize("shape", [(3, 3), (1, 4), (2, 3)],
                         ids=["3x3", "1x4", "2x3"])
def test_kernels_wider_than_image(sparse, applier, shape):
    # Taps reach across the whole image, on 1x4 around it more than once;
    # each path must sum every wrapped tap.
    rng = Rng(23)
    kg = wide_kernels(rng, (3, 1, 5, 5), sparse)
    grouped = FilterBank([ConvStage(kg, 3)])
    k1 = wide_kernels(rng, (2, 1, 5, 5), sparse)
    k2 = wide_kernels(rng, (2, 2, 5, 5), sparse)
    two_stage = FilterBank([ConvStage(k1, 1), ConvStage(k2, 1)])
    for bank in (grouped, two_stage):
        assert all(type(app) is applier for app in bank._appliers)

    stack = rng.gaussian_array((3,) + shape)
    ref = np.stack([periodic_correlate(stack[c], kg[c, 0]) for c in range(3)])
    assert np.max(np.abs(grouped.forward(stack) - ref)) < 1e-12
    x = rng.gaussian_array(shape)
    mid = np.stack([periodic_correlate(x, k1[c, 0]) for c in range(2)])
    ref = np.stack([sum(periodic_correlate(mid[i], k2[o, i]) for i in range(2))
                    for o in range(2)])
    assert np.max(np.abs(two_stage.forward(x) - ref)) < 1e-12

    for bank, in_shape in ((grouped, (3,) + shape), (two_stage, shape)):
        A = dense_matrix_of(bank.forward, in_shape)
        u = rng.gaussian_array((bank.out_channels,) + shape)
        assert np.max(np.abs(bank.adjoint(u).ravel() - A.T @ u.ravel())) < 1e-12
        if sparse:
            assert_stencil_matches_per_tap_sum(bank, shape, rng)
    if sparse:
        for bank in stencil_test_banks().values():
            assert_stencil_matches_per_tap_sum(bank, shape, rng)


@pytest.mark.parametrize(
    "project", [np.asarray, project_zero_mean, project_positive_normalized],
    ids=["None", "zero-mean", "positive-normalized"])
def test_adjoint_identity_sweep(project):
    rng = Rng(11)
    kernels = project(rng.gaussian_array((3, 1, 5, 5)) + 0.1)
    bank = FilterBank([ConvStage(kernels, 1)])
    for _ in range(100):
        x = rng.gaussian_array((8, 8))
        s = rng.gaussian_array((3, 8, 8))
        lhs = np.sum(bank.forward(x) * s)
        rhs = np.sum(x * bank.adjoint(s))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_adjoint_of_identity_bank_sums_channels():
    kern = np.ones((2, 1, 1, 1))
    bank = FilterBank([ConvStage(kern, 1)])
    s = Rng(12).gaussian_array((2, 4, 4))
    assert np.allclose(bank.adjoint(s), s[0] + s[1])


def test_zero_mean_annihilates_constants():
    rng = Rng(13)
    bank = FilterBank(
        [ConvStage(project_zero_mean(rng.gaussian_array((2, 1, 3, 3))), 1),
         ConvStage(project_zero_mean(rng.gaussian_array((2, 2, 3, 3))), 1)])
    out = bank.forward(np.full((8, 8), 3.7))
    assert np.max(np.abs(out)) < 1e-12


def test_positive_normalized_preserves_ones():
    bank = box_bank(2, size=3)
    ones = np.ones((2, 8, 8))
    assert np.max(np.abs(bank.forward(ones) - 1.0)) < 1e-12
    assert np.max(np.abs(bank.adjoint(ones) - 1.0)) < 1e-12


def test_dense_of_forward_difference_is_circulant():
    kern = np.zeros((1, 1, 3, 3))
    kern[0, 0, 1, 1] = -1.0
    kern[0, 0, 1, 2] = 1.0
    fd = FilterBank([ConvStage(kern, 1)])
    D = dense_matrix_of(fd.forward, (1, 4))
    expect = np.array([[-1, 1, 0, 0], [0, -1, 1, 0],
                       [0, 0, -1, 1], [1, 0, 0, -1]], dtype=float)
    assert np.allclose(D, expect)


def test_dense_matrix_identity_and_cap():
    ident = dense_matrix_of(lambda v: v, (2, 2))
    assert np.allclose(ident, np.eye(4))
    with pytest.raises(ValueError):
        dense_matrix_of(lambda v: v, (65, 65))


def test_operator_norm_known_spectra():
    ident = MatrixOp(np.eye(8), (8,))
    assert operator_norm(ident.forward, ident.adjoint, (8,), iters=50,
                         rng=Rng(0)) == pytest.approx(1.0, abs=1e-8)
    scale = MatrixOp(3.0 * np.eye(8), (8,))
    assert operator_norm(scale.forward, scale.adjoint, (8,), iters=50,
                         rng=Rng(0)) == pytest.approx(3.0, abs=1e-6)
    zero = MatrixOp(np.zeros((8, 8)), (8,))
    assert operator_norm(zero.forward, zero.adjoint, (8,), rng=Rng(0)) == 0.0


def test_operator_norm_matches_jacobi_svd():
    rng = Rng(17)
    A = rng.gaussian_array((12, 12))
    op = MatrixOp(A, (12,))
    est = operator_norm(op.forward, op.adjoint, (12,), iters=500, rng=Rng(0))
    assert est == pytest.approx(jacobi_svd_norm(A), abs=1e-6)


def test_bank_linearity():
    rng = Rng(19)
    bank = difference_bank()
    x1 = rng.gaussian_array((6, 6))
    x2 = rng.gaussian_array((6, 6))
    lhs = bank.forward(2.0 * x1 - 3.0 * x2)
    rhs = 2.0 * bank.forward(x1) - 3.0 * bank.forward(x2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bank_owns_its_kernels():
    # Spectral stages build their multipliers per shape on first use, so a
    # bank that aliased the caller's array would change with it silently.
    rng = Rng(31)
    sparse = np.zeros((2, 1, 3, 3))
    sparse[:, 0, 1, 1] = -1.0
    sparse[0, 0, 1, 2] = sparse[1, 0, 2, 1] = 1.0
    dense = rng.gaussian_array((3, 1, 7, 7))
    x = rng.gaussian_array((9, 10))
    for kernels, applier in ((sparse, _StencilStage), (dense, _SpectralStage)):
        bank = FilterBank([ConvStage(kernels, 1)])
        assert type(bank._appliers[0]) is applier
        expected = FilterBank([ConvStage(kernels.copy(), 1)])
        kernels[...] = rng.gaussian_array(kernels.shape)
        assert np.array_equal(bank.stages[0].kernels,
                              expected.stages[0].kernels)
        y = expected.forward(x)
        assert np.array_equal(bank.forward(x), y)
        assert np.array_equal(bank.adjoint(y), expected.adjoint(y))


def norm_test_banks():
    rng = Rng(29)
    return {
        "difference": difference_bank(),
        "box": box_bank(2, size=3),
        "mix-1x1": FilterBank([ConvStage(rng.gaussian_array((3, 1, 1, 1)), 1)]),
        "two-stage": FilterBank([ConvStage(rng.gaussian_array((2, 1, 3, 3)), 1),
                                 ConvStage(rng.gaussian_array((2, 2, 3, 3)), 1)]),
        "c_in-3": FilterBank([ConvStage(rng.gaussian_array((3, 1, 3, 3)), 3),
                              ConvStage(rng.gaussian_array((2, 3, 1, 1)), 1)]),
        "fft-7x7": FilterBank([ConvStage(rng.gaussian_array((3, 1, 7, 7)), 1)]),
    }


# 3x3 kernels are wider than the 1x4 image, 7x7 ones than all but 8x8.
@pytest.mark.parametrize("shape", [(8, 8), (3, 3), (1, 4), (5, 9)],
                         ids=["8x8", "3x3", "1x4", "5x9"])
def test_bank_norm_matches_dense_svd(shape):
    banks = norm_test_banks()
    assert all(type(app) is _SpectralStage
               for app in banks["fft-7x7"]._appliers)
    for name, bank in banks.items():
        in_shape = shape if bank.in_channels == 1 else (bank.in_channels,) + shape
        exact = np.linalg.norm(dense_matrix_of(bank.forward, in_shape), 2)
        norm = bank.norm(shape)
        assert abs(norm - exact) < 1e-12, name
        bank.forward = None     # the cached value needs no further bank call
        assert bank.norm(list(shape)) == norm


def test_matrix_op_norm_is_exact():
    A = Rng(31).gaussian_array((12, 12))
    assert MatrixOp(A, (12,)).norm == pytest.approx(jacobi_svd_norm(A),
                                                    abs=1e-12)



def out_test_banks():
    rng = Rng(41)
    return {
        "stencil": difference_bank(),
        "stencil-c_in-3": FilterBank(
            [ConvStage(sparse_kernels(rng, (3, 1, 3, 3)), 3)]),
        "spectral": FilterBank([ConvStage(rng.gaussian_array((3, 1, 7, 7)),
                                          1)]),
        "spectral-c_in-2": FilterBank(
            [ConvStage(rng.gaussian_array((2, 2, 7, 7)), 1)]),
        "two-stage": FilterBank([
            ConvStage(sparse_kernels(rng, (2, 1, 3, 3)), 1),
            ConvStage(rng.gaussian_array((2, 2, 7, 7)), 1)]),
    }


@pytest.mark.parametrize("name", list(out_test_banks()))
def test_out_is_filled_and_returned(name):
    # Forward outputs are 3-D; adjoint outputs are 2-D for one input
    # channel and 3-D otherwise.  The input and out may be strided views,
    # with or without the flat (channels, h * w) view stencils run on.
    # Outs start as signalling NaNs, so that a step reading an element of
    # out before writing it raises.
    bank = out_test_banks()[name]
    expect = {"stencil": _StencilStage, "stencil-c_in-3": _StencilStage,
              "spectral": _SpectralStage, "spectral-c_in-2": _SpectralStage}
    if name in expect:
        assert type(bank._appliers[0]) is expect[name]
    rng = Rng(42)
    shape = (8, 8)
    x = rng.gaussian_array(shape if bank.in_channels == 1
                           else (bank.in_channels,) + shape)
    s = rng.gaussian_array((bank.out_channels,) + shape)

    def views(like):
        """An array shaped like like, then views shaped like it: every
        other column, the left half (no flat view), all but the last row
        (a flat view with gaps between channels), transposed."""
        def unset(shape):
            return np.full(shape, 0x7FF0000000000001,
                           dtype=np.int64).view(np.float64)
        lead = like.shape[:-2]
        return (unset(like.shape), unset(lead + (8, 16))[..., ::2],
                unset(lead + (8, 16))[..., :8], unset(lead + (9, 8))[..., :8, :],
                unset(like.shape).swapaxes(-1, -2))

    for apply, arg in ((bank.forward, x), (bank.adjoint, s)):
        ref = apply(arg)
        assert ref.ndim == (2 if apply == bank.adjoint and
                            bank.in_channels == 1 else 3)
        for view in views(arg):
            view[...] = arg
            assert_same_bits(apply(view), ref)
        for out in views(ref):
            with np.errstate(invalid="raise"):
                assert apply(arg, out=out) is out
            assert_same_bits(out, ref)


def test_bad_out_rejected():
    bank = difference_bank()
    rng = Rng(43)
    x = rng.gaussian_array((8, 8))
    s = rng.gaussian_array((2, 8, 8))
    for out in (np.empty((3, 8, 8)), np.empty((2, 8, 9)),
                np.empty((2, 8, 8), dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be"):
            bank.forward(x, out=out)
    # One input channel: the adjoint's out is 2-D, like its result.
    with pytest.raises(ValueError, match="out must be"):
        bank.adjoint(s, out=np.empty((1, 8, 8)))


@pytest.mark.parametrize("name", list(out_test_banks()))
def test_cached_runner_still_checks_its_arrays(name):
    # A shape's first call caches its runner; later calls of the shape must
    # still refuse a bad input or out, and still handle an out that shares
    # memory with the input or has no flat (channels, h * w) view.
    bank, fresh = out_test_banks()[name], out_test_banks()[name]
    rng = Rng(46)
    shape = (8, 8)
    x = rng.gaussian_array((bank.in_channels,) + shape)
    s = rng.gaussian_array((bank.out_channels,) + shape)
    cases = ((bank.forward, fresh.forward, x),
             (bank.adjoint, fresh.adjoint, s))
    for apply, _, arg in cases:
        apply(arg)
    assert len(bank._runners) == 2
    for apply, _, arg in cases:
        res = apply(arg).shape
        with pytest.raises(ValueError, match="channels"):
            apply(np.concatenate([arg, arg[:1]]))
        for out in (np.empty(res[:-1] + (9,)),
                    np.empty(res, dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                apply(arg, out=out)
    assert len(bank._runners) == 2
    for apply, apply_fresh, arg in cases:
        ref = apply_fresh(arg)
        # The input and out are views of one buffer.
        buf = np.empty((max(arg.size, ref.size),))
        view = buf[:arg.size].reshape(arg.shape)
        view[...] = arg
        out = buf[:ref.size].reshape(ref.shape)
        assert apply(view, out=out) is out
        assert_same_bits(out, ref)
        out = np.empty(ref.shape[:-1] + (16,))[..., :8]
        assert apply(arg, out=out) is out
        assert_same_bits(out, ref)
    assert len(bank._runners) == 2


@pytest.mark.parametrize("applier", [_StencilStage, _SpectralStage],
                         ids=["stencil", "fft"])
def test_out_may_share_memory_with_the_input(applier):
    # Stencil taps read the input while they write out; an out that is the
    # input, or a view of it, must still get the result of out=None.
    rng = Rng(44)
    square = (box_bank(2, size=3) if applier is _StencilStage else
              FilterBank([ConvStage(rng.gaussian_array((2, 2, 7, 7)), 1)]))
    one_in = (difference_bank() if applier is _StencilStage else
              FilterBank([ConvStage(rng.gaussian_array((2, 1, 7, 7)), 1)]))
    for bank in (square, one_in):
        assert all(type(app) is applier for app in bank._appliers)
    s = rng.gaussian_array((2, 8, 8))
    for apply in (square.forward, square.adjoint):
        ref, arg = apply(s), s.copy()
        assert apply(arg, out=arg) is arg
        assert np.array_equal(arg, ref)
    ref, arg = one_in.adjoint(s), s.copy()
    out = arg[1]
    assert one_in.adjoint(arg, out=out) is out
    assert np.array_equal(out, ref)
    x = rng.gaussian_array((8, 8))
    ref, arg = one_in.forward(x), np.stack([x, x])
    one_in.forward(arg[0], out=arg)
    assert np.array_equal(arg, ref)


@pytest.mark.parametrize("shape", [(8, 8), (64, 64), (256, 256)],
                         ids=["8x8", "64x64", "256x256"])
def test_stencil_step_counts(shape):
    # A column where taps wrap is redone once, right after the last term
    # that wraps in it, through the terms up to that one; the terms after
    # it are exact there.  test_stencil_matches_per_tap_sum guards the bits.
    def counts(bank):
        return [len(linops._stencil_steps(taps, *shape))
                for taps in bank._appliers[0]._taps]

    # Forward: one (-1, +1) pair per channel, the horizontal one redoing
    # its last column.  Adjoint: the pair that wraps in column 0 runs as
    # one flat block and is redone there; two terms follow, exact on it.
    assert counts(difference_bank()) == [4, 5]
    assert max(counts(box_bank(2, 3))) <= 82


def test_stencil_allocates_less_than_an_image():
    # The taps read the input in place: no padded copy, no new output.
    bank = difference_bank()
    x = Rng(45).gaussian_array((256, 256))
    s = bank.forward(x)
    back = np.empty_like(x)
    bank.adjoint(s, out=back)
    for apply, arg, out in ((bank.forward, x, s), (bank.adjoint, s, back)):
        tracemalloc.start()
        try:
            apply(arg, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes


def test_stencil_steps_are_built_once_per_shape(monkeypatch):
    built = []

    def counting(taps, h, w):
        built.append((h, w))
        return real(taps, h, w)

    real = linops._stencil_steps
    monkeypatch.setattr(linops, "_stencil_steps", counting)
    bank = stencil_test_banks()["two-stage"]
    rng = Rng(47)
    x = rng.gaussian_array((8, 8))
    s = rng.gaussian_array((bank.out_channels, 8, 8))
    for apply, arg in ((bank.forward, x), (bank.adjoint, s)):
        before = len(built)
        first = apply(arg)
        assert len(built) == before + 2         # one per stage
        assert_same_bits(apply(arg), first)
        assert len(built) == before + 2

    # Steps cached for one shape never serve another: a bank used on 8x8,
    # then 5x9, then 8x8 again gives the bits of fresh banks.
    used = stencil_test_banks()
    for shape in ((8, 8), (5, 9), (8, 8)):
        for name, bank in used.items():
            fresh = stencil_test_banks()[name]
            x = rng.gaussian_array((bank.in_channels,) + shape)
            s = rng.gaussian_array((bank.out_channels,) + shape)
            assert_same_bits(bank.forward(x), fresh.forward(x))
            assert_same_bits(bank.adjoint(s), fresh.adjoint(s))
    assert all(len(bank._runners) == 4 for bank in used.values())


def prepared_test_banks():
    """Every stencil test bank and every bank of out_test_banks, which
    adds FFT stages and a bank that mixes the two."""
    banks = stencil_test_banks()
    banks.update(("out-" + name, bank)
                 for name, bank in out_test_banks().items())
    return banks


def test_plan_replay_reads_the_input_as_it_is_now():
    # The dual prox prepares its bank calls once per solve, a plan each,
    # and replays them on buffers whose contents change every iteration:
    # each replay reads the input as it is then, and gives the bits of a
    # plain call.
    rng = Rng(48)
    banks, fresh = prepared_test_banks(), prepared_test_banks()
    for shape in ((8, 8), (5, 9), (64, 64), (72, 72), (256, 256)):
        for name, bank in banks.items():
            c_in, c_out = bank.in_channels, bank.out_channels
            x = np.empty(shape if c_in == 1 else (c_in,) + shape)
            s = np.empty((c_out,) + shape)
            fwd, adj = np.empty_like(s), np.empty_like(x)
            forward = bank.prepare(0, x, fwd)
            adjoint = bank.prepare(1, s, adj)
            for draw in range(3):
                x[...] = np.round(rng.gaussian_array(x.shape), draw)
                s[...] = np.round(rng.gaussian_array(s.shape), draw)
                assert bank.forward(forward) is fwd
                assert bank.adjoint(adjoint) is adj
                assert_same_bits(fwd, fresh[name].forward(x))
                assert_same_bits(adj, fresh[name].adjoint(s))


def read_only_like(a):
    a = np.empty_like(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("name", ["difference", "box", "pairs", "two-stage",
                                  "out-spectral", "out-two-stage"])
def test_prepare_refuses_pairs_it_cannot_run_in_place(name):
    # A prepared call is checked once, when it is made.  Where a plain call
    # refuses the pair too, prepare raises the plain call's error; stencil
    # stages refuse a read-only out with numpy's message.
    bank = prepared_test_banks()[name]
    x = Rng(49).gaussian_array((bank.in_channels, 8, 8))
    out = np.empty((bank.out_channels, 8, 8))
    for arg, bad in ((np.concatenate([x, x[:1]]), out),
                     (x, np.empty((bank.out_channels, 8, 9))),
                     (x, out.astype(np.float32))):
        with pytest.raises(ValueError) as want:
            bank.forward(arg, out=bad)
        with pytest.raises(ValueError) as got:
            bank.prepare(0, arg, bad)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="read-only") as got:
        bank.prepare(0, x, read_only_like(out))
    if type(bank._appliers[-1]) is _StencilStage:
        with pytest.raises(ValueError) as want:
            bank.forward(x, out=read_only_like(out))
        assert str(got.value) == str(want.value)
    # It reads a float64 input in place: anything else would need a copy.
    for arg in (x.astype(np.float32), x.tolist()):
        with pytest.raises(ValueError, match="float64 input"):
            bank.prepare(0, arg, out)
    # It runs only on the method and bank it was made for, with no out.
    forward = bank.prepare(0, x, out)
    other = prepared_test_banks()[name]
    for apply, kwargs in ((bank.adjoint, {}), (other.forward, {}),
                          (bank.forward, {"out": out})):
        with pytest.raises(ValueError, match="on the method it was made"):
            apply(forward, **kwargs)


@pytest.mark.parametrize("name", ["difference", "box", "pairs"])
def test_arrays_that_alias_or_do_not_flatten_keep_no_plan(name):
    # Plain calls copy an input that shares memory with out, and fill an
    # out with no flat view from a new array; each gives, repeated, the
    # bits of a fresh bank.  A plan reads its input and writes its out in
    # place, so prepare refuses these pairs.
    bank, fresh = stencil_test_banks()[name], stencil_test_banks()[name]
    rng = Rng(50)
    c_in, c_out = bank.in_channels, bank.out_channels
    x = rng.gaussian_array((c_in, 8, 8))
    size = 64 * max(c_in, c_out)
    buf = np.empty(2 * size)
    shared = buf[:x.size].reshape(x.shape)
    overlap = buf[x.size // 2:][:64 * c_out].reshape(c_out, 8, 8)
    cases = [(shared, overlap, "share memory"),
             (shared, buf[:64 * c_out].reshape(c_out, 8, 8), "share memory"),
             (x[:, :, ::-1], np.empty((c_out, 8, 8)), "C-contiguous float64"),
             (np.asfortranarray(x), np.empty((c_out, 8, 8)),
              "C-contiguous float64"),
             (x, np.empty((c_out, 8, 16))[..., :8], "C-contiguous out"),
             (x, np.empty((c_out, 9, 8))[:, :8], "C-contiguous out")]
    for arg, out, message in cases:
        for _ in range(3):
            if arg is shared:
                shared[...] = x
            ref = fresh.forward(arg)
            assert bank.forward(arg, out=out) is out
            assert_same_bits(out, ref)
        with pytest.raises(ValueError, match=message):
            bank.prepare(0, arg, out)


def test_bank_calls_keep_no_array_of_the_caller():
    # A bank holds no reference to the arrays of earlier calls, plain or
    # prepared: each is freed once the caller drops it.
    rng = Rng(51)
    for bank in prepared_test_banks().values():
        for shape in ((8, 8), (64, 64)):
            c_in, c_out = bank.in_channels, bank.out_channels
            x = rng.gaussian_array(shape if c_in == 1 else (c_in,) + shape)
            s = rng.gaussian_array((c_out,) + shape)
            fwd, adj = np.empty_like(s), np.empty_like(x)
            bank.forward(x, out=fwd)
            bank.adjoint(s, out=adj)
            prepared = bank.prepare(0, x, fwd), bank.prepare(1, s, adj)
            bank.forward(prepared[0])
            bank.adjoint(prepared[1])
            results = bank.forward(x), bank.adjoint(s)
            refs = [weakref.ref(a) for a in (x, s, fwd, adj) + results]
            del x, s, fwd, adj, prepared, results
            assert [r() is None for r in refs] == [True] * len(refs)


def test_multi_stage_banks_on_their_own_buffers_match_fresh_banks():
    rng = Rng(52)
    banks = {"stencil-two-stage": stencil_test_banks()["two-stage"],
             "mixed-two-stage": out_test_banks()["two-stage"]}
    for name, bank in banks.items():
        fresh = {"stencil-two-stage": stencil_test_banks,
                 "mixed-two-stage": out_test_banks}[name]()["two-stage"]
        for shape in ((8, 8), (5, 9), (64, 64)):
            x = np.empty((bank.in_channels,) + shape)
            s = np.empty((bank.out_channels,) + shape)
            fwd, adj = np.empty_like(s), np.empty(shape)
            for _ in range(3):
                x[...] = rng.gaussian_array(x.shape)
                s[...] = rng.gaussian_array(s.shape)
                bank.forward(x, out=fwd)
                bank.adjoint(s, out=adj)
                assert_same_bits(fwd, fresh.forward(x))
                assert_same_bits(adj, fresh.adjoint(s))


def test_multi_stage_banks_keep_no_plans():
    # A chain hands its last stage a new intermediate array at every call,
    # so no ufunc plan on fixed arrays exists for it: a prepared call of a
    # chain runs the chain's runner on its x and out.  Repeated plain and
    # prepared calls on the same x and out give a fresh bank's bits.
    grouped = Rng(55).gaussian_array((2, 1, 3, 3))

    def make():
        return FilterBank([difference_bank().stages[0],
                           ConvStage(grouped, groups=2)])
    bank, fresh = make(), make()
    rng = Rng(56)
    x, s = np.empty((8, 8)), np.empty((2, 8, 8))
    fwd, adj = np.empty((2, 8, 8)), np.empty((8, 8))
    forward, adjoint = bank.prepare(0, x, fwd), bank.prepare(1, s, adj)
    for prepared, runner, arg, out in ((forward, bank._runners[0, (8, 8)],
                                        x, fwd),
                                       (adjoint, bank._runners[1, (2, 8, 8)],
                                        s, adj)):
        ((f, args),) = prepared.calls
        assert f is runner and args[0] is arg and args[1] is out
    for _ in range(3):
        x[...] = rng.gaussian_array(x.shape)
        s[...] = rng.gaussian_array(s.shape)
        assert bank.forward(x, out=fwd) is fwd
        assert bank.adjoint(s, out=adj) is adj
        assert_same_bits(fwd, fresh.forward(x))
        assert_same_bits(adj, fresh.adjoint(s))
        fwd[...] = adj[...] = np.nan
        assert bank.forward(forward) is fwd
        assert bank.adjoint(adjoint) is adj
        assert_same_bits(fwd, fresh.forward(x))
        assert_same_bits(adj, fresh.adjoint(s))
