import tracemalloc

import numpy as np
import pytest

from mmrsafi.core import Rng
from mmrsafi.linops import (ConvStage, FilterBank, MatrixOp, _SpectralStage,
                            _StencilStage, box_bank, dense_matrix_of,
                            difference_bank, operator_norm,
                            project_positive_normalized, project_zero_mean)
from mmrsafi.oracle import jacobi_svd_norm


def periodic_correlate(x, k):
    """Direct tap-by-tap periodic correlation; the oracle for bank stages."""
    r = k.shape[0] // 2
    out = np.zeros_like(x)
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            out += k[a + r, b + r] * np.roll(x, shift=(-a, -b), axis=(0, 1))
    return out


def per_tap_stage(stage, x, adjoint=False):
    """One stage as 0 + sum over nonzero taps of weight * shifted slice,
    in tap order, on an np.pad wrap-padded input; the reference the fused
    stencil must match bit for bit."""
    c_out, c_in_pg, ks, _ = stage.kernels.shape
    per_group = c_out // stage.groups
    r, d = ks // 2, ks - 1
    h, w = x.shape[1:]
    xp = np.pad(x, ((0, 0), (r, r), (r, r)), mode="wrap")
    out = np.zeros(((stage.c_in if adjoint else c_out), h, w))
    for o, i, a, b in np.argwhere(stage.kernels).tolist():
        v = float(stage.kernels[o, i, a, b])
        i += (o // per_group) * c_in_pg
        if adjoint:
            out[i] += v * xp[o, d - a:d - a + h, d - b:d - b + w]
        else:
            out[o] += v * xp[i, a:a + h, b:b + w]
    return out


def assert_stencil_matches_per_tap_sum(bank, shape, rng):
    """Each stencil stage of the bank, forward and adjoint, and the whole
    bank equal the per-tap reference exactly."""
    x = rng.gaussian_array((bank.in_channels,) + shape)
    s = rng.gaussian_array((bank.out_channels,) + shape)
    fwd, adj = x, s
    for stage, app in zip(bank.stages, bank._appliers):
        assert type(app) is _StencilStage
        y = rng.gaussian_array((stage.c_out,) + shape)
        assert np.array_equal(app.forward(fwd), per_tap_stage(stage, fwd))
        assert np.array_equal(app.adjoint(y), per_tap_stage(stage, y, True))
        fwd = per_tap_stage(stage, fwd)
    for stage in reversed(bank.stages):
        adj = per_tap_stage(stage, adj, True)
    assert np.array_equal(bank.forward(x), fwd)
    assert np.array_equal(bank.adjoint(s), adj[0] if bank.in_channels == 1
                          else adj)


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
    return {
        "difference": difference_bank(),
        "box": box_bank(2, size=3),
        "mix-1x1": FilterBank([ConvStage(mix, 1)]),
        "signs": FilterBank([ConvStage(signs, 1)]),
        "grouped": FilterBank([ConvStage(sparse_kernels(rng, (3, 1, 3, 3)),
                                         3)]),
        "two-stage": FilterBank([
            ConvStage(sparse_kernels(rng, (2, 1, 3, 3)), 1),
            ConvStage(sparse_kernels(rng, (2, 2, 3, 3)), 1)]),
    }


# 3x3 kernels are taller than the 1x4 and 1x1 images, whose single row is
# its own wrap; test_kernels_wider_than_image adds 5x5 kernels, whose pad
# on 1x4 wraps around the image more than once.
@pytest.mark.parametrize("shape", [(8, 8), (5, 9), (1, 4), (1, 1), (64, 64)],
                         ids=["8x8", "5x9", "1x4", "1x1", "64x64"])
def test_stencil_matches_per_tap_sum(shape):
    rng = Rng(38)
    for bank in stencil_test_banks().values():
        assert_stencil_matches_per_tap_sum(bank, shape, rng)


def test_project_zero_mean():
    assert np.allclose(project_zero_mean([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])
    taps = Rng(1).gaussian_array(49)
    out = project_zero_mean(taps)
    assert abs(out.sum()) < 1e-12
    assert np.allclose(project_zero_mean(out), out)


def test_project_positive_normalized():
    assert np.allclose(project_positive_normalized([-1.0, 1.0, 2.0]),
                       [0.25, 0.25, 0.5])
    assert np.allclose(project_positive_normalized([5.0]), [1.0])
    out = project_positive_normalized(Rng(2).gaussian_array(9))
    assert np.all(out >= 0) and abs(out.sum() - 1.0) < 1e-12
    assert np.allclose(project_positive_normalized(out), out)
    with pytest.raises(ValueError):
        project_positive_normalized(np.zeros(9))


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


@pytest.mark.parametrize("constraint", [None, "zero-mean", "positive-normalized"])
def test_adjoint_identity_sweep(constraint):
    rng = Rng(11)
    kernels = rng.gaussian_array((3, 1, 5, 5)) + 0.1
    bank = FilterBank([ConvStage(kernels, 1)], constraint=constraint)
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
    bank = FilterBank([ConvStage(rng.gaussian_array((2, 1, 3, 3)), 1),
                       ConvStage(rng.gaussian_array((2, 2, 3, 3)), 1)],
                      constraint="zero-mean")
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
    # channel and 3-D otherwise.  The input and out may be strided views.
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
    for apply, arg in ((bank.forward, x), (bank.adjoint, s)):
        ref = apply(arg)
        assert ref.ndim == (2 if apply == bank.adjoint and
                            bank.in_channels == 1 else 3)
        strided = np.zeros(arg.shape[:-1] + (2 * shape[1],))
        strided[..., ::2] = arg
        assert np.array_equal(apply(strided[..., ::2]), ref)
        for out in (np.full(ref.shape, np.nan),
                    np.full(ref.shape[:-1] + (2 * shape[1],), np.nan)[..., ::2]):
            assert apply(arg, out=out) is out
            assert np.array_equal(out, ref)


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
