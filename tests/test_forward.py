import numpy as np
import pytest

from mmrsafi.core import Rng
from mmrsafi.forward import (IdentityOp, MaskedDftOp, add_noise,
                             make_cartesian_mask, read_mask_file,
                             write_mask_file)
from mmrsafi.linops import operator_norm
from mmrsafi.oracle import MatrixOp


def full_dft_op(n=8):
    return MaskedDftOp(np.ones(n, dtype=bool), n, n)


def test_identity_roundtrip():
    x = Rng(0).gaussian_array((4, 4))
    H = IdentityOp()
    assert np.array_equal(H.forward(x), x)
    assert np.array_equal(H.adjoint(x), x)


def normal_test_masks(n):
    """Centered column masks: DC and Nyquist kept with unpaired columns
    (whose mirror frequency is dropped), a random Cartesian mask and the
    full mask."""
    mask = np.zeros(n, dtype=bool)
    mask[[0, 1, n // 2, n // 2 + 1]] = True   # Nyquist, 1-n/2, DC, 1
    return [mask, make_cartesian_mask(n, 4, 0.1, Rng(n)),
            np.ones(n, dtype=bool)]


@pytest.mark.parametrize("n", [8, 16, 64])
def test_normal_matches_operator_pair(n):
    rng = Rng(40 + n)
    for mask in normal_test_masks(n):
        H = MaskedDftOp(mask, n, n)
        for _ in range(3):
            x = rng.gaussian_array((n, n))
            ref = H.adjoint(H.forward(x))
            assert np.max(np.abs(H.normal(x) - ref)) <= 1e-13
    with pytest.raises(ValueError):
        H.normal(np.zeros((n, n + 1)))


def test_identity_and_matrix_normal():
    rng = Rng(41)
    x = rng.gaussian_array((4, 4))
    # H^T H = I needs no normal map: FBS takes H^T y from adjoint, which
    # returns a new array.
    out = IdentityOp().adjoint(x)
    assert np.array_equal(out, x) and out is not x
    A = rng.gaussian_array((10, 16))
    H = MatrixOp(A, (4, 4))
    assert np.array_equal(H.normal(x), H.adjoint(H.forward(x)))
    assert np.max(np.abs(H.normal(x).ravel() - A.T @ A @ x.ravel())) < 1e-12


def test_constant_image_hits_dc_only():
    # centered k-space: DC sits in the middle column of row 0
    H = full_dft_op(8)
    y = H.forward(np.full((8, 8), 0.3))
    mag = np.hypot(y[..., 0], y[..., 1])
    assert mag[0, 4] == pytest.approx(8 * 0.3, abs=1e-12)
    mag[0, 4] = 0.0
    assert np.max(mag) < 1e-12


def test_parseval():
    rng = Rng(1)
    H = full_dft_op(16)
    for _ in range(20):
        x = rng.gaussian_array((16, 16))
        assert abs(np.linalg.norm(H.forward(x)) - np.linalg.norm(x)) < 1e-10


def test_adjoint_sweep():
    rng = Rng(2)
    mask = make_cartesian_mask(16, 4, 0.1, Rng(5))
    H = MaskedDftOp(mask, 16, 16)
    for _ in range(100):
        x = rng.gaussian_array((16, 16))
        y = rng.gaussian_array((16, int(mask.sum()), 2))
        lhs = np.sum(H.forward(x) * y)
        rhs = np.sum(x * H.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_rows_orthonormal():
    # With real images the measured spectrum is Hermitian, so the complex
    # row-orthonormality H H^T = Id is exercised on measurements of real
    # inputs through a conjugate-symmetric column set.
    mask = np.zeros(16, dtype=bool)
    mask[[2, 7, 8, 9, 14]] = True   # centered indices, mirror-closed
    H = MaskedDftOp(mask, 16, 16)
    rng = Rng(7)
    for _ in range(20):
        y = H.forward(rng.gaussian_array((16, 16)))
        assert np.max(np.abs(H.forward(H.adjoint(y)) - y)) < 1e-10


def test_operator_norm_is_one():
    mask = make_cartesian_mask(16, 4, 0.1, Rng(8))
    H = MaskedDftOp(mask, 16, 16)
    est = operator_norm(H.forward, H.adjoint, (16, 16), iters=100, rng=Rng(0))
    assert abs(est - 1.0) < 1e-6


def test_power_of_two_required():
    with pytest.raises(ValueError):
        MaskedDftOp(np.ones(12, dtype=bool), 12, 12)
    with pytest.raises(ValueError):
        MaskedDftOp(np.ones(8, dtype=bool), 0, 8)


def test_mask_counts():
    assert make_cartesian_mask(32, 1, 0.0, Rng(0)).sum() == 32
    mask = make_cartesian_mask(32, 4, 0.08, Rng(0))
    assert mask.sum() == 8
    again = make_cartesian_mask(32, 4, 0.08, Rng(0))
    assert np.array_equal(mask, again)
    # center columns kept
    n_center = int(np.ceil(32 * 0.08))
    start = (32 - n_center) // 2
    assert mask[start:start + n_center].all()
    with pytest.raises(ValueError):
        make_cartesian_mask(8, 16, 0.0, Rng(0))


def test_noise_zero_sigma_and_determinism():
    y = Rng(1).gaussian_array((4, 4))
    assert np.array_equal(add_noise(y, 0.0, Rng(2)), y)
    a = add_noise(y, 0.1, Rng(3))
    b = add_noise(y, 0.1, Rng(3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf])
def test_noise_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        add_noise(np.zeros(4), sigma, Rng(5))


def test_noise_std():
    z = add_noise(np.zeros(10**6), 25 / 255, Rng(4))
    assert abs(z.std() - 25 / 255) < 0.01 * 25 / 255


def test_mask_file_roundtrip(tmp_path):
    mask = make_cartesian_mask(32, 4, 0.08, Rng(9))
    path = tmp_path / "mask.txt"
    write_mask_file(path, mask)
    assert np.array_equal(read_mask_file(path), mask)
    bad = tmp_path / "bad.txt"
    bad.write_text("0102\n")
    with pytest.raises(ValueError):
        read_mask_file(bad)
