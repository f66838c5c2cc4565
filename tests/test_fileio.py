import re

import numpy as np
import pytest

from mmrsafi.core import Rng
from mmrsafi.fileio import (ArchiveError, ParamArchive, PgmError, archive_read,
                            archive_write, pgm_read, pgm_write,
                            write_trace_csv)
from mmrsafi.linops import ConvStage, FilterBank
from mmrsafi.params import (_log_norm_bound, model_from_archive,
                            mmr_to_archive, safi_to_archive)
from mmrsafi.schemes import (SchemeTrace, default_safi_model, default_tv_model,
                             mask_mmr, mask_safi)


def test_archive_roundtrip(tmp_path):
    rng = Rng(0)
    archive = ParamArchive()
    archive.add("alpha", rng.gaussian_array((2, 3, 4)))
    archive.add("beta", np.array(1.5))
    archive.add("gamma", rng.gaussian_array(7))
    path = tmp_path / "params.bin"
    archive_write(path, archive)
    assert archive_read(path) == archive


def test_archive_empty_file_bytes(tmp_path):
    path = tmp_path / "empty.bin"
    archive_write(path, ParamArchive())
    assert path.read_bytes() == b"MMRSAFI1\nEND\n"


def test_archive_corrupt_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE1234\nEND\n")
    with pytest.raises(ArchiveError):
        archive_read(path)


def test_archive_truncated_payload(tmp_path):
    archive = ParamArchive()
    archive.add("x", np.ones(4))
    path = tmp_path / "trunc.bin"
    archive_write(path, archive)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ArchiveError):
        archive_read(path)


def test_archive_huge_shape_reads_as_truncated(tmp_path):
    # 2**32 * 2**32 elements wrap to 0 in int64; counted exactly, the
    # payload is far too short.
    path = tmp_path / "huge.bin"
    path.write_bytes(b"MMRSAFI1\nw 2 4294967296 4294967296\nEND\n")
    with pytest.raises(ArchiveError, match="truncated payload for 'w'"):
        archive_read(path)


def test_archive_header_not_utf8(tmp_path):
    path = tmp_path / "latin1.bin"
    path.write_bytes(b"MMRSAFI1\n\xe9t\xe9 1 1\nEND\n" + bytes(8))
    with pytest.raises(ArchiveError, match="not valid UTF-8"):
        archive_read(path)


def test_archive_duplicate_names():
    archive = ParamArchive()
    archive.add("x", np.ones(2))
    with pytest.raises(ArchiveError):
        archive.add("x", np.ones(3))


@pytest.mark.parametrize("shape", [(0,), (2,)])
def test_archive_scalar_needs_one_value(shape):
    archive = ParamArchive()
    archive.add("kind", np.zeros(shape))
    with pytest.raises(ArchiveError, match="must hold one value"):
        archive.scalar("kind")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_archive_rejects_nonfinite_payload(tmp_path, value):
    archive = ParamArchive()
    archive.add("ok", np.ones(3))
    archive.add("bad", np.array([0.0, value]))
    path = tmp_path / "nonfinite.bin"
    archive_write(path, archive)
    with pytest.raises(ArchiveError, match="non-finite values in 'bad'"):
        archive_read(path)


def test_mmr_model_roundtrip(tmp_path):
    model = default_tv_model(lam=0.07)
    path = tmp_path / "mmr.bin"
    archive_write(path, mmr_to_archive(model))
    again = model_from_archive(archive_read(path))
    assert again.lam == 0.07
    x = Rng(1).gaussian_array((8, 8))
    assert np.max(np.abs(mask_mmr(model, x) - mask_mmr(again, x))) < 1e-14


def test_safi_model_roundtrip(tmp_path):
    model = default_safi_model(lam=0.2)
    path = tmp_path / "safi.bin"
    archive_write(path, safi_to_archive(model))
    again = model_from_archive(archive_read(path))
    assert again.lam == 0.2
    x = Rng(2).gaussian_array((8, 8))
    assert np.max(np.abs(mask_safi(model, x) - mask_safi(again, x))) < 1e-14


@pytest.mark.parametrize("name, value, message", [
    ("lambda", -0.1, "'lambda' must be finite and nonnegative, got -0.1"),
    ("sigma.delta", 0.0, "'sigma.delta' must be finite and positive, got 0.0"),
    ("sigma.delta", -0.05, "'sigma.delta' must be finite and positive"),
    ("sigma.r", [1.0, 0.0], "'sigma.r' must hold finite positive values, "
                            "got [1.0, 0.0]"),
    ("sigma.r", [-1.0, 1.0], "'sigma.r' must hold finite positive values"),
    ("phi.delta", 0.0, "'phi.delta' must be finite and positive, got 0.0"),
    ("phi.delta", -1.0, "'phi.delta' must be finite and positive")])
def test_model_refuses_bad_scalars_at_load(tmp_path, name, value, message):
    # Each is refused when the archive loads, as an ArchiveError naming the
    # entry: not at the first solve, nor from inside a spline.
    model = default_safi_model() if name == "phi.delta" else default_tv_model()
    source = (safi_to_archive if name == "phi.delta" else mmr_to_archive)(model)
    archive = ParamArchive()
    for key in source.names():
        archive.add(key, np.array(value) if key == name else source.get(key))
    path = tmp_path / "bad.bin"
    archive_write(path, archive)
    with pytest.raises(ArchiveError, match=re.escape(message)):
        model_from_archive(archive_read(path))


def test_load_time_norm_bound_holds():
    # The bound that refuses oversized banks at load is a true upper bound.
    rng = Rng(3)
    safi = default_safi_model()
    banks = [default_tv_model().B, safi.W, safi.Wt, safi.Bt, safi.Bh,
             FilterBank([ConvStage(rng.gaussian_array((4, 1, 3, 3))),
                         ConvStage(rng.gaussian_array((4, 2, 5, 5)), 2)])]
    for bank in banks:
        assert _log_norm_bound(bank) >= np.log(bank.norm((16, 16)))


@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_roundtrip_byte_identical(tmp_path, maxval):
    img = Rng(3).uniform_array((9, 7))
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    pgm_write(first, img, maxval=maxval)
    decoded = pgm_read(first)
    err = 1.0 / (2 * maxval) + 1e-12
    assert np.max(np.abs(decoded - np.clip(img, 0, 1))) <= err
    pgm_write(second, decoded, maxval=maxval)
    assert first.read_bytes() == second.read_bytes()


def test_pgm_values(tmp_path):
    path = tmp_path / "z.pgm"
    pgm_write(path, np.zeros((4, 4)))
    assert np.array_equal(pgm_read(path), np.zeros((4, 4)))
    path2 = tmp_path / "c.pgm"
    path2.write_bytes(b"P5\n2 1\n255\n" + bytes([128, 0]))
    img = pgm_read(path2)
    assert img[0, 0] == pytest.approx(128 / 255)


def test_pgm_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(PgmError):
        pgm_read(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(PgmError):
        pgm_read(short)
    odd = tmp_path / "odd.pgm"
    odd.write_bytes(b"P5\n1 1\n100\n\x00")
    with pytest.raises(PgmError):
        pgm_read(odd)


@pytest.mark.parametrize("size", [b"0 0", b"0 4", b"4 0", b"-1 -1"])
def test_pgm_rejects_empty_size(tmp_path, size):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"P5\n" + size + b"\n255\n")
    with pytest.raises(PgmError, match="size must be positive"):
        pgm_read(path)


def test_trace_csv_layout(tmp_path):
    trace = SchemeTrace(residuals=[np.inf, 0.5], objectives=[2.0, 1.0],
                        psnrs=[10.0, 12.0])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,e_k,f_k,psnr"
    assert lines[1].startswith("1,inf,2.0,10.0")
    assert len(lines) == 3
    # SAFI-style trace: objective column stays blank
    trace2 = SchemeTrace(residuals=[0.1])
    write_trace_csv(path, trace2)
    assert path.read_text().splitlines()[1] == "1,0.1,,"
