import numpy as np
import pytest

from mmrsafi.cli import main
from mmrsafi.core import Rng, psnr
from mmrsafi.fbs import SolverConfig
from mmrsafi.fileio import ParamArchive, archive_write, pgm_read
from mmrsafi.forward import IdentityOp, add_noise
from mmrsafi.params import mmr_to_archive, safi_to_archive
from mmrsafi.phantom import make_phantom
from mmrsafi.schemes import (default_safi_model, default_tv_model,
                             eval_objective, run_mmr)


@pytest.fixture()
def phantom_pgm(tmp_path):
    path = tmp_path / "phantom.pgm"
    assert main(["make-phantom", "--output", str(path)]) == 0
    return path


def read_trace(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "k,e_k,f_k,psnr"
    # Every non-blank field is a number; blank ones read as None.
    return [[float(v) if v else None for v in line.split(",")]
            for line in lines[1:]]


def test_make_phantom_matches_library(phantom_pgm):
    img = pgm_read(phantom_pgm)
    assert img.shape == (64, 64)
    assert np.max(np.abs(img - make_phantom())) <= 1.0 / (2 * 65535) + 1e-12


def test_denoise_mmr_trace(tmp_path, phantom_pgm):
    out = tmp_path / "recon.pgm"
    trace = tmp_path / "trace.csv"
    code = main(["denoise", "--scheme", "mmr", "--sigma", "25/255",
                 "--seed", "7", "--params", "default-tv",
                 "--input", str(phantom_pgm), "--output", str(out),
                 "--trace", str(trace)])
    assert code == 0
    rows = read_trace(trace)
    assert 1 <= len(rows) <= 10
    # The default schedules solve inner problems to ~1e-5 successive change,
    # which bounds the attainable monotonicity of the trace; the strict
    # descent check (1e-8, tight solves) lives in the acceptance suite.
    f_vals = [r[2] for r in rows]
    assert all(b <= a + 1e-3 * abs(a) for a, b in zip(f_vals, f_vals[1:]))
    recon = pgm_read(out)
    clean = pgm_read(phantom_pgm)
    assert psnr(clean, recon) > 25.0


def test_denoise_deterministic(tmp_path, phantom_pgm):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"recon_{tag}.pgm"
        trace = tmp_path / f"trace_{tag}.csv"
        assert main(["denoise", "--scheme", "safi", "--sigma", "15/255",
                     "--seed", "3", "--input", str(phantom_pgm),
                     "--output", str(out), "--trace", str(trace)]) == 0
        outs.append((out.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]


def test_denoise_missing_input(tmp_path, capsys):
    out = tmp_path / "recon.pgm"
    code = main(["denoise", "--input", str(tmp_path / "nope.pgm"),
                 "--output", str(out)])
    assert code != 0
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_denoise_rejects_mismatched_params(tmp_path, phantom_pgm):
    code = main(["denoise", "--scheme", "safi", "--params", "default-tv",
                 "--input", str(phantom_pgm),
                 "--output", str(tmp_path / "x.pgm")])
    assert code != 0


def test_mri_end_to_end(tmp_path, phantom_pgm):
    out = tmp_path / "recon.pgm"
    zf = tmp_path / "zf.pgm"
    mask_out = tmp_path / "mask.txt"
    code = main(["mri", "--input", str(phantom_pgm), "--output", str(out),
                 "--zero-fill-out", str(zf), "--mask-out", str(mask_out),
                 "--acc", "4", "--seed", "1", "--lambda", "1e-3",
                 "--k-fbs", "300"])
    assert code == 0
    clean = pgm_read(phantom_pgm)
    assert psnr(clean, pgm_read(out)) > psnr(clean, pgm_read(zf)) + 1.0
    line = mask_out.read_text().strip()
    assert len(line) == 64 and line.count("1") == 16


def test_mri_mask_file_input(tmp_path, phantom_pgm):
    mask_path = tmp_path / "mask.txt"
    mask = np.zeros(64, dtype=bool)
    mask[24:40] = True
    mask_path.write_text("".join("1" if b else "0" for b in mask) + "\n")
    out = tmp_path / "recon.pgm"
    code = main(["mri", "--input", str(phantom_pgm), "--mask", str(mask_path),
                 "--output", str(out), "--lambda", "1e-3",
                 "--k-fbs", "200", "--k-out", "3"])
    assert code == 0
    assert out.exists()


def test_objective_trace(capsys, tmp_path, phantom_pgm):
    code = main(["objective-trace", "--input", str(phantom_pgm),
                 "--sigma", "15/255", "--k-out", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(lines) <= 4
    vals = [float(line.split()[1]) for line in lines]
    assert all(b <= a + 1e-3 * abs(a) for a, b in zip(vals, vals[1:]))


def test_objective_trace_uses_the_lambda_override(capsys, phantom_pgm):
    code = main(["objective-trace", "--input", str(phantom_pgm),
                 "--sigma", "15/255", "--k-out", "2", "--lambda", "0.05"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    y = add_noise(pgm_read(phantom_pgm), 15 / 255, Rng(0))
    model = default_tv_model(lam=0.05)
    x, trace = run_mmr(model, IdentityOp(), y, SolverConfig(k_out=2))
    assert [float(line.split()[1]) for line in lines] == trace.objectives
    assert trace.objectives[-1] == eval_objective(model, IdentityOp(), y, x)


@pytest.mark.parametrize("flag, value, expected", [
    ("--lambda", "-1", 1), ("--lambda", "nan", 1), ("--lambda", "1/0", 2),
    ("--sigma", "1/0", 1), ("--sigma", "1e160", 1)])
def test_bad_real_input_rejected(capsys, tmp_path, phantom_pgm, flag, value,
                                 expected):
    out = tmp_path / "recon.pgm"
    try:
        code = main(["denoise", "--input", str(phantom_pgm),
                     "--output", str(out), "--k-out", "1", flag, value])
    except SystemExit as exc:
        code = exc.code
    assert code == expected
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_nonfinite_sigma_rejected(capsys, tmp_path, phantom_pgm, sigma):
    out = tmp_path / "recon.pgm"
    code = main(["denoise", "--input", str(phantom_pgm), "--output", str(out),
                 "--k-out", "1", "--sigma", sigma])
    err = capsys.readouterr().err
    assert code == 1
    assert "sigma must be finite and nonnegative" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--box", "nan", "1"], "box bounds need lower <= upper"),
    (["--eps-out", "nan"], "eps_out must be finite and positive")])
def test_nan_solver_flags_rejected(capsys, tmp_path, phantom_pgm, flags,
                                   message):
    out = tmp_path / "recon.pgm"
    code = main(["denoise", "--input", str(phantom_pgm), "--output", str(out),
                 "--k-out", "1", *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unknown_archive_path(tmp_path, phantom_pgm):
    code = main(["denoise", "--input", str(phantom_pgm),
                 "--output", str(tmp_path / "y.pgm"),
                 "--params", str(tmp_path / "missing.bin")])
    assert code != 0


def one_nan(array):
    array = array.copy()
    array.flat[0] = np.nan
    return array


@pytest.mark.parametrize("name, edit, message", [
    ("kind", lambda a: a[:0], "'kind' must hold one value"),
    ("W.s0", one_nan, "non-finite values in 'W.s0'"),
    ("W.s0", lambda a: 1e300 * a, "taps of 'W' are too large"),
    ("sigma.d", one_nan, "non-finite values in 'sigma.d'"),
    ("sigma.d", lambda a: a[0], "'sigma.d' must be 2-D"),
    ("sigma.r", lambda a: a[:1], "'sigma.r' holds 1 values for the 2 rows"),
    ("B.groups", lambda a: a - 0.5, "'B.groups' must hold integers >= 1"),
    ("W.groups", lambda a: a - 1.0, "'W.groups' must hold integers >= 1"),
    ("B.groups", lambda a: a.reshape(1, 1),
     "'B.groups' must be a non-empty 1-D array, has shape (1, 1)"),
    ("W.groups", lambda a: a[:0],
     "'W.groups' must be a non-empty 1-D array, has shape (0,)"),
    ("W.s1", lambda a: a.get("W.s0"), "'W.s1' has no entry in 'W.groups'"),
    ("phi3.d", lambda a: a[:1], "do not chain along Bh -> phi3 -> W: 2, 1, 2")])
def test_bad_archive_rejected(capsys, tmp_path, phantom_pgm, name, edit,
                              message):
    safi = name.startswith("phi")
    source = (safi_to_archive(default_safi_model()) if safi
              else mmr_to_archive(default_tv_model()))
    archive = ParamArchive()
    for key in source.names():
        value = source.get(key)
        archive.add(key, edit(value) if key == name else value)
    if name not in source.names():
        # An array the source lacks is made by edit from the whole source.
        archive.add(name, edit(source))
    params, out = tmp_path / "bad.bin", tmp_path / "recon.pgm"
    archive_write(params, archive)
    code = main(["denoise", "--input", str(phantom_pgm), "--output", str(out),
                 "--scheme", "safi" if safi else "mmr", "--k-out", "1",
                 "--params", str(params)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


# The probe's one-array mutations of a parameter archive (None drops it).
PROBE_MUTATIONS = {
    "drop": None,
    "empty": lambda a: a[:0],
    "reshape": lambda a: a.reshape(-1) if a.ndim > 1 else a.reshape(1, -1),
    "stack": lambda a: np.stack([a, a]),
    "halve": lambda a: 0.5 * a,
    "zero": np.zeros_like,
    "negate": np.negative,
    "scale": lambda a: 1e300 * a,
    "scale-1e100": lambda a: 1e100 * a,
    "scale-1e150": lambda a: 1e150 * a}


def test_mutated_archives_run_or_are_rejected(capsys, tmp_path, phantom_pgm):
    # Every array of both default archives, mutated one way at a time, and a
    # grid spacing of 1e-20: a seeded denoise run ends with a finite image
    # (exit 0) or is refused with an error line (exit 1), never with a
    # traceback, and without a numpy warning on the way.
    params, out = tmp_path / "mutated.bin", tmp_path / "recon.pgm"
    misbehaved = []
    for scheme, source, delta in (
            ("mmr", mmr_to_archive(default_tv_model()), "sigma.delta"),
            ("safi", safi_to_archive(default_safi_model()), "phi.delta")):
        cases = [(name, label, edit) for name in source.names()
                 for label, edit in PROBE_MUTATIONS.items()]
        cases.append((delta, "1e-20", lambda a: np.full_like(a, 1e-20)))
        for name, label, edit in cases:
            archive = ParamArchive()
            for key in source.names():
                if key != name:
                    archive.add(key, source.get(key))
                elif edit is not None:
                    archive.add(key, edit(source.get(key)))
            archive_write(params, archive)
            out.unlink(missing_ok=True)
            code = main(["denoise", "--input", str(phantom_pgm),
                         "--output", str(out), "--scheme", scheme,
                         "--seed", "5", "--k-out", "2",
                         "--params", str(params)])
            captured = capsys.readouterr()
            if code == 0:
                ok = (out.exists()
                      and np.isfinite(float(captured.out.split()[1])))
            else:
                ok = (code == 1 and captured.err.startswith("error: ")
                      and not out.exists())
            if not ok:
                misbehaved.append(f"{scheme} {name} {label}: exit {code}")
    assert misbehaved == []
