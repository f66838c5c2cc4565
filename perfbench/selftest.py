"""Self-tests of the benchmark: its checks reject wrong outputs, it prints the
metrics BENCHMARK.json declares, and its tracer and compare command compute
what they claim.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mmrsafi import schemes  # noqa: E402

SMALL_BATCH = 6
workloads.PROX_BATCH = SMALL_BATCH       # every prox workload below is small


def small_prox_workload(seed=3):
    w = workloads.ProxWorkload(seed)
    w.setup()
    return w


def test_prox_check_rejects_perturbed_solve():
    w = small_prox_workload()
    outputs = [thunk() for _, thunk in w.ops()]
    assert w.check(outputs)[0] == []
    shifted = list(outputs)
    shifted[1] = outputs[1] + 1e-5
    failures, _ = w.check(shifted)
    assert len(failures) == 1 and "deviation" in failures[0], failures
    broken = list(outputs)
    broken[2] = np.full_like(outputs[2], np.nan)
    assert "non-finite" in w.check(broken)[0][0]


def test_denoise_check_rejects_bad_reconstructions():
    w = workloads.DenoiseWorkload(5)
    w.setup()
    near = w.clean + 1e-3 * np.cos(np.arange(w.clean.size)).reshape(w.clean.shape)
    norm = float(np.linalg.norm(w.y))

    def outputs(x, objectives=(2.0, 1.0), safi_norm=norm):
        return [(x, schemes.SchemeTrace()),
                (x, schemes.SchemeTrace(objectives=list(objectives))),
                (x, schemes.SchemeTrace(iterate_norms=[safi_norm]))]

    assert w.check(outputs(near))[0] == []
    assert len(w.check(outputs(w.y))[0]) == 3          # noisy input as output
    assert "objective" in w.check(outputs(near, (1.0, 1.5)))[0][0]
    assert "iterate norm" in w.check(outputs(near, safi_norm=3 * norm))[0][0]


def test_mri_check_rejects_zero_fill():
    w = workloads.MriWorkload(5)
    w.setup()
    zero_fill = w.zero_fill()
    # The benchmark's own zero-fill agrees with the program's adjoint.
    assert np.allclose(zero_fill, w.H.adjoint(w.y), atol=1e-12)
    trace = schemes.SchemeTrace()
    assert len(w.check([(zero_fill, trace)] * 2)[0]) == 2
    near = w.clean + 1e-3
    assert w.check([(near, trace)] * 2)[0] == []


def _result(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "out")) as out:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _result(["--workload", "prox-8x8", "--seed", "2",
                                    "--seconds", "0.01", "--trace", str(trace),
                                    "--out", out])
            assert code == 0 and result["correct"], result
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] == (SMALL_BATCH + 1) * (1 + trace)
            assert result["failed"] == 0
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in spec[key]}, printed
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_exits_nonzero_without_program_source():
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "prox-8x8",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans():
    w = small_prox_workload()
    rec = tracer.Tracer()
    before = rec.mark()
    with rec:
        for _, thunk in w.ops():
            thunk()
    totals, counts, spans = rec.layer_totals(before, rec.mark())
    assert totals[tracer.PROX][0] == len(w.ops()) and spans > len(w.ops())
    assert counts["prox.iters"] > 0
    start, end = np.array(rec.start), np.array(rec.end)
    parent = np.array(rec.parent)
    dur = end - start
    roots = dur[parent < 0].sum()
    self_total = sum(v[2] for v in totals.values())
    assert abs(self_total - roots) < 1e-9 * max(1.0, roots)
    prox_id = rec.names.index(tracer.PROX)
    is_prox = np.array(rec.name_id) == prox_id
    children = np.isin(parent, np.flatnonzero(is_prox))
    assert abs(totals[tracer.PROX][2]
               - (dur[is_prox].sum() - dur[children].sum())) < 1e-9
    # A wrapped layer is restored once the tracer exits.
    assert not hasattr(schemes.fbs_solve, "__wrapped__")


def test_compare_verdicts():
    base = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert compare.verdict(base, {s: v * 0.7 for s, v in base.items()},
                           "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, {s: v * 1.3 for s, v in base.items()},
                           "lower", 0.1)[0] == "regressed"
    assert compare.verdict(base, dict(base), "lower", 0.1)[0] == "unchanged"
    wide = {s: 10.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
    assert compare.verdict(wide, dict(wide), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, {s: v * 1.3 for s, v in base.items()},
                           "higher", 0.1)[0] == "improved"


def main():
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
