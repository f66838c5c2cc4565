"""Reconstruction benchmark: end-to-end and traced per-layer figures.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload prox-8x8 --seed 1 --seconds 25 --trace 0

One process generates all load, with BLAS/OpenMP pools pinned to one thread.
The workload's inputs come from --seed alone.  Set-up is timed first: the
median of a few imports of numpy and the program in fresh interpreters plus
the median of repeated in-process set-ups (models, inputs, first-use
caches).  Then whole rounds of the workload's operations
run back to back (a closed loop, one client); another round is started only
while it is predicted to end within --seconds, and at least one always runs.
With --trace 1, untraced and traced rounds alternate (at least one of each)
and the per-layer metrics come from the traced rounds.  Every output is
checked outside the timed region.

Operation times are reported in reference seconds (see probe.py): a timer
samples the shared machine's speed while the work runs, and the work's wall
time is rescaled to a fixed reference speed.  Wall times are kept in the run
record.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record with the seed, nproc and the
numpy/scipy versions is written to --out, and with --trace 1 the raw spans
as well.  The exit code is 0 when every check passed, 1 when one failed and
2 when the program's source is not found.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("prox-8x8", "denoise-256", "mri-64")

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "psnr_db": "dB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linops.bank_fwd_calls": "count", "linops.bank_fwd_s": "s",
    "linops.bank_adj_calls": "count", "linops.bank_adj_s": "s",
    "linops.norm_calls": "count", "linops.norm_s": "s",
    "prox.calls": "count", "prox.s": "s", "prox.self_s": "s",
    "prox.iters": "count", "prox.unconverged": "count",
    "fbs.calls": "count", "fbs.s": "s", "fbs.self_s": "s",
    "fbs.iters": "count", "fbs.unconverged": "count",
    "forward.calls": "count", "forward.s": "s",
    "schemes.mask_calls": "count", "schemes.mask_s": "s",
    "schemes.objective_s": "s", "schemes.outer_steps": "count",
    "schemes.cvx_s": "s", "schemes.mmr_s": "s", "schemes.safi_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_pct": "%",
}

# Span-derived per-layer metrics: name -> (span name, field), where field
# indexes the tracer's (calls, seconds, self seconds) totals for one round.
_FROM_SPANS = {
    "linops.bank_fwd_calls": ("linops.bank_fwd", 0),
    "linops.bank_fwd_s": ("linops.bank_fwd", 1),
    "linops.bank_adj_calls": ("linops.bank_adj", 0),
    "linops.bank_adj_s": ("linops.bank_adj", 1),
    "linops.norm_calls": ("linops.norm", 0),
    "linops.norm_s": ("linops.norm", 1),
    "prox.calls": ("prox", 0), "prox.s": ("prox", 1),
    "prox.self_s": ("prox", 2),
    "fbs.calls": ("fbs", 0), "fbs.s": ("fbs", 1), "fbs.self_s": ("fbs", 2),
    "forward.calls": ("forward", 0), "forward.s": ("forward", 1),
    "schemes.mask_calls": ("schemes.mask", 0),
    "schemes.mask_s": ("schemes.mask", 1),
    "schemes.objective_s": ("schemes.objective", 1),
    "schemes.cvx_s": ("schemes.run_cvx", 1),
    "schemes.mmr_s": ("schemes.run_mmr", 1),
    "schemes.safi_s": ("schemes.run_safi", 1),
}

SETUP_REPEATS = 5
IMPORT_REPEATS = 5


def time_imports(src, repeats):
    """Seconds to import numpy and the program in fresh interpreters."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {src!r}); import numpy, mmrsafi; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True,
                                 timeout=120).stdout)
            for _ in range(repeats)]


def import_program(root):
    """Put root/src first on the path and import the program from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mmrsafi", "__init__.py")):
        print(f"error: program source not found under {src}; run from the "
              "root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import mmrsafi
    found = os.path.dirname(os.path.dirname(os.path.realpath(mmrsafi.__file__)))
    if found != os.path.realpath(src):
        print(f"error: mmrsafi was imported from {found}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return src


def run_round(ops):
    """Run one round; returns (per-op (start, end) times, outputs).

    An operation that raises is a failed operation: its output is None and
    its traceback goes to standard error.
    """
    clock = time.perf_counter
    windows, outputs = [], []
    for _, thunk in ops:
        begin = clock()
        try:
            out = thunk()
        except Exception:
            traceback.print_exc()
            out = None
        windows.append((begin, clock()))
        outputs.append(out)
    return windows, outputs


def _primary(out):
    return out[0] if isinstance(out, tuple) else out


def same_outputs(a, b):
    import numpy as np
    return all((x is None and y is None) or
               (x is not None and y is not None and
                np.array_equal(_primary(x), _primary(y)))
               for x, y in zip(a, b))


def measure(workload, seconds, trace):
    """Closed loop of whole rounds; see the module docstring."""
    import tracer as tracing

    ops = workload.ops()
    rec = tracing.Tracer() if trace else None
    rounds = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            before = rec.mark()
            with rec:
                windows, outputs = run_round(ops)
            layers = rec.layer_totals(before, rec.mark())
        else:
            windows, outputs = run_round(ops)
            layers = None
        rounds.append(dict(traced=traced, windows=windows, outputs=outputs,
                           layers=layers))
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(rounds)
        if len(rounds) >= (2 if trace else 1) and elapsed + per_round > seconds:
            return rounds, rec


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced rounds; the failures list names
    any count that differs between traced rounds on the same inputs."""
    runs = []
    for r in traced:
        totals, counts, spans = r["layers"]
        m = {name: totals.get(span, (0, 0.0, 0.0))[field]
             for name, (span, field) in _FROM_SPANS.items()}
        m.update(counts)
        m["trace.spans"] = spans
        runs.append(m)
    metrics, failures = {}, []
    for name in runs[0]:
        values = [m[name] for m in runs]
        if PER_LAYER[name] == "count":
            if len(set(values)) > 1:
                failures.append(f"{name} differs between traced rounds on "
                                f"the same inputs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    wall = [statistics.median(sum(r["times"]) for r in rs)
            for rs in (traced, plain)]
    ref = [statistics.median(sum(r["scaled"]) for r in rs)
           for rs in (traced, plain)]
    metrics["trace.overhead_s"] = wall[0] - wall[1]
    metrics["trace.overhead_pct"] = 100.0 * (ref[0] / ref[1] - 1.0)
    return metrics, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"),
                        help="directory for the run record (and spans)")
    args = parser.parse_args(argv)

    # Before numpy is imported, so that its thread pools start with one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    src = import_program(os.getcwd())
    import numpy as np
    import probe
    import workloads

    import_times = time_imports(src, IMPORT_REPEATS)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    with probe.SpeedProbe(workload.size) as speed:
        rounds, rec = measure(workload, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for r in rounds:
        r["times"] = [end - begin for begin, end in r["windows"]]
        r["scaled"] = [speed.reference_seconds(*w) for w in r["windows"]]

    kinds = [kind for kind, _ in workload.ops()]
    first = rounds[0]["outputs"]
    failures, errors = workload.check(first)
    for i, r in enumerate(rounds[1:], start=2):
        if not same_outputs(first, r["outputs"]):
            failures.append(f"round {i} outputs differ from round 1 on the "
                            "same inputs")
    attempted = sum(len(r["outputs"]) for r in rounds)
    failed = sum(out is None for r in rounds for out in r["outputs"])
    plain = [r for r in rounds if not r["traced"]]
    per_kind = {}
    for kind in dict.fromkeys(kinds):
        idx = [i for i, k in enumerate(kinds) if k == kind]
        psnrs = [workloads.psnr_db(errors[i]) for i in idx
                 if errors[i] is not None]
        per_kind[kind] = dict(
            ops=len(idx) * len(plain),
            median_s=statistics.median(r["times"][i] for r in plain for i in idx),
            mean_ref_s=statistics.fmean(r["scaled"][i] for r in plain
                                        for i in idx),
            psnr_db=statistics.median(psnrs) if psnrs else None)

    if args.trace:
        metrics, layer_failures = layer_metrics(
            [r for r in rounds if r["traced"]], plain)
        failures += layer_failures
        declared = PER_LAYER
    else:
        # Each scheme counts once, whatever its number of operations.
        psnrs = [info["psnr_db"] for info in per_kind.values()
                 if info["psnr_db"] is not None]
        metrics = {
            "setup_s": setup_s,
            "op_s": statistics.median(sum(r["scaled"]) / len(r["scaled"])
                                      for r in plain),
            "psnr_db": statistics.fmean(psnrs) if psnrs else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = END_TO_END

    import scipy
    meta = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=len(os.sched_getaffinity(0)),
                numpy=np.__version__, scipy=scipy.__version__,
                python=platform.python_version(), machine=platform.machine())
    record = dict(meta=meta, rounds=len(rounds),
                  round_s=[sum(r["times"]) for r in rounds],
                  round_ref_s=[sum(r["scaled"]) for r in rounds],
                  op_wall_s=[r["times"] for r in plain],
                  probe_s=speed.durations,
                  setup=dict(import_s=import_times, repeats_s=setup_times),
                  outer_steps=[len(out[1].residuals) for out in first
                               if isinstance(out, tuple)],
                  objectives=[out[1].objectives for out in first
                              if isinstance(out, tuple)],
                  per_kind=per_kind, failures=failures, metrics=metrics)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out,
                        f"{args.workload}-trace{args.trace}-seed{args.seed}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if rec is not None:
        rec.save(stem + "-spans.npz")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} round(s), {attempted} operations, {failed} failed")
    print("meta: " + json.dumps(meta))
    print(f"setup: import median {statistics.median(import_times):.4f} s of "
          f"{IMPORT_REPEATS} + "
          f"set-up median {statistics.median(setup_times):.4f} s of "
          f"{SETUP_REPEATS}")
    for kind, info in per_kind.items():
        psnr = "n/a" if info["psnr_db"] is None else f"{info['psnr_db']:.3f} dB"
        print(f"{kind}: {info['ops']} untraced ops, median {info['median_s']:.4f}"
              f" s wall, mean {info['mean_ref_s']:.4f} s reference, median "
              f"PSNR vs reference {psnr}")
    for line in failures:
        print("CHECK FAILED: " + line)
    result = dict(correct=not failures, attempted=attempted, failed=failed,
                  metrics={name: {"value": metrics[name], "unit": unit}
                           for name, unit in declared.items()})
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
