"""Compare two result sets of the benchmark, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records that ``run.py --out DIR`` writes, one
per workload, seed and trace mode.  For every workload and end-to-end metric
of BENCHMARK.json the command prints each side's median and quartiles, the
share of pairs the new side wins (runs are paired by seed; ties count for
neither side) and one verdict:

- improved: the new side wins at least 90% of the pairs and its median
  differs from the base median by more than the base's own quartile
  distance, or every new run beats every base run;
- regressed: the new median is worse than the base median by more than the
  metric's bound (a share of the base median);
- unresolved: neither of the above, and the spread of either side (quartile
  distance over median) is wider than the bound;
- unchanged: everything else.

Per-layer metrics from traced records are listed with their medians; a count
that differs between the sides is marked.  The exit code is 1 when some
metric regressed, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
WIN_SHARE = 0.9


def load(directory, trace):
    """{workload: {seed: metrics}} from the records of one trace mode."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        meta = record.get("meta", {})
        if meta.get("trace") != trace:
            continue
        runs.setdefault(meta["workload"], {})[meta["seed"]] = record["metrics"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, better, bound):
    """Verdict and new-side win share for one metric on one workload.

    ``base`` and ``new`` map seeds to values; runs are paired by seed, or in
    seed order when the two sides share no seed.
    """
    sign = 1.0 if better == "higher" else -1.0
    shared = sorted(set(base) & set(new))
    if shared:
        pairs = [(base[s], new[s]) for s in shared]
    else:
        pairs = list(zip([base[s] for s in sorted(base)],
                         [new[s] for s in sorted(new)]))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    share = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(list(base.values()))
    nq1, nmed, nq3 = quartiles(list(new.values()))
    worse = -sign * (nmed - bmed)
    if worse > bound * abs(bmed):
        return "regressed", share
    all_better = min(sign * v for v in new.values()) > max(
        sign * v for v in base.values())
    if (share >= WIN_SHARE and -worse > bq3 - bq1) or all_better:
        return "improved", share
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if spread > bound:
        return "unresolved", share
    return "unchanged", share


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="directory of the base side's records")
    parser.add_argument("new", help="directory of the new side's records")
    parser.add_argument("--benchmark", default=DEFAULT_SPEC,
                        help="BENCHMARK.json with the metrics and bounds")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)

    regressed = False
    base, new = load(args.base, 0), load(args.new, 0)
    print("workload | metric | base median [q1, q3] | new median [q1, q3] | "
          "new wins | verdict")
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            b = {s: r[m["name"]] for s, r in base[workload].items()}
            n = {s: r[m["name"]] for s, r in new[workload].items()}
            result, share = verdict(b, n, m["better"], m["bound"])
            regressed |= result == "regressed"
            print(f"{workload} | {m['name']} ({m['unit']}) | "
                  f"{_fmt(list(b.values()))} | {_fmt(list(n.values()))} | "
                  f"{share:.0%} | {result}")

    base, new = load(args.base, 1), load(args.new, 1)
    for workload in sorted(set(base) & set(new)):
        print(f"\n{workload}, traced: per-layer medians (base -> new)")
        for m in spec["per_layer"]:
            b = statistics.median(r[m["name"]] for r in base[workload].values())
            n = statistics.median(r[m["name"]] for r in new[workload].values())
            mark = "  (count differs)" if m["unit"] == "count" and b != n else ""
            print(f"  {m['name']}: {b:.6g} -> {n:.6g} {m['unit']}{mark}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
