"""Compare sets of saved benchmark results.

    python3 perfbench/compare.py DIR_A [DIR_B]

Each DIR holds result files written by ``run.py`` (``.perfbench-out/results``
by default).  For every workload and end-to-end metric it prints the
median and the quartile spread (q3 - q1) / median of each set, as
``statistics.quantiles(values, n=4)`` gives them, and with two sets the
change of the second median against the first.  Traced results of the
same workload and seed must carry identical exact counts.

Sets made on different backends, long-double epsilons or Python/numpy
versions are refused (exit 2): building the compiled extension is a
change of environment, not a gain.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import EXACT_COUNTS  # noqa: E402

STAMP_KEYS = ("backend", "kernels_eps", "python", "numpy")


def load(directory):
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def stamps(results):
    return {tuple((k, r["env"][k]) for k in STAMP_KEYS) for r in results}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    envs = set().union(*(stamps(s) for s in sets))
    if len(envs) > 1:
        print("refusing to compare results from different environments:", file=sys.stderr)
        for env in sorted(envs):
            print("  " + ", ".join(f"{k}={v}" for k, v in env), file=sys.stderr)
        return 2
    code = 0
    workloads = sorted({r["info"]["workload"] for s in sets for r in s})
    for wl in workloads:
        untraced = [[r for r in s if r["info"]["workload"] == wl and not r["info"]["trace"]]
                    for s in sets]
        if all(len(u) >= 2 for u in untraced):
            print(f"== {wl}  runs: {', '.join(str(len(u)) for u in untraced)}")
            for key in untraced[0][0]["metrics"]:
                cells, medians = [], []
                for u in untraced:
                    med, spr = spread([r["metrics"][key]["value"] for r in u])
                    medians.append(med)
                    cells.append(f"median {med:12.6g}  spread {spr:7.4f}")
                change = (f"  change {medians[1] / medians[0] - 1:+.4f}"
                          if len(medians) == 2 else "")
                unit = untraced[0][0]["metrics"][key]["unit"]
                print(f"  {key:<14} {unit:<4} " + "  |  ".join(cells) + change)
        traced = {}
        for s in sets:
            for r in s:
                if r["info"]["workload"] == wl and r["info"]["trace"]:
                    counts = {k: r["metrics"][k]["value"] for k in EXACT_COUNTS}
                    traced.setdefault(r["info"]["seed"], []).append(counts)
        for seed, runs in sorted(traced.items()):
            same = all(c == runs[0] for c in runs)
            print(f"  traced seed {seed}: {len(runs)} runs, exact counts "
                  f"{'identical' if same else 'DIFFER'}")
            code |= 0 if same else 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
