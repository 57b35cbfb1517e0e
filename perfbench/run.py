"""mubose benchmark: curve sweeps, small-alpha stress points and cold CLI points.

    python3 perfbench/run.py [--workload curves|small_alpha|points|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each run first times fresh interpreters importing mubose (``setup_s``),
then repeats passes over the workload's fixed operation list for
``--seconds`` seconds, one operation at a time, and afterwards checks a
seed-drawn sample of the first pass's outputs against 50-digit mpmath
references and every later pass against the first.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each result is also written,
with an environment stamp, under ``.perfbench-out/results``; compare two
sets of them with ``perfbench/compare.py``.  The exit code is 1 when a
correctness check fails and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("curves", "small_alpha", "points")
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "rss_peak_mb": "MB"}


def environment():
    """Stamp recorded on every result; runs on different backends do not compare."""
    import numpy
    import mubose
    from mubose._backend import kernels

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"backend": mubose.backend_name(), "kernels_eps": kernels.EPS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit}


def measure_setup():
    """Median over fresh interpreters that import mubose and return a first result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    walls, probes = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), "setup"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probes.append(json.loads(proc.stdout))
    return {"setup_s": statistics.median(walls),
            "setup.numpy_import_s": statistics.median(p["numpy_import_s"] for p in probes),
            "setup.mubose_import_s": statistics.median(p["mubose_import_s"] for p in probes)}


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def run_workload(name, seed, seconds, trace):
    import numpy as np

    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    setup = measure_setup()
    wl = workloads.make(name, seed, ROOT, OUT)
    n_ops = len(wl.ops)

    first, latencies, pass_lat = None, [], []
    walls = {False: [], True: []}
    rows_per_pass = None
    traced_passes = []  # (spans, summary, layer_self, wall)
    attempted = failed = 0
    mismatched = set()
    op_ok = []
    problems = []
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        traced = bool(trace) and p % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer is not None and wl.traces_in_process:
            tracer.install()
        outputs, oks, rows, lat = [], [], 0, []
        t_pass = time.perf_counter()
        try:
            for i in range(n_ops):
                if tracer is not None:
                    tracer.op = i
                t0 = time.perf_counter()
                try:
                    ok, out, nrows = wl.run(i, tracer)
                except Exception as exc:  # an operation that raises is a failed operation
                    ok, out, nrows = False, f"{type(exc).__name__}: {exc}", 0
                lat.append(time.perf_counter() - t0)
                outputs.append(out)
                oks.append(ok)
                rows += nrows
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - t_pass
        walls[traced].append(wall)
        if not traced:
            latencies.extend(lat)
            pass_lat.append(lat)
        if first is None:
            first, rows_per_pass = outputs, rows
        else:
            mismatched.update(i for i in range(n_ops) if outputs[i] != first[i])
        op_ok.append(oks)
        if tracer is not None:
            summary, layer_self = tracing.summarize(tracer.spans)
            traced_passes.append((tracer.spans, summary, layer_self, wall))
        p += 1
        # stop at the pass boundary nearest the deadline
        if time.perf_counter() + wall / 2 >= deadline and walls[False] and (
                traced_passes or not trace):
            break

    rss_kb = wl.peak_rss_kb()
    checked = [out if ok else None for out, ok in zip(first, op_ok[0])]
    violations = wl.check(checked, np.random.default_rng([seed, 1]))
    bad_slots = {i for i, _ in violations} | mismatched
    for oks in op_ok:
        attempted += len(oks)
        failed += sum(1 for i, ok in enumerate(oks) if not ok or i in bad_slots)
    problems += [f"op {i} failed: {wl.ops[i]} {str(first[i])[-300:]}"
                 for i, ok in enumerate(op_ok[0]) if not ok]
    problems += [f"op {i} output differs between passes: {wl.ops[i]}" for i in sorted(mismatched)]
    problems += [f"op {i} reference check: {msg}" for i, msg in violations]

    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "passes": len(walls[False]) + len(walls[True]), "ops_per_pass": n_ops,
            "rows_per_pass": rows_per_pass, "failed_frac": failed / attempted,
            "pass_walls_s": walls[False], "traced_pass_walls_s": walls[True],
            "op_latencies_s": pass_lat}
    if not trace:
        wall_s = statistics.median(walls[False])
        t_val, t_pct, t_n = tail(latencies)
        metrics = {"setup_s": setup["setup_s"], "wall_s": wall_s,
                   "rows_per_s": rows_per_pass / wall_s,
                   "op_p50_ms": statistics.median(latencies) * 1e3,
                   "op_tail_ms": t_val * 1e3, "rss_peak_mb": rss_kb / 1024.0}
        info.update(op_tail_percentile=t_pct, op_tail_samples=t_n)
        units = END_TO_END_UNITS
    else:
        metrics, units = per_layer(traced_passes, walls, setup, problems, info)
        write_spans(name, traced_passes)
    return metrics, units, info, attempted, failed, problems


def per_layer(traced_passes, walls, setup, problems, info):
    """Per-layer metrics: counts of the first traced pass, times averaged over traced passes.

    The layer self times and the traced pass wall go to ``info`` for the
    accounting table.
    """
    import tracing

    first = traced_passes[0][1]
    for _, summary, _, _ in traced_passes[1:]:
        for key in tracing.EXACT_COUNTS:
            if summary[key] != first[key]:
                problems.append(f"count {key} differs between traced passes: "
                                f"{first[key]} != {summary[key]}")
    n = len(traced_passes)
    metrics = dict(first)
    for key, value in first.items():
        if key not in tracing.EXACT_COUNTS:
            metrics[key] = sum(t[1][key] for t in traced_passes) / n
    layer_self = {layer: sum(t[2][layer] for t in traced_passes) / n
                  for layer in traced_passes[0][2]}
    traced_wall = sum(t[3] for t in traced_passes) / n
    metrics["setup.numpy_import_s"] = setup["setup.numpy_import_s"]
    metrics["setup.mubose_import_s"] = setup["setup.mubose_import_s"]
    metrics["unattributed_s"] = traced_wall - sum(layer_self.values())
    metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                      / statistics.median(walls[False]) - 1.0)
    info.update(layer_self_s=layer_self, traced_wall_s=traced_wall)
    return metrics, {key: _layer_unit(key) for key in metrics}


def _layer_unit(key):
    special = {"kernels.terms_per_call": "terms/call", "kernels.ns_per_term": "ns",
               "core.kernel_calls_per_result": "calls/result", "cli.bytes_out": "bytes"}
    if key in special:
        return special[key]
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "fraction"
    return "count"


def write_spans(name, traced_passes):
    """All spans of the traced passes, one CSV line each, gzip-compressed."""
    path = os.path.join(OUT, f"spans-{name}.csv.gz")
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write("pass,index,parent,op,name,start_ns,end_ns,raised,info\n")
        for p, (spans, *_rest) in enumerate(traced_passes):
            for i, (sname, t0, t1, parent, op, info, raised) in enumerate(spans):
                fh.write(f"{p},{i},{parent},{op},{sname},{t0},{t1},{int(raised)},"
                         f"{'' if info is None else json.dumps(info).replace(',', ';')}\n")


def report(metrics, units, info, problems):
    """Human-readable table for one workload run."""
    print(f"== {info['workload']}  seed={info['seed']}  trace={info['trace']}  "
          f"passes={info['passes']}  ops/pass={info['ops_per_pass']}  "
          f"rows/pass={info['rows_per_pass']}")
    for key, value in metrics.items():
        print(f"  {key:<40} {value:>16.6g} {units[key]}")
    print(f"  {'failed_frac':<40} {info['failed_frac']:>16.6g} fraction")
    if "op_tail_percentile" in info:
        print(f"  op_tail_ms is p{info['op_tail_percentile']:.2f} of "
              f"{info['op_tail_samples']} samples")
    if "layer_self_s" in info:
        traced_wall = info["traced_wall_s"]
        print(f"  traced pass wall {traced_wall:.6f} s = layer self times + unattributed:")
        for layer, value in info["layer_self_s"].items():
            print(f"    {layer:<12} {value:>12.6f} s  {100 * value / traced_wall:6.2f}%")
        unattributed = metrics["unattributed_s"]
        print(f"    {'unattributed':<12} {unattributed:>12.6f} s  "
              f"{100 * unattributed / traced_wall:6.2f}%")
    for msg in problems:
        print(f"  FAIL {msg}")


def save(env, metrics, units, info, problems):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{info['workload']}-seed{info['seed']}-trace{info['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "info": info, "problems": problems,
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}},
                  fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mubose", "__init__.py")):
        print(f"mubose sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, units, info, attempted, failed, problems = run_workload(
            name, args.seed, args.seconds, args.trace)
        report(metrics, units, info, problems)
        save(env, metrics, units, info, problems)
        result["correct"] &= not problems
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = "" if len(names) == 1 else name + "."
        for key, value in metrics.items():
            if key not in tracing.PARTIAL_TIMES:
                result["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
