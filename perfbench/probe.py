"""Fresh-interpreter child of the benchmark.

    python perfbench/probe.py setup
        Import numpy, then mubose, compute one mean occupation, and print
        the two import times and the first-result time as JSON.

    python perfbench/probe.py cli SPANS_FILE ARGS...
        Traced ``mubose`` command: time the imports as ``setup`` spans,
        wrap every layer's public functions, run ``mubose.cli.main(ARGS)``
        and write the spans to SPANS_FILE as JSON.  Exits with the
        command's exit code.

Both expect ``src`` on PYTHONPATH, as the parent arranges.
"""

import json
import sys
import time


def _timed_imports():
    t0 = time.perf_counter_ns()
    import numpy  # noqa: F401
    t1 = time.perf_counter_ns()
    import mubose
    import mubose.cli  # noqa: F401
    t2 = time.perf_counter_ns()
    return mubose, t0, t1, t2


def main(argv):
    if argv[:1] == ["setup"]:
        mubose, t0, t1, t2 = _timed_imports()
        mubose.mean_occupation(0.1, 1.0)
        t3 = time.perf_counter_ns()
        print(json.dumps({"numpy_import_s": (t1 - t0) / 1e9,
                          "mubose_import_s": (t2 - t1) / 1e9,
                          "first_result_s": (t3 - t2) / 1e9}))
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 2:
        mubose, t0, t1, t2 = _timed_imports()
        from tracing import Tracer

        tracer = Tracer()
        tracer.span("setup.numpy_import", t0, t1)
        tracer.span("setup.mubose_import", t1, t2)
        tracer.install()
        try:
            code = mubose.cli.main(argv[2:])
        finally:
            tracer.uninstall()
            sys.stdout.flush()
            with open(argv[1], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
