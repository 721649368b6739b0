"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py '<job json>'

The job names the result file, whether to trace, and the `torusflow` CLI
argument lists to run in order. The worker stamps the monotonic clock once
numpy, scipy and `torusflow.cli` are imported (the set-up a user pays), runs
each call through `torusflow.cli.main` with the host-speed probe sampling in
the background, and writes one JSON result file. A job with no calls measures set-up only.
"""

import json
import sys
import time

import numpy
import scipy

import torusflow.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up stamp on purpose)
import io  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from probe import Probe, kernel  # noqa: E402


def run_call(argv, clock):
    out = io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(out):
            rc = torusflow.cli.main(argv)
        error = None
    except SystemExit as exc:
        rc, error = exc.code, None
    except Exception:
        rc, error = None, traceback.format_exc()
    return {
        "argv": argv,
        "rc": rc,
        "seconds": clock() - start,
        "stdout": out.getvalue(),
        "error": error,
    }


def main():
    job = json.loads(sys.argv[1])
    probe = Probe()
    kernel()  # untimed: the first call loads numpy's linear algebra
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(clock=probe.clock)
        tracer.install()
    probe.start()
    try:
        calls = [run_call(argv, probe.clock) for argv in job["calls"]]
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "ready": READY,
        "calls": calls,
        "factor": probe.factor(),
        "probe_samples": len(probe.samples),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer is not None else None,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
