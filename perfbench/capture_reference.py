"""Rewrite perfbench/reference/ from seed-0 runs of the current code.

    python3 perfbench/capture_reference.py

Run this only at a commit whose outputs are known to be right: the benchmark
counts every later seed-0 difference beyond verify.RTOL as a failure. Each
capture must itself pass every verdict. Only the files verify.py compares
are kept.
"""

import shutil
import sys
import time

from run import HERE, OUT, ROOT, Harness
from verify import verify_call
from workloads import WORKLOADS, call_argv


def main() -> int:
    for workload in WORKLOADS.values():
        ref = HERE / "reference" / workload.name
        shutil.rmtree(ref, ignore_errors=True)
        workdir = OUT / "capture"
        workdir.mkdir(parents=True, exist_ok=True)
        harness = Harness(workdir, time.monotonic())
        argvs = [call_argv(call, workload.config, ref) for call in workload.calls]
        result = harness.spawn(argvs)
        if result is None:
            sys.exit(f"{workload.name}: worker failed")
        for call, record in zip(workload.calls, result["calls"]):
            problems = [p for op in verify_call(call, record, ref, None) for p in op]
            if problems:
                sys.exit(f"{workload.name}: {problems}")
        for path in sorted(ref.rglob("*")):
            if path.is_file() and path.suffix != ".ndjson":
                path.unlink()
        print(f"{workload.name}: wrote {ref.relative_to(ROOT)}")
    shutil.rmtree(OUT / "capture", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
