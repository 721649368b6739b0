"""Self-test of the tracer: two traced two_mode iterations at seed 0 must
give identical counts, and the counts must match the ones derived by hand.

    python3 perfbench/check_counts.py

density_at = 4 Picard passes x 121 stage times + 61 ledger nodes + 1
snapshot = 546. With dtau = dt, a backtrack from t = j dt/2 takes ceil(j/2)
RK4 steps: 4 x 3660 (passes) + 1830 (ledger) + 30 (snapshot) = 16,500.
Each RK4 step calls velocity_at 4 times, and each flowing stage time once
more for the advecting field: 4 x 16,500 + 4 x 121 = 66,484.
"""

import sys
import time

from layers import COUNTS
from run import OUT, Harness, ROOT, run_iteration
from workloads import WORKLOADS

EXPECTED = {
    "transport.density_at.calls": 546,
    "transport.backtrack.rk4_steps": 16500,
    "basis.velocity_at.calls": 66484,
    "solver.picard_iterations": 4,
}


def main() -> int:
    workload = WORKLOADS["two_mode"]
    workdir = OUT / "check_counts"
    workdir.mkdir(parents=True, exist_ok=True)
    harness = Harness(workdir, time.monotonic())
    counts = []
    for index in range(2):
        it = run_iteration(harness, workload, ROOT / workload.config, index, True, None)
        failed = {op: p for op, p in it["problems"].items() if p}
        if it["layers"] is None or failed:
            sys.exit(f"traced iteration {index} failed: {failed}")
        counts.append({k: v for k, v in it["layers"].items() if k in COUNTS})
    errors = [
        f"{name}: {counts[0][name]} then {counts[1][name]}"
        for name in counts[0]
        if counts[0][name] != counts[1][name]
    ]
    errors += [
        f"{name}: {counts[0][name]}, expected {value}"
        for name, value in EXPECTED.items()
        if counts[0][name] != value
    ]
    for name, value in sorted(counts[0].items()):
        print(f"{name} = {value}")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print("counts repeat exactly and match the expected two_mode values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
