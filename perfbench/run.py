"""torusflow benchmark: one workload, one seed, timed end to end or traced.

    python3 perfbench/run.py --workload two_mode --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds `src/torusflow` and
`configs/`. Each iteration runs the workload's CLI calls through
`torusflow.cli.main` in a fresh interpreter (perfbench/worker.py) with BLAS
and OpenMP pinned to one thread. Iterations repeat while the next one still
fits in `--seconds` and before the deadline; there is always at least one.

Every time is scaled to a reference host speed by the probe of probe.py,
which times a fixed kernel throughout each iteration: on a shared host the
raw times of the same code swing by up to 1.8x between stretches of a run.
The raw times are printed and kept in the record too.

--trace 0 reports the end-to-end metrics:
  wall_s       median over the run's iterations of the summed cli.main
               durations, config parse to last output, scaled
  setup_s      median interpreter start plus import of numpy, scipy and
               torusflow.cli over every worker after a warm-up: half of
               SETUP_SAMPLES set-up-only workers before the iterations, each
               iteration's worker, and a top-up to SETUP_SAMPLES after them;
               scaled by the median probe factor of the run's iterations
  peak_rss_mb  median peak resident memory of an iteration's process
  pass_ratio   1 - failed operations / attempted operations
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of layers.py from the traced ones, plus the tracing
overhead (median traced minus median untraced wall_s). It also prints the
end-to-end metrics of its untraced iterations, so one command shows both.

An iteration that runs past the deadline is dropped as incomplete, not
counted as failed; a run left without the iterations it reports from exits
1 without a result.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The full record, with the environment, goes to
perfbench/out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNTS, MOVES, UNITS, layer_values
from verify import verify_call
from workloads import WORKLOADS, call_argv, generate_config, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 11
# A further cycle of iterations starts only if this multiple of the last
# cycle still ends before the deadline.
ITERATION_MARGIN = 1.5
# The whole run ends inside 180 s, even when the program under test hangs.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class Incomplete(Exception):
    """A worker ran past the deadline: the host was too slow, which says
    nothing about the program's correctness."""


class Harness:
    """Starts workers for one benchmark run and keeps what they report."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.setup_s = []
        self.versions = None
        self.jobs = 0

    def spawn(self, calls=(), trace=False):
        """Run one worker to completion; return its result, or None if it
        crashed. Raise Incomplete if it ran past the deadline."""
        self.jobs += 1
        result_path = self.workdir / f"worker{self.jobs}.json"
        job = {"calls": list(calls), "trace": trace, "result": str(result_path)}
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Incomplete(f"worker still running at the {DEADLINE_S:.0f} s deadline: {calls}")
        if proc.returncode != 0 or not result_path.exists():
            print(f"worker exited {proc.returncode}:\n{stderr}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        result_path.unlink()
        self.setup_s.append(result["ready"] - spawned)
        self.versions = result["versions"]
        return result


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _environment(workload, seed, committed: bytes, generated: str, versions) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or commit
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        **(versions or {}),
        "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS},
        "commit": commit,
        "src_sha256": sources.hexdigest(),
        "config": workload.config,
        "config_sha256": _sha256(committed),
        "generated_config_sha256": _sha256(generated.encode()),
        "seed": seed,
    }


def run_iteration(harness, workload, config_path, index, trace, ref_dir):
    """One iteration: its wall time, peak RSS, trace and per-op problems."""
    iteration_dir = harness.workdir / f"iter{index}"
    argvs = [call_argv(call, str(config_path), iteration_dir) for call in workload.calls]
    result = harness.spawn(argvs, trace=trace)
    records = result["calls"] if result else [None] * len(workload.calls)
    factor = result["factor"] if result else None
    problems = {}
    for call, record in zip(workload.calls, records):
        for op, probs in zip(operations(call), verify_call(call, record, iteration_dir, ref_dir)):
            problems[f"{call.command} {op}" if op != call.command else op] = probs
    shutil.rmtree(iteration_dir, ignore_errors=True)
    raw_wall_s = sum(r["seconds"] for r in records) if result else None
    layers = None
    if result and trace:
        layers = {
            name: value * factor if UNITS[name] == "s" else value
            for name, value in layer_values(result["trace"]).items()
        }
    return {
        "trace": trace,
        "wall_s": raw_wall_s * factor if result else None,
        "raw_wall_s": raw_wall_s,
        "factor": factor,
        "probe_samples": result["probe_samples"] if result else None,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0 if result else None,
        "layers": layers,
        "layer_calls": result["trace"]["calls"] if result and trace else None,
        "problems": problems,
    }


def _check_coverage(workload, iteration):
    """Fail loudly when a layer the workload must reach recorded no call:
    the tracer has lost track of it, or the program stopped calling it."""
    missing = [l for l in workload.required_layers if not iteration["layer_calls"].get(l)]
    if missing:
        sys.exit(f"tracer coverage: {workload.name} recorded no calls to {', '.join(missing)}")


def _per_layer(workload, iterations, untraced_wall_s) -> dict:
    traced = [it for it in iterations if it["trace"] and it["layers"] is not None]
    if not traced:
        return {}
    for it in traced:
        _check_coverage(workload, it)
    metrics = {}
    for name in traced[0]["layers"]:
        values = [it["layers"][name] for it in traced]
        if name in COUNTS and len(set(values)) != 1:
            sys.exit(f"{name} differs between traced iterations of one seed: {values}")
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(it["wall_s"] for it in traced) - untraced_wall_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    workload = WORKLOADS[args.workload]
    committed_path = ROOT / workload.config
    if not (ROOT / "src" / "torusflow" / "cli.py").is_file() or not committed_path.is_file():
        print(f"no torusflow sources or {workload.config} under {ROOT}", file=sys.stderr)
        return 2

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    committed = committed_path.read_bytes()
    generated = generate_config(committed.decode(), args.seed)
    config_path = workdir / Path(workload.config).name
    config_path.write_text(generated)
    ref_dir = HERE / "reference" / workload.name if args.seed == 0 else None

    harness = Harness(workdir, started)
    modes = (False, True) if args.trace else (False,)
    iterations = []
    measure_start = time.monotonic()
    try:
        if harness.spawn() is None:
            print("set-up worker failed", file=sys.stderr)
            return 1
        harness.setup_s.clear()  # warm-up: compiles bytecode, fills caches
        # Set-up samples on both sides of the iterations, whose probe scales them.
        for _ in range(SETUP_SAMPLES // 2):
            if harness.spawn() is None:
                print("set-up worker failed", file=sys.stderr)
                return 1
        measure_start = time.monotonic()
        while True:
            cycle_start = time.monotonic()
            for trace in modes:
                iterations.append(
                    run_iteration(harness, workload, config_path, len(iterations), trace, ref_dir)
                )
            now = time.monotonic()
            cycle_s = now - cycle_start
            if (
                now - measure_start + cycle_s > args.seconds
                or now + ITERATION_MARGIN * cycle_s > harness.deadline
            ):
                break
        measured_s = time.monotonic() - measure_start
        while len(harness.setup_s) < SETUP_SAMPLES:
            if harness.spawn() is None:
                print("set-up worker failed", file=sys.stderr)
                return 1
    except Incomplete as exc:
        print(f"incomplete iteration dropped: {exc}", file=sys.stderr)
        measured_s = time.monotonic() - measure_start
    if not harness.setup_s:
        print("no worker finished before the deadline", file=sys.stderr)
        return 1

    problems = {
        f"iteration {i} {op}": probs
        for i, it in enumerate(iterations)
        for op, probs in it["problems"].items()
        if probs
    }
    attempted = sum(len(it["problems"]) for it in iterations)
    failed = len(problems)
    untraced = [it for it in iterations if not it["trace"] and it["wall_s"] is not None]
    walls = [it["wall_s"] for it in untraced]
    if not walls:
        print("no untraced iteration finished", file=sys.stderr)
        return 1
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(harness.setup_s)
        * statistics.median(it["factor"] for it in iterations if it["factor"] is not None),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in untraced),
        "pass_ratio": 1.0 - failed / attempted,
    }
    metrics, units = end_to_end, END_TO_END_UNITS
    if args.trace:
        metrics, units = _per_layer(workload, iterations, end_to_end["wall_s"]), UNITS
        if not metrics:
            print("no traced iteration finished", file=sys.stderr)
            return 1

    env = _environment(workload, args.seed, committed, generated, harness.versions)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "environment": env,
        "iterations": [{k: v for k, v in it.items() if k != "layer_calls"} for it in iterations],
        "setup_s_samples": harness.setup_s,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": metrics if args.trace else None,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} ({workload.why})")
    print(f"seed {args.seed}, trace {args.trace}, {len(iterations)} iterations in {measured_s:.1f} s")
    print(
        f"environment: python {env.get('python')} numpy {env.get('numpy')} scipy {env.get('scipy')}"
        f", nproc {env['nproc']}, threads pinned to 1, commit {env['commit']}"
    )
    print(f"config {env['config']} sha256 {env['config_sha256'][:16]}, generated {env['generated_config_sha256'][:16]}")
    raw = [it["raw_wall_s"] for it in untraced]
    factors = [it["factor"] for it in untraced]
    print(
        f"untraced wall_s: {len(walls)} samples, scaled min {min(walls):.3f}, "
        f"median {statistics.median(walls):.3f}, max {max(walls):.3f}; raw min {min(raw):.3f}, "
        f"median {statistics.median(raw):.3f}, max {max(raw):.3f}; probe scale "
        f"{min(factors):.3f}-{max(factors):.3f}; setup_s: {len(harness.setup_s)} samples"
    )
    shown = {**end_to_end, **metrics}
    width = max(len(name) for name in shown)
    for name, value in shown.items():
        unit = END_TO_END_UNITS.get(name) or UNITS[name]
        moves = f"  (should move {MOVES[name]})" if name in MOVES else ""
        print(f"  {name:<{width}}  {value:.6g} {unit}{moves}")
    for where, probs in problems.items():
        print(f"FAILED {where}: {'; '.join(probs)}")
    print(f"correct: {failed == 0}  attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
