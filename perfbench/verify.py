"""Correctness gate: verdicts of every call and, on seed 0, the reference.

Every operation gets a list of problems; an empty list is a pass. A problem
never aborts the run, it counts the operation as failed.

Reference comparison (seed 0 only). The files under `reference/<workload>/`
were written by `capture_reference.py` at the commit that added the
benchmark. A number matches when |got - ref| <= RTOL * max(|got|, |ref|) +
ATOL.

RTOL = 1e-11 sits between two measured cases. Reordering the sum in the
mass-matrix product moves ledger values by at most 1.2e-15 relative on
two_mode and 2.5e-15 on vacuum, and a reordering allowed to reach 1e-13
still has a factor 100 to spare. Replacing the RK4 characteristic step by
the midpoint rule moves two_mode ledger values by 3e-10, 30 times RTOL.
ATOL = 1e-13 absorbs entries that are rounding noise around zero
(orthogonality residuals and mass deviation near 1e-16, the Picard margin
`tol - delta` whose last delta ends near rounding level); the midpoint
transport moves the energy residual from 6e-16 to 1e-11, well past it.

Three fields amplify rounding by design and are compared more loosely: the
Picard `deltas` and `contraction_factors` end at rounding level, so only
their length (the pass count) must match, and the taylor `orders` are logs
of error ratios near 1e-11, where a 1e-13 change in the coefficients moves
them by ~4e-3, so they match to ORDER_ATOL.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Call, operations

RTOL = 1e-11
ATOL = 1e-13
ORDER_ATOL = 1e-2
LENGTH_ONLY = {"deltas", "contraction_factors"}

TAYLOR_PASS = "[PASS] single-mode decay benchmark"


def _ndjson(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(ref, got, where="", atol=ATOL) -> list:
    """Mismatches between two decoded JSON values, as readable strings."""
    if isinstance(ref, bool) or isinstance(got, bool) or isinstance(ref, str):
        return [] if ref == got else [f"{where}: {got!r} != reference {ref!r}"]
    if isinstance(ref, (int, float)):
        if not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number"]
        if math.isclose(got, ref, rel_tol=RTOL, abs_tol=atol):
            return []
        return [f"{where}: {got!r} != reference {ref!r}"]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length {len(got) if isinstance(got, list) else '?'} != {len(ref)}"]
        return [p for i, (r, g) in enumerate(zip(ref, got)) for p in compare(r, g, f"{where}[{i}]", atol)]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ from reference"]
        problems = []
        for key in ref:
            sub = f"{where}.{key}" if where else key
            if key in LENGTH_ONLY:
                if len(got[key]) != len(ref[key]):
                    problems.append(f"{sub}: length {len(got[key])} != {len(ref[key])}")
            else:
                problems += compare(ref[key], got[key], sub, ORDER_ATOL if key == "orders" else atol)
        return problems
    return [] if ref == got else [f"{where}: {got!r} != reference {ref!r}"]


def _against_reference(out: Path, ref: Path | None, names) -> list:
    if ref is None:
        return []
    problems = []
    for name in names:
        problems += [
            f"{name} {p}"
            for p in compare(_ndjson(ref / name), _ndjson(out / name))[:3]
        ]
    return problems


def _failed_checks(path: Path) -> list:
    return [f"check {c['check']} FAIL" for c in _ndjson(path) if not c["pass"]]


def _verify_run(record, out: Path, ref: Path | None) -> list:
    problems = _failed_checks(out / "checks.ndjson")
    if "[FAIL]" in record["stdout"]:
        problems.append("[FAIL] line on stdout")
    return problems + _against_reference(out, ref, ("ledger.ndjson", "checks.ndjson"))


def _verify_sweep(call: Call, record, out: Path, ref: Path | None) -> list:
    rows = {row.get("floor_n"): row for row in _ndjson(out / "vacuum.ndjson")}
    per_op = []
    for op in operations(call):
        n = int(op.split("=")[1])
        row = rows.get(n)
        if row is None or "error" in row:
            per_op.append([f"{op}: {row['error'] if row else 'no row'}"])
            continue
        problems = [] if row["momentum_pass"] else [f"{op}: momentum continuity FAIL"]
        summary = [line for line in record["stdout"].splitlines() if line.startswith(f"n={n}:")]
        if len(summary) != 1 or not summary[0].endswith("pass=True"):
            problems.append(f"{op}: no passing summary line")
        floor_out = out / f"n{n}"
        problems += _failed_checks(floor_out / "checks.ndjson")
        if ref is not None:
            problems += _against_reference(
                floor_out, ref / f"n{n}", ("ledger.ndjson", "checks.ndjson")
            )
            problems += [f"vacuum.ndjson {p}" for p in compare(
                next(r for r in _ndjson(ref / "vacuum.ndjson") if r.get("floor_n") == n), row
            )]
            problems += _against_reference(out, ref, (f"momentum_n{n}.ndjson",))
        per_op.append(problems)
    return per_op


def _verify_taylor(call: Call, record, out: Path, ref: Path | None) -> list:
    rows = _ndjson(out / "taylor.ndjson")
    shared = [] if TAYLOR_PASS in record["stdout"] else ["no taylor [PASS] line"]
    if not rows or rows[-1].get("pass") is not True:
        shared.append("taylor study pass is not true")
    ops = operations(call)
    if len(rows) != len(ops) + 1:
        return [shared + [f"{len(rows)} rows for {len(ops)} steps"] for _ in ops]
    if ref is not None:
        ref_rows = _ndjson(ref / "taylor.ndjson")
        shared += compare(ref_rows[-1], rows[-1], "taylor.ndjson orders row")
        return [
            shared + compare(r, g, f"taylor.ndjson {op}")
            for op, r, g in zip(ops, ref_rows, rows)
        ]
    return [list(shared) for _ in ops]


def verify_call(call: Call, record, iteration_dir: Path, ref_dir: Path | None) -> list:
    """Problems for each operation of one call, in operations(call) order."""
    ops = operations(call)
    if record is None:
        return [["worker died before finishing this call"] for _ in ops]
    if record["rc"] != 0:
        reason = f"exit {record['rc']}" if record["error"] is None else record["error"].strip().splitlines()[-1]
        return [[reason] for _ in ops]
    out = iteration_dir / call.out
    ref = ref_dir / call.out if ref_dir is not None else None
    try:
        if call.command == "vacuum-sweep":
            return _verify_sweep(call, record, out, ref)
        if call.command == "taylor":
            return _verify_taylor(call, record, out, ref)
        return [_verify_run(record, out, ref)]
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [[f"unreadable output: {type(exc).__name__}: {exc}"] for _ in ops]
