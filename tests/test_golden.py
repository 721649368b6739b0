"""Golden outputs: `run` on the shipped configs reproduces the benchmark's
seed-0 reference ledger and checks, compared with the benchmark's own
tolerances (perfbench/verify.py)."""

import importlib
import json
from pathlib import Path

import pytest

from torusflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def read_ndjson(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@pytest.mark.parametrize("workload", ["two_mode", "taylor"])
def test_run_matches_reference(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    verify = importlib.import_module("verify")
    out = tmp_path / "run"
    config = ROOT / "configs" / f"{workload}.cfg"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    reference = BENCH / "reference" / workload / "run"
    for name in ("ledger.ndjson", "checks.ndjson"):
        problems = verify.compare(read_ndjson(reference / name), read_ndjson(out / name), name)
        assert not problems, problems[:5]
