"""Golden outputs: the CLI on the shipped configs reproduces the benchmark's
seed-0 reference files, compared with the benchmark's own tolerances
(perfbench/verify.py): `run` on two_mode and taylor, the taylor study and
the vacuum sweep at floor n = 1000.  The reference files are only read."""

import importlib
import json
from pathlib import Path

import pytest

from torusflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# (config, CLI command and flags, reference directory, files compared)
GOLDEN = {
    "two_mode": ("two_mode", ["run"], "two_mode/run", ["ledger.ndjson", "checks.ndjson"]),
    "taylor": ("taylor", ["run"], "taylor/run", ["ledger.ndjson", "checks.ndjson"]),
    "taylor-study": (
        "taylor",
        ["taylor", "--dt-list", "0.04,0.02,0.01"],
        "taylor/study",
        ["taylor.ndjson"],
    ),
    "vacuum-sweep": (
        "vacuum",
        ["vacuum-sweep", "--n-list", "1000"],
        "vacuum/sweep",
        ["n1000/ledger.ndjson", "n1000/checks.ndjson", "momentum_n1000.ndjson", "vacuum.ndjson"],
    ),
}


def read_ndjson(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_matches_reference(case, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    verify = importlib.import_module("verify")
    workload, command, reference, names = GOLDEN[case]
    out = tmp_path / "out"
    config = ROOT / "configs" / f"{workload}.cfg"
    assert main([command[0], "--config", str(config), "--out", str(out), *command[1:]]) == 0
    capsys.readouterr()
    for name in names:
        expected = read_ndjson(BENCH / "reference" / reference / name)
        problems = verify.compare(expected, read_ndjson(out / name), name)
        assert not problems, problems[:5]
