"""The benchmark's layer tracer still finds and reaches every layer.

perfbench/tracer.py patches torusflow's functions by name and the benchmark
requires each workload to call a fixed set of layers.  A refactor that
renames a patched function (LookupError at install) or stops calling a
required layer fails here, in-process on `run` over the configs of the
taylor and two_mode workloads, instead of only under the benchmark's
`--trace 1`.  It also pins the ledger walk to blocks of nodes: one
`build_state` per block.  The vacuum workload stays with the benchmark: its
momentum probes synthesize outside `build_state`.  perfbench/ is only read.
"""

import importlib
import math
from pathlib import Path

import pytest

from torusflow import pipeline
from torusflow.cli import main
from torusflow.config import parse_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["taylor", "two_mode"])
def test_tracer_reaches_every_required_layer(tmp_path, monkeypatch, capsys, workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        config = ROOT / workloads.WORKLOADS[workload].config
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    required = workloads.WORKLOADS[workload].required_layers
    missing = [layer for layer in required if tracer.calls[layer] == 0]
    assert not missing, missing
    # The ledger walk takes one build_state per block of nodes, plus one per
    # snapshot (taylor: 501 nodes at M = 16; two_mode: 61 nodes at M = 32
    # and 1 snapshot); a walk one node at a time fails here.
    cfg = parse_config(config)
    nodes = len((tmp_path / "run" / "ledger.ndjson").read_text().splitlines())
    blocks = math.ceil(nodes / max(1, pipeline.WALK_POINTS // cfg.M**2))
    assert blocks < nodes
    assert tracer.calls["solver.build_state"] == blocks + len(cfg.snapshots)
    # Each stack of states is synthesized once: u, grad u and u_t in
    # build_state, lap u in residual_diagnostics, 4 calls per build_state.
    assert tracer.calls["basis.synthesize"] == 4 * tracer.calls["solver.build_state"]
