"""The benchmark's layer tracer still finds and reaches every layer.

perfbench/tracer.py patches torusflow's functions by name and the benchmark
requires each workload to call a fixed set of layers.  A refactor that
renames a patched function (LookupError at install) or stops calling a
required layer fails here, in-process on `run` over the configs of the
taylor and two_mode workloads, instead of only under the benchmark's
`--trace 1`.  The vacuum workload stays with the benchmark: its momentum
probes synthesize outside `build_state`.  perfbench/ is only read.
"""

import importlib
from pathlib import Path

import pytest

from torusflow.cli import main

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
    # Each node state is synthesized once: u, grad u and u_t in build_state,
    # lap u in residual_diagnostics (two_mode: 4 x (61 nodes + 1 snapshot)).
    assert tracer.calls["basis.synthesize"] == 4 * tracer.calls["solver.build_state"]
