"""The benchmark's layer tracer still finds and reaches every layer.

perfbench/tracer.py patches torusflow's functions by name and the benchmark
requires each workload to call a fixed set of layers.  A refactor that
renames a patched function (LookupError at install) or stops calling a
required layer fails here, in-process on `run` over configs/taylor.cfg,
instead of only under the benchmark's `--trace 1`.  perfbench/ is only read.
"""

import importlib
from pathlib import Path

from torusflow.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_reaches_every_required_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        config = ROOT / "configs" / "taylor.cfg"
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    required = workloads.WORKLOADS["taylor"].required_layers
    missing = [layer for layer in required if tracer.calls[layer] == 0]
    assert not missing, missing
    # Each node state is synthesized once: u, grad u and u_t in build_state,
    # lap u in residual_diagnostics.
    assert tracer.calls["basis.synthesize"] == 4 * tracer.calls["solver.build_state"]
