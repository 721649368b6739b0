"""The benchmark's layer tracer still finds and reaches every layer.

perfbench/tracer.py patches torusflow's functions by name and the benchmark
requires each workload to call a fixed set of layers.  A refactor that
renames a patched function (LookupError at install) or stops calling a
required layer fails here, in-process, instead of only under the
benchmark's `--trace 1`: `run` over the configs of the taylor and two_mode
workloads, and the vacuum workload's own sweep call on its config with a
shorter horizon.  The `run` cases also pin the ledger walk to blocks of
nodes, one `build_state` per block, the carried sweeps to one grid
velocity per RK4 time of a node step and every grid synthesis to one product
(`BasisGrid.planes`, which the tracer does not patch, counted here), and
two_mode's dense output to one `coeffs_at` call per block of times.
two_mode also pins its transport, velocity, assembly, right-hand-side and
Picard counts, each derived by hand: its coefficient ODE takes one RK4
step of stacked step matrices, four right-hand sides, per assembly block,
never four per time step.  perfbench/ is only read.
"""

import importlib
import math
import re
from pathlib import Path

import pytest

from torusflow import pipeline, solver
from torusflow.basis import BasisGrid
from torusflow.cli import main
from torusflow.config import parse_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workloads module."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def traced_layers_missing(workload, argv, capsys):
    """Run the CLI under the benchmark's tracer; returns the tracer and the
    workload's required layers that it never called."""
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return tracer, [layer for layer in workload.required_layers if tracer.calls[layer] == 0]


@pytest.mark.parametrize("workload", ["taylor", "two_mode"])
def test_tracer_reaches_every_required_layer(tmp_path, capsys, monkeypatch, workloads, workload):
    config = ROOT / workloads.WORKLOADS[workload].config
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "run")]
    planes = []
    original = BasisGrid.planes
    monkeypatch.setattr(
        BasisGrid, "planes", lambda grid, rows: planes.append(rows.shape) or original(grid, rows)
    )
    tracer, missing = traced_layers_missing(workloads.WORKLOADS[workload], argv, capsys)
    assert not missing, missing
    # The ledger walk takes one build_state per block of nodes, plus one per
    # snapshot (taylor: 501 nodes at M = 16; two_mode: 61 nodes at M = 32
    # and 1 snapshot); a walk one node at a time fails here.
    cfg = parse_config(config)
    nodes = len((tmp_path / "run" / "ledger.ndjson").read_text().splitlines())
    blocks = math.ceil(nodes / max(1, pipeline.WALK_POINTS // cfg.M**2))
    assert blocks < nodes
    assert tracer.calls["solver.build_state"] == blocks + len(cfg.snapshots)
    # Each stack of states is synthesized once.  build_state calls
    # synthesize_gradient, which synthesizes u inside it and differentiates
    # those planes (2 calls), then synthesize for u_t (1 call): 3 per
    # build_state; residual_diagnostics synthesizes nothing and solves one
    # pressure per build_state.
    assert tracer.calls["basis.synthesize"] == 3 * tracer.calls["solver.build_state"]
    assert tracer.calls["fields.leray_pressure"] == tracer.calls["solver.build_state"]
    # The carried sweeps take one grid velocity per RK4 time, each the
    # planes of one weighed row (N, 2): a start field, then a midpoint and
    # an end field per label step, one per interval.  Each Picard pass and
    # the ledger walk alike step node to node, each synthesizing the fields
    # of the pass's stage times once (two_mode: 4 passes x (1 + 2 x 60) +
    # (1 + 2 x 60) = 605).  A constant density (taylor) walks nothing.
    # Every other call is a grid synthesis of a stack of weighed rows
    # (S, N, 2): u (inside synthesize_gradient; grad u is the spectral
    # derivative of those planes and synthesizes nothing) and u_t in each
    # build_state, 2 per build_state (two_mode: 2 x (31 walk blocks + 1
    # snapshot) = 64; 605 + 64 = 669 in all; taylor: 2 x 63 walk blocks =
    # 126).
    steps = round(cfg.T / cfg.dt)
    states = tracer.calls["solver.build_state"]
    sweeps = 0
    if cfg.density_kind != "constant":
        passes = tracer.calls["solver.solve_linearized"]
        sweeps = (passes + 1) * (1 + 2 * steps)
    assert [shape for shape in planes if len(shape) == 2] == [(cfg.N, 2)] * sweeps
    stacks = [shape for shape in planes if len(shape) != 2]
    assert len(stacks) == 2 * states and all(shape[1:] == (cfg.N, 2) for shape in stacks)
    assert len(planes) == {"two_mode": 669, "taylor": 126}[workload]
    if workload == "two_mode":
        # Dense output comes one call per block of times, never one per RK4
        # time.  Each Picard pass: 11 assembly blocks of its 121 stage times
        # (STAGE_POINTS 12,800 // 32^2 = 12 stages a block), 6 sweep chunks
        # of 12 of its 61 nodes, 1 drift guard and 1 Picard delta; the
        # ledger walk: 31 chunks of 2 of its 61 nodes, one per block, and 1
        # guard; each snapshot: its coefficients and its backtrack.
        # 4 x 19 + 32 + 2 = 110.
        size = solver.STAGE_POINTS // cfg.M**2
        stage_blocks = math.ceil((2 * steps + 1) / size)
        chunks = math.ceil((steps + 1) / size)
        expected = passes * (stage_blocks + chunks + 2) + blocks + 1 + 2 * len(cfg.snapshots)
        assert tracer.calls["transport.coeffs_at"] == expected == 110
        # The Picard loop takes 4 passes.  Only the snapshot backtracks: 1
        # density_at and 1 backtrack of 0.075 / 0.0025 = 30 RK4 steps.
        assert tracer.counts["solver.picard_iterations"] == passes == 4
        assert tracer.calls["transport.density_at"] == len(cfg.snapshots) == 1
        assert tracer.calls["transport.backtrack"] == len(cfg.snapshots) == 1
        rk4_steps = round(cfg.snapshots[0] / cfg.dt)
        assert tracer.counts["transport.backtrack.rk4_steps"] == rk4_steps == 30
        # Each stage block of a pass takes one advecting field on the 32^2
        # grid, 4 x 11 = 44 calls of 1,024 points, and one assembly; so does
        # each build_state: 44 + 31 walk blocks + 1 snapshot = 76.
        fields = passes * stage_blocks
        assert tracer.calls["basis.velocity_at"] == fields == 44
        assert tracer.counts["basis.velocity_at.points"] == fields * cfg.M**2 == 45_056
        assert tracer.calls["solver.assemble"] == fields + states == 76
        # Each pass: 4 right-hand sides per assembly block that completes an
        # RK4 step, the one rk4_step that forms the step matrices of all its
        # complete steps, and 1 stacked for the nodal rates; each
        # build_state one.  Every block of two_mode completes a step: the
        # first holds 12 stages (5 steps, 2 stages left over), each full one
        # after it 2 + 12 (6 steps, 2 left over), the last 2 + 1 (1 step):
        # 4 x (4 x 11 + 1) + 32 = 212.
        expected = passes * (4 * stage_blocks + 1) + states
        assert tracer.calls["solver.ode_rhs"] == expected == 212


def test_tracer_reaches_every_vacuum_layer(tmp_path, capsys, workloads):
    # The workload's own call, one floor of the sweep, on a copy of its
    # config cut to T = 0.02 (8 steps).
    workload = workloads.WORKLOADS["vacuum"]
    config = tmp_path / "vacuum.cfg"
    config.write_text(re.sub(r"(?m)^T = .*$", "T = 0.02", (ROOT / workload.config).read_text()))
    assert parse_config(config).T == 0.02
    (call,) = workload.calls
    argv = workloads.call_argv(call, str(config), tmp_path)
    _, missing = traced_layers_missing(workload, argv, capsys)
    assert not missing, missing
