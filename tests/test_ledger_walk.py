"""The ledger walk in blocks of nodes against the walk one node at a time.

`pipeline.node_diagnostics` fills the run's table in blocks of about
WALK_POINTS grid points; `oracles.node_diagnostics_per_node` walks the same
trajectory one node at a time.  Both must give the same table, and a
failure must surface at the node where a walk one node at a time meets it.
The vacuum sweep's momentum probes read the walk's densities at node times.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from oracles import node_diagnostics_per_node, scripted_density

from torusflow import pipeline, transport
from torusflow.basis import BasisSet
from torusflow.config import build_source, parse_config_text
from torusflow.estimates import EstimateLedger
from torusflow.solver import VacuumDegenerateError, assemble, picard_solve
from torusflow.transport import (
    TransportDriftError,
    VelocityHistory,
    bump_density,
    constant_density,
    shift_density,
)

ROOT = Path(__file__).resolve().parent.parent


def block_size(M):
    return max(1, pipeline.WALK_POINTS // (M * M))


def converged(source, M, nodes, dt=0.005):
    basis = BasisSet(8)
    u0 = np.zeros(8)
    u0[0], u0[2], u0[5] = 0.3, 0.2, -0.1
    seed = VelocityHistory.constant(basis, u0, (nodes - 1) * dt)
    history, _ = picard_solve(seed, source, u0, M, dt, 1e-11, 40)
    assert len(history.times) == nodes
    return history


@pytest.mark.parametrize(
    "source, M, nodes",
    [
        (constant_density(), 16, lambda size: size // 2 + 1),
        (constant_density(), 16, lambda size: 2 * size + 3),
        (bump_density(), 32, lambda size: 2 * size + 1),
    ],
    ids=["shorter-than-a-block", "partial-last-block", "bump-density"],
)
def test_block_walk_matches_walk_per_node(source, M, nodes):
    size = block_size(M)
    K = nodes(size)
    assert K < size or K % size != 0
    history = converged(source, M, K)
    block = pipeline.node_diagnostics(source, history, M)
    oracle = node_diagnostics_per_node(source, history, M)
    for field in dataclasses.fields(EstimateLedger):
        np.testing.assert_allclose(
            getattr(block, field.name), getattr(oracle, field.name),
            rtol=1e-12, atol=0.0, err_msg=field.name,
        )


def degenerate_density(M, j):
    """Mass on grid row j % M only, scaled by j + 1: a singular mass matrix
    whose positive threshold differs from node to node."""
    rho = np.zeros((M, M))
    rho[j % M] = j + 1.0
    return rho


@pytest.mark.parametrize(
    "degenerate, drift, expected",
    [
        (lambda size: {size + size // 2, size + size // 2 + 1}, False, "vacuum"),
        (lambda size: {2 * size}, True, "vacuum"),  # before the drift, same block
        (lambda size: set(), True, "drift"),
    ],
    ids=["mid-block", "before-drift", "drift"],
)
def test_walk_reports_first_failure_in_node_order(monkeypatch, degenerate, drift, expected):
    # 2 blocks and a last block of two nodes, from the real carried sweep
    # with scripted densities and, for a drift, a failing drift check at the
    # last node.  A degenerate node raises with its own eigenvalue even
    # mid-block; the sweep's drift error, raised at the last node, comes
    # after every earlier node has been walked.
    M = 16
    size = block_size(M)
    assert size >= 2
    K = 2 * size + 2
    bad = degenerate(size)
    basis = BasisSet(4)
    times = np.linspace(0.0, 0.01 * (K - 1), K)
    history = VelocityHistory(basis, times, np.full((K, 4), 0.1), np.zeros((K, 4)))

    source = scripted_density(
        lambda j: degenerate_density(M, j) if j in bad else np.ones((M, M))
    )
    if drift:

        def drifted(history, feet, walked):
            raise TransportDriftError(float(walked[-1]), 1.0, 0.0)

        monkeypatch.setattr(transport, "_check_drift", drifted)

    stacks = []
    build_state = pipeline.build_state

    def recording_build_state(basis, f, rho):
        stacks.append(len(f))
        return build_state(basis, f, rho)

    monkeypatch.setattr(pipeline, "build_state", recording_build_state)
    errors = {"vacuum": VacuumDegenerateError, "drift": TransportDriftError}
    with pytest.raises(errors[expected]) as err:
        pipeline.node_diagnostics(source, history, M)
    if expected == "vacuum":
        first = min(bad)
        mats = assemble(degenerate_density(M, first)[None], np.zeros((1, 2, M, M)), basis)
        assert (err.value.min_eig, err.value.threshold) == (mats.min_eig[0], mats.threshold[0])
    else:
        assert err.value.t == times[-1]
        # Every node but the last was walked, in blocks of the walk's size.
        assert stacks == [size, size, 1]


def test_momentum_probes_read_the_walk_at_node_times(monkeypatch):
    # The vacuum workload's run at floor n = 1000, cut to T = 0.02 (8
    # steps): probes t_j = T 2^-j for j = 0, 1, 2, 3 fall on nodes and read
    # the ledger's carried density exactly; the other 9 backtrack.  Every
    # norm matches the probe with its density backtracked.
    text = re.sub(r"(?m)^T = .*$", "T = 0.02", (ROOT / "configs" / "vacuum.cfg").read_text())
    cfg = parse_config_text(text)
    result = pipeline.run_simulation(cfg, source=shift_density(build_source(cfg), 1.0 / 1000))
    backtracked = []
    density_at = pipeline.density_at

    def recording_density_at(source, history, M, t, dtau):
        backtracked.append(t)
        return density_at(source, history, M, t, dtau)

    monkeypatch.setattr(pipeline, "density_at", recording_density_at)
    probe_t, norms = pipeline.momentum_probes(result)
    times = result.history.times
    on_node = np.isin(probe_t, times)
    assert on_node.sum() == 4 and np.array_equal(backtracked, probe_t[~on_node])

    grid = result.history.basis.grid(cfg.M)
    mom0 = result.ledger.rho[0] * grid.synthesize(result.history.coeffs[0])
    for t, norm in zip(probe_t, norms):
        u = grid.synthesize(result.history.coeffs_at(t))

        def probe(rho):
            diff = rho * u - mom0
            return math.sqrt(grid.weight * (diff * diff).sum())

        exact = density_at(result.source, result.history, cfg.M, t, cfg.dt)
        assert abs(norm - probe(exact)) <= 1e-13
        if t in times:
            assert norm == probe(result.ledger.rho[np.searchsorted(times, t)])
