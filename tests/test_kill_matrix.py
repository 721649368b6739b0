"""Kill matrix: which named checks fail under each program mutant.

A mutant is a monkeypatch of a `torusflow.solver` or `torusflow.pipeline`
name, never a switch in the package.  Each one runs on two_mode and vacuum
cut to T = 0.05 (0.1-0.2 s a run), and the exact set of failing checks is
pinned, so a change that blinds a check, or makes one fail on correct code,
shows up as a changed row.  The Picard consistency residual is measured
under each mutant too, and the mutants it exceeds RESIDUAL_TOL on are
pinned.  README's kill matrix is checked against KILLED.
Abbreviations in the comments: orth = galerkin_orthogonality, proj =
projection_identity, E-id / E-ineq = energy identity / inequality.
"""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from torusflow import pipeline, solver
from torusflow.config import parse_config

ROOT = Path(__file__).resolve().parent.parent

_assemble = solver.assemble
_carried = solver.carried_densities
_picard = pipeline.picard_solve


def _operators(b_scale, lam_scale):
    """`assemble` with the RK4 operators A^{-1}(b_scale B + lam_scale Lam)."""

    def assemble(rho, v_grid, basis):
        mats = _assemble(rho, v_grid, basis)
        n = len(mats.op)
        lam = lam_scale * np.diag(basis.lambdas)
        mats.op = np.linalg.solve(mats.a[:n], b_scale * mats.b[:n] + lam)
        return mats

    return assemble


def _euler_step(y, rate, h, start, mid, end):
    """Forward Euler in place of `rk4_step`, with its return shape."""
    k1 = rate(y, start)
    return y + h * k1, k1


def _frozen(source, history, M, nodes, times, size):
    """Every density is the first one, rho0."""
    rho0 = None
    for lo, rho in _carried(source, history, M, nodes, times, size):
        if rho0 is None:
            rho0 = rho[0].copy()
        yield lo, np.broadcast_to(rho0, rho.shape).copy()


def _lagged(source, history, M, nodes, times, size):
    """Each density is the one of the time before (rho0 at the first)."""
    prev = None
    for lo, rho in _carried(source, history, M, nodes, times, size):
        out = np.empty_like(rho)
        out[0] = rho[0] if prev is None else prev
        out[1:] = rho[:-1]
        prev = rho[-1].copy()
        yield lo, out


def _one_pass(v, source, u0, M, dt, tol, max_iter):
    """The Picard loop stopped after its first pass, whatever its delta:
    the bare one-pass report, which met tol = inf."""
    return _picard(v, source, u0, M, dt, math.inf, 1)


# mutant: the (module, name, replacement) patches that make it
MUTANTS = {
    "none": [],
    "b_sign": [(solver, "assemble", _operators(-1.0, 1.0))],
    "lambda_halved": [(solver, "assemble", _operators(1.0, 0.5))],
    "b_dropped": [(solver, "assemble", _operators(0.0, 1.0))],
    "forward_euler": [(solver, "rk4_step", _euler_step)],
    # Picard passes and the ledger walk alike.
    "density_frozen": [
        (solver, "carried_densities", _frozen),
        (pipeline, "carried_densities", _frozen),
    ],
    # Picard passes only: the stage densities lag one stage.
    "stage_density_lagged": [(solver, "carried_densities", _lagged)],
    "picard_one_pass": [(pipeline, "picard_solve", _one_pass)],
}

RESIDUALS = {"galerkin_orthogonality", "projection_identity", "energy_identity"}

# The failing checks per mutant, the same on both configs at T = 0.05.  The
# frozen density kills nothing here; on vacuum at its full T = 0.2 it fails
# E-id.  The lagged stage density kills nothing on either.  The one-pass
# Picard loop fails picard_convergence whatever tol it ran with: the check
# reads the configured tol, which its one delta does not meet.
KILLED = {
    "none": set(),
    "b_sign": RESIDUALS,
    "lambda_halved": RESIDUALS | {"energy_inequality"},
    "b_dropped": RESIDUALS,
    "forward_euler": {"energy_identity"},
    "density_frozen": set(),
    "stage_density_lagged": set(),
    "picard_one_pass": {"picard_convergence"},
}

# The mutants whose Picard consistency residual, the largest over nodes of
# |derivs - fresh| / |fresh| with fresh the rates rebuilt from the ledger
# walk's densities, exceeds RESIDUAL_TOL on both configs: exactly the two
# that no named check kills.  At T = 0.05 they read 2.5e-6 / 1.3e-5 (lagged)
# and 1.4e-6 / 1.3e-3 (one pass) on two_mode / vacuum; the control and the
# other mutants read at most 6.5e-14.
INCONSISTENT = {"stage_density_lagged", "picard_one_pass"}


@pytest.mark.parametrize("config", ["two_mode", "vacuum"])
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_kill_matrix(monkeypatch, config, mutant):
    cfg = replace(parse_config(ROOT / "configs" / f"{config}.cfg"), T=0.05, snapshots=())
    for module, name, replacement in MUTANTS[mutant]:
        monkeypatch.setattr(module, name, replacement)
    result = pipeline.run_simulation(cfg)
    checks = result.checks
    assert len(checks) == 9
    for check in checks:
        assert check["pass"] == (check["margin"] >= 0.0), check
    assert {c["check"] for c in checks if not c["pass"]} == KILLED[mutant]
    # The Picard consistency residual, under the mutant's patches: the
    # stored rates against those rebuilt from the walk's densities.
    h = result.history
    fresh = solver.build_state(h.basis, h.coeffs, result.ledger.rho).fdot
    residual = np.max(np.linalg.norm(h.derivs - fresh, axis=1) / np.linalg.norm(fresh, axis=1))
    assert (residual > pipeline.RESIDUAL_TOL) == (mutant in INCONSISTENT), residual


def test_readme_kill_matrix_follows_the_test():
    # README's table lists the mutants in this file's order, each with the
    # checks KILLED pins; "none" is the empty set.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Kill matrix\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| [^|]+ \| (.*) \|$", section, re.M)
    table = {mutant: set(re.findall(r"`([^`]+)`", killed)) for mutant, killed in rows}
    assert list(table) == list(KILLED)
    assert table == KILLED
