"""The benchmark's workloads and the configs it generates from a seed.

Each workload is a list of `torusflow` CLI calls, run the way a user runs
them. An operation is one solver job: a `run`, one floor of a vacuum sweep,
or one `dt` of the taylor study; `pass_ratio` counts operations.

Left out on purpose: `uniqueness` is three two_mode solves and `converge`
re-runs two_mode at N=16 and N=32; neither reaches a layer that the three
workloads below leave unmeasured.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

# Layers every traced iteration of the workload must call at least once.
_COMMON = (
    "transport.density_at",
    "transport.coeffs_at",
    "basis.velocity_at",
    "basis.grid",
    "basis.synthesize",
    "basis.project",
    "solver.picard_solve",
    "solver.solve_linearized",
    "solver.assemble",
    "solver.ode_rhs",
    "solver.build_state",
    "solver.residual_diagnostics",
    "pipeline.run_simulation",
    "pipeline.write_run_outputs",
    "fields.leray_pressure",
    "estimates",
)


@dataclass(frozen=True)
class Call:
    command: str  # torusflow subcommand
    out: str  # output directory inside the iteration directory
    extra: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # committed config, relative to the repository root
    calls: tuple
    required_layers: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "two_mode",
            "configs/two_mode.cfg",
            (Call("run", "run"),),
            _COMMON + ("transport.backtrack", "fields.save_snapshot"),
            "headline run; backward-characteristic transport is ~93% of it, "
            "quadratic in the number of steps",
        ),
        # The full floor list 10,100,1000 takes ~100 s; one floor fits the
        # run length, and n=1000 is the floor nearest to vacuum.
        Workload(
            "vacuum",
            "configs/vacuum.cfg",
            (Call("vacuum-sweep", "sweep", ("--n-list", "1000")),),
            _COMMON + ("transport.backtrack", "pipeline.momentum_probes"),
            "longer horizon, larger grid and near-vacuum mass matrix, plus "
            "momentum probes; quadratic transport hurts most here",
        ),
        Workload(
            "taylor",
            "configs/taylor.cfg",
            (Call("run", "run"), Call("taylor", "study", ("--dt-list", "0.04,0.02,0.01"))),
            _COMMON,
            "constant density bypasses characteristics; assembly and the "
            "ledger walk dominate",
        ),
    )
}

_MODES_LINE = re.compile(r"^(\s*u0\.modes\s*=\s*)([^#\n]*)(.*)$", re.MULTILINE)

# Amplitudes move by at most this share, small enough that every named check
# and the Picard pass count stay as they are at seed 0.
PERTURBATION = 0.01


def generate_config(text: str, seed: int) -> str:
    """Seed 0 returns the committed text unchanged; any other seed scales
    each `u0.modes` amplitude by a factor in [1 - 1%, 1 + 1%] drawn from it."""
    if seed == 0:
        return text
    rng = random.Random(seed)

    def perturb(match):
        tokens = [tok.strip() for tok in match.group(2).split(",")]
        for i in range(2, len(tokens), 3):
            parity, amp = tokens[i].split(":")
            factor = 1.0 + PERTURBATION * (2.0 * rng.random() - 1.0)
            tokens[i] = f"{parity}:{float(amp) * factor!r}"
        return match.group(1) + ", ".join(tokens) + match.group(3)

    generated, found = _MODES_LINE.subn(perturb, text, count=1)
    if not found:
        raise ValueError("config has no u0.modes line to perturb")
    return generated


def call_argv(call: Call, config_path: str, iteration_dir) -> list:
    out = str(iteration_dir / call.out)
    return [call.command, "--config", config_path, "--out", out, *call.extra]


def operations(call: Call) -> list:
    """Names of the operations one call performs."""
    if call.command == "vacuum-sweep":
        return [f"floor n={n}" for n in _option(call, "--n-list").split(",")]
    if call.command == "taylor":
        return [f"taylor dt={dt}" for dt in _option(call, "--dt-list").split(",")]
    return [call.command]


def _option(call: Call, flag: str) -> str:
    return call.extra[call.extra.index(flag) + 1]
