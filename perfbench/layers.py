"""Per-layer metrics derived from one traced iteration.

Each entry names the end-to-end metric and the workloads it should move, so a
change that claims a gain on one layer can be checked against the prediction.
"""

from __future__ import annotations

# (metric, unit, better, should move)
PER_LAYER = [
    ("transport.density_at.calls", "count", "lower", "wall_s on two_mode, vacuum"),
    ("transport.density_at.self_s", "s", "lower", "wall_s on two_mode, vacuum"),
    ("transport.density_at.unique_share", "ratio", "higher", "wall_s on two_mode, vacuum"),
    ("transport.backtrack.calls", "count", "lower", "wall_s on two_mode, vacuum"),
    ("transport.backtrack.rk4_steps", "count", "lower", "wall_s on two_mode, vacuum"),
    ("transport.backtrack.self_s", "s", "lower", "wall_s on two_mode, vacuum"),
    ("transport.coeffs_at.calls", "count", "lower", "wall_s on two_mode, vacuum"),
    ("transport.coeffs_at.self_s", "s", "lower", "wall_s on two_mode, vacuum"),
    ("basis.velocity_at.calls", "count", "lower", "wall_s on two_mode, vacuum"),
    ("basis.velocity_at.points", "count", "lower", "wall_s on two_mode, vacuum"),
    ("basis.velocity_at.self_s", "s", "lower", "wall_s on two_mode, vacuum"),
    ("basis.grid.self_s", "s", "lower", "wall_s on taylor"),
    ("basis.synthesize.self_s", "s", "lower", "wall_s on taylor"),
    ("basis.project.self_s", "s", "lower", "wall_s on taylor"),
    ("solver.picard_iterations", "count", "lower", "wall_s on all"),
    ("solver.solve_linearized.self_s", "s", "lower", "wall_s on all"),
    ("solver.assemble.calls", "count", "lower", "wall_s on taylor (two_mode after linear-time transport)"),
    ("solver.assemble.self_s", "s", "lower", "wall_s on taylor (two_mode after linear-time transport)"),
    ("solver.ode_rhs.calls", "count", "lower", "wall_s on taylor (two_mode after linear-time transport)"),
    ("solver.ode_rhs.self_s", "s", "lower", "wall_s on taylor (two_mode after linear-time transport)"),
    ("solver.build_state.calls", "count", "lower", "wall_s on taylor, vacuum"),
    ("solver.build_state.self_s", "s", "lower", "wall_s on taylor, vacuum"),
    ("solver.residual_diagnostics.self_s", "s", "lower", "wall_s on taylor, vacuum"),
    ("solver.errors", "count", "lower", "pass_ratio on taylor, vacuum"),
    ("pipeline.picard_s", "s", "lower", "wall_s on vacuum, taylor"),
    ("pipeline.ledger_walk_s", "s", "lower", "wall_s on vacuum, taylor"),
    ("pipeline.momentum_probes.calls", "count", "lower", "wall_s on vacuum"),
    ("pipeline.momentum_probes.s", "s", "lower", "wall_s on vacuum"),
    ("pipeline.write_run_outputs.s", "s", "lower", "wall_s on vacuum, taylor"),
    ("fields.leray_pressure.self_s", "s", "lower", "wall_s on taylor"),
    ("fields.save_snapshot.bytes", "B", "lower", "wall_s on two_mode"),
    ("estimates.self_s", "s", "lower", "wall_s on taylor"),
    ("estimates.ledger_write.bytes", "B", "lower", "wall_s on taylor"),
    ("trace.overhead_s", "s", "lower", "no metric: the tracer's own cost"),
]

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
MOVES = {name: moves for name, _, _, moves in PER_LAYER}

# Metrics that repeat exactly for one seed; the rest are times.
COUNTS = {name for name, unit, _, _ in PER_LAYER if unit in ("count", "B", "ratio")}


def layer_values(snap: dict) -> dict:
    """Every per-layer metric except trace.overhead_s from one Tracer.snapshot()."""
    calls, incl, self_s = snap["calls"], snap["inclusive_s"], snap["self_s"]
    counts, times = snap["counts"], snap["times"]

    def c(layer):
        return calls.get(layer, 0)

    def s(layer):
        return self_s.get(layer, 0.0)

    density_calls = c("transport.density_at")
    return {
        "transport.density_at.calls": density_calls,
        "transport.density_at.self_s": s("transport.density_at"),
        "transport.density_at.unique_share": (
            snap["density_distinct"] / density_calls if density_calls else 1.0
        ),
        "transport.backtrack.calls": c("transport.backtrack"),
        "transport.backtrack.rk4_steps": counts.get("transport.backtrack.rk4_steps", 0),
        "transport.backtrack.self_s": s("transport.backtrack"),
        "transport.coeffs_at.calls": c("transport.coeffs_at"),
        "transport.coeffs_at.self_s": s("transport.coeffs_at"),
        "basis.velocity_at.calls": c("basis.velocity_at"),
        "basis.velocity_at.points": counts.get("basis.velocity_at.points", 0),
        "basis.velocity_at.self_s": s("basis.velocity_at"),
        "basis.grid.self_s": s("basis.grid"),
        "basis.synthesize.self_s": s("basis.synthesize"),
        "basis.project.self_s": s("basis.project"),
        "solver.picard_iterations": counts.get("solver.picard_iterations", 0),
        "solver.solve_linearized.self_s": s("solver.solve_linearized"),
        "solver.assemble.calls": c("solver.assemble"),
        "solver.assemble.self_s": s("solver.assemble"),
        "solver.ode_rhs.calls": c("solver.ode_rhs"),
        "solver.ode_rhs.self_s": s("solver.ode_rhs"),
        "solver.build_state.calls": c("solver.build_state"),
        "solver.build_state.self_s": s("solver.build_state"),
        "solver.residual_diagnostics.self_s": s("solver.residual_diagnostics"),
        "solver.errors": counts.get("solver.errors", 0),
        "pipeline.picard_s": incl.get("solver.picard_solve", 0.0),
        "pipeline.ledger_walk_s": (
            incl.get("pipeline.run_simulation", 0.0) - times.get("picard_in_run_s", 0.0)
        ),
        "pipeline.momentum_probes.calls": c("pipeline.momentum_probes"),
        "pipeline.momentum_probes.s": incl.get("pipeline.momentum_probes", 0.0),
        "pipeline.write_run_outputs.s": incl.get("pipeline.write_run_outputs", 0.0),
        "fields.leray_pressure.self_s": s("fields.leray_pressure"),
        "fields.save_snapshot.bytes": counts.get("fields.save_snapshot.bytes", 0),
        "estimates.self_s": s("estimates"),
        "estimates.ledger_write.bytes": counts.get("estimates.ledger_write.bytes", 0),
    }
