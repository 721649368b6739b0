"""Spectral Galerkin solver for variable-density incompressible flow on the
periodic square, with built-in verification of its energy and regularity
estimates."""

from .config import ConfigError, RunConfig, parse_config, parse_config_text
from .pipeline import (
    RunResult,
    Study,
    converge_study,
    gronwall_check_file,
    run_simulation,
    taylor_benchmark,
    uniqueness_study,
    vacuum_sweep,
    write_run_outputs,
    write_study,
)
from .solver import PicardNonConvergenceError, VacuumDegenerateError
from .transport import DivergenceError, TransportDriftError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DivergenceError",
    "PicardNonConvergenceError",
    "RunConfig",
    "RunResult",
    "Study",
    "TransportDriftError",
    "VacuumDegenerateError",
    "converge_study",
    "gronwall_check_file",
    "parse_config",
    "parse_config_text",
    "run_simulation",
    "taylor_benchmark",
    "uniqueness_study",
    "vacuum_sweep",
    "write_run_outputs",
    "write_study",
]
