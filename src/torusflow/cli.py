"""Command line entry points.

Exit codes: 0 on a completed command, 1 for a `gronwall-check` whose
verification fails, 2 for configuration errors (including a config file
that does not decode as text, such as one that is not UTF-8 under a UTF-8
locale, an --out that is or lies under a file or that cannot be looked
up, such as a name too long for the file system, an output that
cannot be written, refused after the solve, and a `uniqueness --delta`
that makes the density negative or the cube of the shifted run's
M1 = 1 + sup rho0 + delta non-finite, nan and inf included; for
`gronwall-check` also an unreadable, malformed, inconsistent or
non-finite input file), 3 for numerical divergence (including carried
characteristic feet that drift from the exact ones, TransportDriftError),
4 for a fixed-point iteration that fails to converge, 5 for a stage whose
mass matrix fails the eigenvalue guard (with its eigenvalue and
threshold).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .pipeline import (
    Study,
    converge_study,
    gronwall_check_file,
    run_simulation,
    taylor_benchmark,
    uniqueness_study,
    vacuum_sweep,
    write_study,
)
from .solver import (
    DivergenceError,
    PicardNonConvergenceError,
    VacuumDegenerateError,
)

EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_PICARD = 4
EXIT_VACUUM = 5


def _number_list(text: str, kind=int) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(
            f"expected a comma-separated {kind.__name__} list, got {text!r}"
        ) from exc


def _check_out(out: str) -> None:
    """Refuse an --out that is, or lies under, something other than a
    directory, or that cannot be looked up, before any solve and without
    creating anything."""
    path = Path(out).absolute()
    while True:
        try:
            path.stat()
            break
        except (FileNotFoundError, NotADirectoryError):
            path = path.parent
        except OSError as exc:  # a name too long, a directory not searchable
            raise ConfigError(f"--out {out}: {exc}") from exc
    if not path.is_dir():
        raise ConfigError(f"--out {out}: {path} is not a directory")


def _verdict(passed) -> str:
    return "PASS" if passed else "FAIL"


def _run_lines(study):
    (result,) = study.runs.values()
    for c in result.checks:
        yield f"[{_verdict(c['pass'])}] {c['check']} margin={c['margin']:.6e}"
    pic = result.picard
    yield f"picard: {pic.iterations} iterations, final delta {pic.deltas[-1]:.6e}"


def _converge_lines(study):
    for row in study.files["converge.ndjson"]:
        if "l2_time_diff" in row:
            yield (
                f"N={row['n_small']} vs N={row['n_big']}: "
                f"L2(0,T;L2) diff {row['l2_time_diff']:.6e}"
            )


def _vacuum_lines(study):
    *floors, spread = study.files["vacuum.ndjson"]
    for row in floors:
        if "error" in row:
            continue
        slope = row["momentum_slope"]
        slope = "none" if slope is None else f"{slope:.4f}"
        yield (
            f"n={row['floor_n']}: sup|grad u|^2={row['sup_grad_u_sq']:.6e} "
            f"momentum slope={slope} pass={row['momentum_pass']}"
        )
    yield f"cross-floor sup|grad u|^2 variation: {spread['sup_grad_variation']:.4%}"


def _uniqueness_lines(study):
    (summary,) = study.files["uniqueness.ndjson"]
    yield f"[{_verdict(summary['seed_pass'])}] seed independence"
    yield (
        f"[{_verdict(summary['perturb_pass'])}] perturbation bound "
        f"(A={summary['fitted_A']:.4e}, C={summary['fitted_C']:.4e})"
    )


def _taylor_lines(study):
    *steps, verdict = study.files["taylor.ndjson"]
    for row in steps:
        yield f"dt={row['dt']:g}: max relative error {row['max_rel_error']:.6e}"
    if verdict["orders"]:
        yield "observed orders: " + ", ".join(f"{o:.3f}" for o in verdict["orders"])
    yield f"[{_verdict(verdict['pass'])}] single-mode decay benchmark"


def cmd_study(args) -> int:
    """Every solving command: build its Study from the config (parsed before
    any list option), write it under --out, print its lines and the first
    file written."""
    study = args.study(parse_config(args.config), args)
    first = write_study(study, args.out)
    for line in args.lines(study):
        print(line)
    print(f"wrote {first}")
    return 0


def cmd_gronwall(args) -> int:
    _, report = gronwall_check_file(args.input)
    print(f"hypotheses: {'ok' if report.hypotheses_ok else 'FAIL'} "
          f"(margin {report.hypothesis_margin:.6e})")
    print(f"conclusion: {'ok' if report.conclusion_ok else 'FAIL'} "
          f"(f margin {report.f_margin:.6e}, eta margin {report.eta_margin:.6e})")
    print(report.message)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="Spectral Galerkin solver for variable-density "
        "incompressible flow on the periodic square, with built-in "
        "verification of its energy and regularity estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_study(name, help, lines, study):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="path to a run config file")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=cmd_study, lines=lines, study=study)
        return p

    # `run` is a study of one run, written under "": --out itself.
    add_study("run", "solve one configuration and write its ledger", _run_lines,
              lambda config, args: Study({}, {"": run_simulation(config)}))
    p = add_study("converge", "mode-count refinement study", _converge_lines,
                  lambda config, args: converge_study(config, _number_list(args.n_list)))
    p.add_argument("--N-list", dest="n_list", required=True, help="comma-separated mode counts")
    p = add_study("vacuum-sweep", "vacuum floor sweep", _vacuum_lines,
                  lambda config, args: vacuum_sweep(config, _number_list(args.n_list)))
    p.add_argument("--n-list", dest="n_list", required=True, help="comma-separated floor values n")
    p = add_study("uniqueness", "seed independence and perturbation bound", _uniqueness_lines,
                  lambda config, args: uniqueness_study(config, delta=args.delta))
    p.add_argument("--delta", type=float, default=1e-3, help="initial density shift")

    p = sub.add_parser("gronwall-check", help="verify a discrete comparison inequality from JSON")
    p.add_argument("--input", required=True, help="JSON file with t,f,g,G,alpha,beta,A,g0")
    p.set_defaults(func=cmd_gronwall)

    p = add_study("taylor", "exact single-mode decay benchmark", _taylor_lines,
                  lambda config, args: taylor_benchmark(config, None if args.dt_list is None
                                                        else _number_list(args.dt_list, float)))
    p.add_argument("--dt-list", default=None, help="comma-separated steps for an order study")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "out"):
            _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except PicardNonConvergenceError as exc:
        print(f"fixed point failed: {exc}", file=sys.stderr)
        return EXIT_PICARD
    except VacuumDegenerateError as exc:
        print(f"degenerate mass matrix: {exc}", file=sys.stderr)
        return EXIT_VACUUM


if __name__ == "__main__":
    sys.exit(main())
