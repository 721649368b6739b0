"""Command line entry points.

Exit codes: 0 on a completed command, 1 for a `gronwall-check` whose
verification fails, 2 for configuration errors (for `gronwall-check` also an
unreadable, malformed or inconsistent input file), 3 for numerical
divergence (including carried characteristic feet that drift from the exact
ones, TransportDriftError), 4 for a fixed-point iteration that fails to
converge, 5 for a degenerate mass matrix caused by vanishing density.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .pipeline import (
    converge_study,
    gronwall_check_file,
    run_simulation,
    taylor_benchmark,
    uniqueness_study,
    vacuum_sweep,
    write_run_outputs,
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


def _print_checks(checks: list[dict]) -> None:
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['check']} margin={c['margin']:.6e}")


def cmd_run(args) -> int:
    config = parse_config(args.config)
    result = run_simulation(config, seed=args.seed)
    write_run_outputs(result, args.out)
    _print_checks(result.checks)
    pic = result.picard
    print(f"picard: {pic.iterations} iterations, final delta {pic.deltas[-1]:.6e}")
    print(f"wrote {Path(args.out) / 'ledger.ndjson'}")
    return 0


def cmd_converge(args) -> int:
    config = parse_config(args.config)
    study = converge_study(config, _number_list(args.n_list))
    write_study(study, args.out)
    for row in study.files["converge.ndjson"]:
        if "l2_time_diff" in row:
            print(
                f"N={row['n_small']} vs N={row['n_big']}: "
                f"L2(0,T;L2) diff {row['l2_time_diff']:.6e}"
            )
    print(f"wrote {Path(args.out) / 'converge.ndjson'}")
    return 0


def cmd_vacuum(args) -> int:
    config = parse_config(args.config)
    study = vacuum_sweep(config, _number_list(args.n_list))
    write_study(study, args.out)
    *floors, spread = study.files["vacuum.ndjson"]
    for row in floors:
        if "error" in row:
            continue
        slope = row["momentum_slope"]
        slope = "none" if slope is None else f"{slope:.4f}"
        print(
            f"n={row['floor_n']}: sup|grad u|^2={row['sup_grad_u_sq']:.6e} "
            f"momentum slope={slope} pass={row['momentum_pass']}"
        )
    print(f"cross-floor sup|grad u|^2 variation: {spread['sup_grad_variation']:.4%}")
    print(f"wrote {Path(args.out) / 'vacuum.ndjson'}")
    return 0


def cmd_uniqueness(args) -> int:
    config = parse_config(args.config)
    study = uniqueness_study(config, delta=args.delta)
    write_study(study, args.out)
    (summary,) = study.files["uniqueness.ndjson"]
    print(f"[{'PASS' if summary['seed_pass'] else 'FAIL'}] seed independence")
    print(f"[{'PASS' if summary['perturb_pass'] else 'FAIL'}] perturbation bound "
          f"(A={summary['fitted_A']:.4e}, C={summary['fitted_C']:.4e})")
    print(f"wrote {Path(args.out) / 'uniqueness.ndjson'}")
    return 0


def cmd_gronwall(args) -> int:
    _, report = gronwall_check_file(args.input)
    print(f"hypotheses: {'ok' if report.hypotheses_ok else 'FAIL'} "
          f"(margin {report.hypothesis_margin:.6e})")
    print(f"conclusion: {'ok' if report.conclusion_ok else 'FAIL'} "
          f"(f margin {report.f_margin:.6e}, eta margin {report.eta_margin:.6e})")
    print(report.message)
    return 0 if report.passed else 1


def cmd_taylor(args) -> int:
    config = parse_config(args.config)
    dts = _number_list(args.dt_list, float) if args.dt_list else None
    study = taylor_benchmark(config, dts)
    write_study(study, args.out)
    *steps, verdict = study.files["taylor.ndjson"]
    for row in steps:
        print(f"dt={row['dt']:g}: max relative error {row['max_rel_error']:.6e}")
    if verdict["orders"]:
        print("observed orders: " + ", ".join(f"{o:.3f}" for o in verdict["orders"]))
    print(f"[{'PASS' if verdict['pass'] else 'FAIL'}] single-mode decay benchmark")
    print(f"wrote {Path(args.out) / 'taylor.ndjson'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="Spectral Galerkin solver for variable-density "
        "incompressible flow on the periodic square, with built-in "
        "verification of its energy and regularity estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a run config file")
        p.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", help="solve one configuration and write its ledger")
    add_common(p_run)
    p_run.add_argument(
        "--seed",
        choices=("initial", "zero"),
        default="initial",
        help="fixed-point starting field",
    )
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("converge", help="mode-count refinement study")
    add_common(p_conv)
    p_conv.add_argument(
        "--N-list", dest="n_list", required=True, help="comma-separated mode counts"
    )
    p_conv.set_defaults(func=cmd_converge)

    p_vac = sub.add_parser("vacuum-sweep", help="vacuum floor sweep")
    add_common(p_vac)
    p_vac.add_argument(
        "--n-list", dest="n_list", required=True, help="comma-separated floor values n"
    )
    p_vac.set_defaults(func=cmd_vacuum)

    p_uni = sub.add_parser("uniqueness", help="seed independence and perturbation bound")
    add_common(p_uni)
    p_uni.add_argument(
        "--delta", type=float, default=1e-3, help="initial density shift"
    )
    p_uni.set_defaults(func=cmd_uniqueness)

    p_gro = sub.add_parser(
        "gronwall-check", help="verify a discrete comparison inequality from JSON"
    )
    p_gro.add_argument("--input", required=True, help="JSON file with t,f,g,G,alpha,beta,A,g0")
    p_gro.set_defaults(func=cmd_gronwall)

    p_tay = sub.add_parser("taylor", help="exact single-mode decay benchmark")
    add_common(p_tay)
    p_tay.add_argument(
        "--dt-list", default=None, help="comma-separated steps for an order study"
    )
    p_tay.set_defaults(func=cmd_taylor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
