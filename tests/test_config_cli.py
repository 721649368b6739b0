"""Config parsing, CLI plumbing, exit codes, and output formats."""

import json
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from oracles import assemble_stage, axis_derivatives, gradient_at, load_snapshot, narrow_density

from torusflow import basis as basis_module
from torusflow import cli, pipeline, transport
from torusflow import config as config_module
from torusflow.cli import main
from torusflow.config import (
    ConfigError,
    RunConfig,
    build_basis,
    build_u0,
    parse_config,
    parse_config_text,
)
from torusflow.estimates import write_ndjson
from torusflow.fields import grid_points
from torusflow.solver import VacuumDegenerateError
from torusflow.transport import density_at

GOOD = """
# comment line
N = 4
M = 16
dt = 0.01
T = 0.1
density.kind = bump
u0.modes = 1,0,cos:0.3, 0,1,sin:0.2
"""


def test_parse_good_config():
    cfg = parse_config_text(GOOD)
    assert (cfg.N, cfg.M) == (4, 16)
    assert cfg.dt == 0.01 and cfg.T == 0.1
    assert cfg.density_kind == "bump"
    assert list(cfg.u0_modes) == [((1, 0), "cos"), ((0, 1), "sin")]
    assert cfg.u0_modes[(0, 1), "sin"] == 0.2
    assert cfg.picard_tol == 1e-10  # default


def test_parse_optional_keys():
    cfg = parse_config_text(
        GOOD + "picard_tol = 1e-12\npicard_max = 5\nsnapshots = 0.0, 0.05\n"
    )
    assert cfg.picard_tol == 1e-12
    assert cfg.picard_max == 5
    assert cfg.snapshots == [0.0, 0.05]
    assert parse_config_text(GOOD + "snapshots =\n").snapshots == []


ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "configs").glob("*.cfg"))


def test_configs_are_shipped():
    assert SHIPPED


@pytest.mark.parametrize("path", SHIPPED, ids=[path.name for path in SHIPPED])
def test_shipped_config_parses(path):
    # Every file in configs/, found by glob: a stale key in a shipped config
    # fails here, not at a user's command (README's `uniqueness` line, for
    # one, reads two_mode.cfg).
    build_basis(parse_config(path))


def test_config_docs_follow_the_declaration():
    # RunConfig's fields declare the file keys and defaults: README's table
    # lists those keys in field order, config.py's docstring the same set,
    # and both state each default that is a plain value.
    declared = [f.metadata["key"] for f in fields(RunConfig)]
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
    table = dict(re.findall(r"^\| `([^`]+)` \| (.*) \|$", section, re.M))
    assert list(table) == declared
    doc = dict(re.findall(r"^    (\S+) +(.*)$", config_module.__doc__, re.M))
    assert set(doc) == set(declared)
    for f in fields(RunConfig):
        if f.default is not MISSING:
            key = f.metadata["key"]
            for text in (table[key].replace("`", ""), doc[key]):
                assert f"(default {f.default!r})" in text, key


def test_missing_key_names_the_key():
    bad = GOOD.replace("N = 4\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert err.value.key == "N"


def test_several_errors_report_the_first_key_in_field_order():
    # N is malformed, density.kind unknown and u0.modes missing: N is named.
    bad = GOOD.replace("N = 4", "N = four").replace("bump", "bogus").replace("u0.", "# u0.")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert err.value.key == "N"


def test_unknown_and_duplicate_keys_rejected(tmp_path, capsys):
    # density.floor_n is not a key: a single run solves the density as
    # given, and floors come from `vacuum-sweep --n-list`.  Nor is dtau:
    # the carried sweep steps the solver's own times.
    for key in ("bogus", "density.floor_n", "dtau"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(GOOD + f"{key} = 20\n")
        assert err.value.key == key
        cfg = write_config(tmp_path, GOOD + f"{key} = 20\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"unknown configuration key {key!r}" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        parse_config_text(GOOD + "N = 5\n")


def test_mode_spec_validation():
    with pytest.raises(ConfigError):
        parse_config_text(GOOD.replace("1,0,cos:0.3", "1,0,tan:0.3"))
    with pytest.raises(ConfigError):
        parse_config_text(GOOD.replace("1,0,cos:0.3", "-1,0,cos:0.3"))  # not canonical
    for amplitude in ("nan", "inf"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(GOOD.replace("1,0,cos:0.3", f"1,0,cos:{amplitude}"))
        assert err.value.key == "u0.modes"
    with pytest.raises(ConfigError) as err:  # one mode listed twice
        parse_config_text(GOOD.replace("1,0,cos:0.3", "1,0,cos:0.3, 1,0,cos:0.2"))
    assert err.value.key == "u0.modes"
    with pytest.raises(ConfigError):
        parse_config_text(GOOD.replace("density.kind = bump", "density.kind = jelly"))


def test_horizon_and_grid_validation():
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD.replace("T = 0.1", "T = 0.001"))
    assert err.value.key == "T"
    # N = 9 reaches wavenumber 2, so M = 4 aliases it (needs M >= 5).
    cfg = parse_config_text(GOOD.replace("M = 16", "M = 4").replace("N = 4", "N = 9"))
    with pytest.raises(ConfigError) as err:
        build_basis(cfg)
    assert err.value.key == "M"
    # M = 7 resolves 48 modes, but the first 45 reach k = (4, 0) (needs
    # M >= 9): the grid's own alias check refuses it.
    cfg = parse_config_text(GOOD.replace("M = 16", "M = 7").replace("N = 4", "N = 45"))
    with pytest.raises(ConfigError) as err:
        build_basis(cfg)
    assert err.value.key == "M"
    assert "alias-free minimum 9" in str(err.value)


@pytest.mark.parametrize("N", [225, 10**8])
def test_build_basis_rejects_more_modes_than_the_grid_holds(monkeypatch, N):
    # M = 16 resolves |k1|, |k2| <= 7: at most 15^2 - 1 = 224 modes.  A larger
    # N is refused before the modes are listed, which costs time and memory
    # linear in N.
    def no_enumeration(count):
        raise AssertionError("enumerated modes before the alias check")

    monkeypatch.setattr(basis_module, "enumerate_modes", no_enumeration)
    cfg = parse_config_text(GOOD.replace("N = 4", f"N = {N}"))
    with pytest.raises(ConfigError) as err:
        build_basis(cfg)
    assert err.value.key == "M"


def test_build_u0_drops_out_of_span_modes():
    cfg = parse_config_text(GOOD.replace("0,1,sin:0.2", "5,5,cos:0.9"))
    basis = build_basis(cfg)
    u0 = build_u0(cfg, basis)
    assert abs(u0[0] - 0.3) < 1e-15
    assert np.count_nonzero(u0) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


TAYLOR = """
N = 4
M = 16
dt = 0.005
T = 0.1
density.kind = constant
u0.modes = 1,0,cos:0.1
snapshots = 0.05
"""


def test_cli_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, TAYLOR)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout and "[FAIL]" not in stdout

    ledger_lines = (out / "ledger.ndjson").read_text().splitlines()
    assert len(ledger_lines) == 21  # T/dt + 1 nodes
    for line in ledger_lines:
        json.loads(line)
    checks = [json.loads(l) for l in (out / "checks.ndjson").read_text().splitlines()]
    assert all(c["pass"] for c in checks)
    names = {c["check"] for c in checks}
    assert {"energy_identity", "max_principle", "picard_convergence"} <= names
    assert (out / "u_t0.050000.dat").exists()
    assert (out / "rho_t0.050000.dat").exists()
    assert (out / "p_t0.050000.dat").exists()


def test_snapshot_files_hold_the_state(tmp_path):
    # The snapshots `run` writes are the velocity of the trajectory, the
    # transported density and a zero-mean pressure, at the snapshot time.
    config = parse_config_text(GOOD + "snapshots = 0.05\n")
    result = pipeline.run_simulation(config)
    pipeline.write_run_outputs(result, tmp_path)
    t = 0.05
    basis = result.history.basis
    grid = basis.grid(config.M)
    u = load_snapshot(tmp_path / "u_t0.050000.dat")
    expected_u = basis.velocity_at(grid.points, result.history.coeffs_at(t))
    np.testing.assert_allclose(u, expected_u, rtol=0.0, atol=1e-13)
    rho = load_snapshot(tmp_path / "rho_t0.050000.dat")
    expected_rho = density_at(result.source, result.history, config.M, t, config.dt)
    np.testing.assert_array_equal(rho, expected_rho)
    assert rho.min() < rho.max()  # a transported bump, not a constant
    p = load_snapshot(tmp_path / "p_t0.050000.dat")
    assert p.shape == (config.M, config.M)
    assert abs(p.mean()) < 1e-13 and np.abs(p).max() > 0.0


def file_rows(path):
    """A snapshot file's header and its rows, as written."""
    header, *rows = path.read_text().splitlines()
    return header, np.array([row.split() for row in rows], dtype=float)


def in_file_order(field):
    """The rows of a grid field (M, M) or (M, M, C), entry [a, b] at node
    (2pi a/M, 2pi b/M), in (a, b) order with a varying fastest."""
    M = field.shape[0]
    return np.array([np.atleast_1d(field[a, b]) for b in range(M) for a in range(M)])


def pressure_oracle(basis, f, rho, M):
    """The snapshot pressure from point tables and a full complex FFT: the
    gradient part of lap u - rho (u_t + (u . grad) u), with u_t from the
    stage oracle's A u_t = -(B + Lam) f and each axis's own Nyquist mode of
    an even M dropped from its derivative."""
    pts = grid_points(M)
    u = basis.velocity_at(pts, f)
    a, b = assemble_stage(rho, np.moveaxis(u, -1, 0), basis)
    fdot = -np.linalg.solve(a, (b + np.diag(basis.lambdas)) @ f)
    udot = basis.velocity_at(pts, fdot) + np.einsum("abk,abik->abi", u, gradient_at(basis, pts, f))
    g = basis.velocity_at(pts, -basis.lambdas * f) - rho[..., None] * udot
    g_hat = np.fft.fft2(g, axes=(0, 1))
    d = axis_derivatives(M)
    k2 = -(d * d).real.sum(axis=0)
    div_hat = d[0] * g_hat[..., 0] + d[1] * g_hat[..., 1]
    p_hat = np.divide(-div_hat, k2, out=np.zeros_like(div_hat), where=k2 > 0)
    return np.real(np.fft.ifft2(p_hat))


def test_two_mode_snapshots_in_file_order(tmp_path, capsys):
    # `run configs/two_mode.cfg` writes its t = 0.075 snapshots row by row in
    # (a, b) order, a fastest: the trajectory's velocity at the grid points,
    # its transported density and the pressure of an independent oracle.  A
    # swapped grid axis or component fails here.
    path = Path(__file__).resolve().parent.parent / "configs" / "two_mode.cfg"
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    cfg = parse_config(path)
    result = pipeline.run_simulation(cfg)
    M, t = cfg.M, 0.075
    assert cfg.snapshots == [t]
    basis, f = result.history.basis, result.history.coeffs_at(t)
    u = basis.velocity_at(grid_points(M), f)
    rho = density_at(result.source, result.history, M, t, cfg.dt)
    p = pressure_oracle(basis, f, rho, M)
    # No field is symmetric in its grid axes or its components, so a swap shows.
    assert np.abs(u - u[..., ::-1]).max() > 1e-3
    for field in (u, u[..., ::-1], rho, p):
        assert np.abs(field - field.swapaxes(0, 1)).max() > 1e-3
    for name, field, atol in (("u", u, 1e-13), ("rho", rho, 0.0), ("p", p, 1e-12 * np.abs(p).max())):
        header, rows = file_rows(tmp_path / f"{name}_t0.075000.dat")
        assert header == f"M={M} components={1 if field.ndim == 2 else 2}"
        np.testing.assert_allclose(rows, in_file_order(field), rtol=0.0, atol=atol, err_msg=name)


def test_cli_run_solves_at_vacuum(tmp_path, capsys):
    # The bare well, with no floor: the mass matrices pass the stage guard
    # and every check holds with the density's minimum at 0.
    text = (Path(__file__).resolve().parent.parent / "configs" / "vacuum.cfg").read_text()
    cfg = write_config(tmp_path, re.sub(r"(?m)^T = .*$", "T = 0.02", text))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    checks = {c["check"]: c for c in map(json.loads, (out / "checks.ndjson").read_text().splitlines())}
    assert len(checks) == 9 and all(c["pass"] for c in checks.values())
    assert checks["max_principle"]["details"]["lower"] == 0.0
    ledger = [json.loads(line) for line in (out / "ledger.ndjson").read_text().splitlines()]
    assert {row["rho_min"] for row in ledger} == {0.0}


def test_cli_outputs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, TAYLOR)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    snapshots = ("u_t0.050000.dat", "rho_t0.050000.dat", "p_t0.050000.dat")
    for name in ("ledger.ndjson", "checks.ndjson", *snapshots):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def files_under(out):
    """Every file under `out`, as a sorted list of paths relative to it."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


def test_commands_write_exactly_their_files(tmp_path, capsys):
    # `run` writes its ledger, its checks and three files per snapshot time;
    # the sweep writes its two tables and each floor's run, and nothing else.
    cfg = write_config(tmp_path, TAYLOR)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert files_under(out) == [
        "checks.ndjson", "ledger.ndjson", "p_t0.050000.dat", "rho_t0.050000.dat", "u_t0.050000.dat",
    ]
    text = (Path(__file__).resolve().parent.parent / "configs" / "vacuum.cfg").read_text()
    cfg = write_config(tmp_path, re.sub(r"(?m)^T = .*$", "T = 0.02", text), "vacuum.cfg")
    out = tmp_path / "sweep"
    assert main(["vacuum-sweep", "--config", str(cfg), "--out", str(out), "--n-list", "1000"]) == 0
    assert files_under(out) == [
        "momentum_n1000.ndjson", "n1000/checks.ndjson", "n1000/ledger.ndjson", "vacuum.ndjson",
    ]
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # Config errors exit 2: bad key, missing file, a file that is not UTF-8.
    bad = write_config(tmp_path, TAYLOR + "bogus = 1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")]) == 2
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"N = 4\xff\n")
    capsys.readouterr()
    assert main(["run", "--config", str(latin), "--out", str(tmp_path / "x")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    # A density the 16-point grid sees at one node fails the stage guard:
    # exit 5 with the stage's own eigenvalue and a positive threshold.
    monkeypatch.setitem(transport.DENSITY_CATALOG, "narrow", narrow_density)
    narrow = write_config(
        tmp_path, TAYLOR.replace("density.kind = constant", "density.kind = narrow"), "narrow.cfg"
    )
    capsys.readouterr()
    assert main(["run", "--config", str(narrow), "--out", str(tmp_path / "x")]) == 5
    err = capsys.readouterr().err
    found = re.search(r"min eigenvalue (\S+) <= threshold (\S+)", err)
    assert found, err
    assert 0.0 < float(found.group(2)) and float(found.group(1)) <= float(found.group(2))
    # A Picard cap of zero iterations exits 4.
    cap = write_config(tmp_path, TAYLOR + "picard_max = 1\npicard_tol = 1e-30\n", name="cap.cfg")
    assert main(["run", "--config", str(cap), "--out", str(tmp_path / "x")]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("snapshot", ["-0.5", "5.0", "0.005, 0.0050001"])
def test_cli_rejects_snapshot_outside_horizon(tmp_path, capsys, snapshot):
    # Before the solve: a negative time used to crash in backtrack, a time
    # past T used to write fields from the velocity clamped at T, and two
    # times with one file tag (t0.005000) used to write one set of files.
    text = TAYLOR.replace("density.kind = constant", "density.kind = bump")
    text = text.replace("T = 0.1", "T = 0.01").replace("snapshots = 0.05", f"snapshots = {snapshot}")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.key == "snapshots"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "x"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "snapshot" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["dt", "T", "picard_tol"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    # nan and inf used to pass validation: dt=nan and T=inf crashed with a
    # traceback, picard_tol=nan ran every Picard pass and exited 4.
    lines = [line for line in TAYLOR.splitlines() if not line.startswith(f"{key} =")]
    cfg = write_config(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
    out = tmp_path / "x"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_dt_that_does_not_divide_t(tmp_path, capsys):
    # taylor.cfg with dt = 0.3 used to run with steps of 0.25 (ledger times
    # 0, 0.25, 0.5) and exit 0.
    text = (SHIPPED[0].parent / "taylor.cfg").read_text()
    with pytest.raises(ConfigError) as err:
        parse_config_text(text.replace("dt = 0.001", "dt = 0.3"))
    assert err.value.key == "dt"
    cfg = write_config(tmp_path, text.replace("dt = 0.001", "dt = 0.3"))
    out = tmp_path / "x"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "dt must divide T" in capsys.readouterr().err
    assert not out.exists()
    # Round-off in T/dt is not a remainder: 0.3/0.1 = 2.9999999999999996.
    for T in (0.3, 0.7):
        assert T / 0.1 != round(T / 0.1)
        edited = text.replace("dt = 0.001", "dt = 0.1").replace("T = 0.5", f"T = {T}")
        assert parse_config_text(edited).T == T


def test_cli_rejects_dt_too_small_to_check(tmp_path, capsys):
    # From T/dt = 5e11 on, the divisibility tolerance is wider than the gap
    # to the nearest integer.  1/1.3e-12 = 769230769230.77 steps used to pass
    # as a divisor.  Only the parser is called on it: a run would take them all.
    text = (SHIPPED[0].parent / "taylor.cfg").read_text()
    with pytest.raises(ConfigError, match=r"T/dt = 769230769230\.7") as err:
        parse_config_text(text.replace("dt = 0.001", "dt = 1.3e-12").replace("T = 0.5", "T = 1"))
    assert err.value.key == "dt"
    # T = 0.15, dt = 1e-20 used to pass too, and `run` then exited 1 with a
    # traceback from allocating the 1.5e19 node times.
    edited = text.replace("dt = 0.001", "dt = 1e-20").replace("T = 0.5", "T = 0.15")
    cfg = write_config(tmp_path, edited)
    out = tmp_path / "x"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: dt must divide T in under 5e11 steps, got T/dt = 1.5e+19" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def no_solve(*args, **kwargs):
    raise AssertionError("solved before validating the command line")


@pytest.mark.parametrize(
    "argv",
    [
        ["taylor", "--dt-list", "0,0.01"],
        ["taylor", "--dt-list=-0.01,0.005"],
        ["taylor", "--dt-list", "nan"],
        ["converge", "--N-list", "0,2,4"],
        ["uniqueness", "--delta", "nan"],
        ["uniqueness", "--delta", "-2"],
        ["taylor", "--dt-list", "0.5"],
        ["uniqueness", "--delta", "1e300"],
        ["uniqueness", "--delta", "1e200"],
        ["taylor", "--dt-list", "1e-20"],
    ],
    ids=[
        "taylor-zero-dt", "taylor-negative-dt", "taylor-nan-dt", "converge-zero-N",
        "uniqueness-nan-delta", "uniqueness-negative-density", "taylor-dt-over-T",
        "uniqueness-delta-1e300", "uniqueness-delta-1e200", "taylor-dt-past-step-limit",
    ],
)
def test_cli_rejects_bad_study_numbers_before_solving(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(pipeline, "picard_solve", no_solve)
    cfg = write_config(tmp_path, TAYLOR)
    command, *flags = argv
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, values, density, named",
    [
        ("taylor", "--dt-list", [",", ""], "constant",
         "taylor benchmark needs at least one time step"),
        ("vacuum-sweep", "--n-list", [","], "vacuum-well",
         "vacuum sweep needs at least one floor value"),
    ],
    ids=["taylor-empty-dt-list", "vacuum-sweep-empty-n-list"],
)
def test_cli_rejects_empty_study_list_before_solving(
    tmp_path, capsys, monkeypatch, command, option, values, density, named
):
    # Each list parses to no values: taylor ended in an IndexError traceback
    # and vacuum-sweep exited 0 with only the summary row written.  An empty
    # --dt-list is a list with no steps too, not a missing option: taylor ran
    # the config's dt on it.
    monkeypatch.setattr(pipeline, "picard_solve", no_solve)
    cfg = write_config(tmp_path, TAYLOR.replace("density.kind = constant", f"density.kind = {density}"))
    out = tmp_path / "x"
    for value in values:
        assert main([command, "--config", str(cfg), "--out", str(out), option, value]) == 2
        assert f"config error: {named}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "edit, argv, named",
    [
        (("1,0,cos:0.1", "1,0"), ["run"], "u0.modes needs k1,k2,parity:amplitude triples"),
        (("1,0,cos:0.1", "1,0,cos"), ["run"], "u0.modes entry missing `parity:amplitude`"),
        (("1,0,cos:0.1", "1.5,0,cos:0.1"), ["run"], "bad u0.modes entry"),
        (("1,0,cos:0.1", ","), ["run"], "u0.modes lists no modes"),
        (("N = 4", "N 4"), ["run"], "expected `key = value`: 'N 4'"),
        (("N = 4", "N = four"), ["run"], "N must be an integer"),
        (("N = 4", "N = 0"), ["run"], "N must be >= 1"),
        (("M = 16", "M = 2"), ["run"], "M must be >= 3"),
        (("dt = 0.005", "dt = soon"), ["run"], "dt must be a number"),
        (("dt = 0.005", "dt = 0"), ["run"], "dt must be positive"),
        (("T = 0.1", "T = later"), ["run"], "T must be a number"),
        (("T = 0.1", "T = -0.1"), ["run"], "T must be positive"),
        (("0.05", "0.05, soon"), ["run"], "bad snapshots list"),
        ((), ["converge", "--N-list", "2,x,4"], "comma-separated int list, got '2,x,4'"),
        ((), ["taylor", "--dt-list", "0.01,x"], "comma-separated float list, got '0.01,x'"),
        # The config is parsed before the list option.
        (("N = 4", "N = four"), ["converge", "--N-list", "x"], "N must be an integer"),
        (("constant", "vacuum-well"), ["vacuum-sweep", "--n-list", "0"],
         "floor values must be positive integers"),
        (("constant", "bump"), ["taylor"], "taylor benchmark needs density.kind = constant"),
        (("1,0,cos:0.1", "1,0,cos:0.1, 0,1,cos:0.1"), ["taylor"],
         "taylor benchmark needs exactly one u0 mode"),
        (("1,0,cos:0.1", "3,0,cos:0.1"), ["taylor"], "the listed u0 mode is outside the basis"),
        (("1,0,cos:0.1", "1,0,cos:0"), ["taylor"], "taylor benchmark needs a nonzero u0 amplitude"),
    ],
    ids=[
        "modes-triples", "modes-parity", "modes-int-k", "modes-empty", "no-equals",
        "N-not-int", "N-small", "M-small", "dt-not-number", "dt-zero", "T-not-number",
        "T-negative", "snapshots", "N-list-not-int", "dt-list-not-float", "config-first",
        "n-list-zero", "taylor-varying-density", "taylor-two-modes", "taylor-mode-outside-basis",
        "taylor-zero-amplitude",
    ],
)
def test_cli_names_each_rejection(tmp_path, capsys, monkeypatch, edit, argv, named):
    monkeypatch.setattr(pipeline, "picard_solve", no_solve)
    text = TAYLOR.replace(*edit) if edit else TAYLOR
    assert (text != TAYLOR) == bool(edit)
    cfg = write_config(tmp_path, text)
    command, *flags = argv
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "taylor"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_cli_rejects_out_that_is_not_a_directory(tmp_path, capsys, monkeypatch, command, under):
    # Both used to solve first, then end in a FileExistsError or
    # NotADirectoryError traceback with exit 1.
    monkeypatch.setattr(pipeline, "picard_solve", no_solve)
    cfg = write_config(tmp_path, TAYLOR)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "x" if under else taken
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]
    assert taken.read_text() == "kept"


def test_cli_rejects_out_that_cannot_be_looked_up(tmp_path, capsys, monkeypatch):
    # A 300-character name fails the lookup itself (ENAMETOOLONG): it used to
    # end in an OSError traceback with exit 1.
    monkeypatch.setattr(pipeline, "picard_solve", no_solve)
    cfg = write_config(tmp_path, TAYLOR)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / ("a" * 300))]) == 2
    assert "File name too long" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_cli_names_an_output_it_cannot_write(tmp_path, capsys):
    # A directory where the ledger goes: the solve runs, then the write is
    # refused with exit 2, not an IsADirectoryError traceback with exit 1.
    cfg = write_config(tmp_path, TAYLOR)
    out = tmp_path / "x"
    (out / "ledger.ndjson").mkdir(parents=True)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ") and "Is a directory" in err


def test_cli_transport_drift_exits_3(tmp_path, capsys):
    # Large velocity on an 8-point grid: the carried displacement is
    # under-resolved and the drift guard stops the run as a divergence.
    text = (
        "N = 4\nM = 8\ndt = 0.05\nT = 1.0\ndensity.kind = bump\n"
        "u0.modes = 1,0,cos:2.0, 0,1,sin:1.5\n"
    )
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert "under-resolves the displacement" in capsys.readouterr().err


def test_cli_blown_up_velocity_exits_3(tmp_path, capsys):
    # A velocity of 1e200 overflows the label step before the drift guard
    # runs; the run still ends in the drift error, exit 3, with no
    # RuntimeWarning, which the suite's filter would turn into an error.
    text = GOOD.replace("1,0,cos:0.3, 0,1,sin:0.2", "1,0,cos:1e200").replace("T = 0.1", "T = 0.05")
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert "largest |v| on the grid 2.251e+199" in capsys.readouterr().err


def test_cli_blown_up_coefficients_exit_3(tmp_path, capsys):
    # dt = 1 is far outside RK4's stability region for the Stokes modes of
    # N = 16: the coefficients overflow within the first pass, which ends in
    # the divergence error, exit 3, with no RuntimeWarning, which the
    # suite's filter would turn into an error.
    text = (
        "N = 16\nM = 8\ndt = 1\nT = 400\ndensity.kind = constant\n"
        "u0.modes = 1,0,cos:0.1\n"
    )
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    assert "non-finite coefficients at t=" in capsys.readouterr().err


def test_cli_taylor_benchmark(tmp_path, capsys):
    cfg = write_config(tmp_path, TAYLOR)
    out = tmp_path / "taylor"
    code = main(
        ["taylor", "--config", str(cfg), "--out", str(out), "--dt-list", "0.02,0.01"]
    )
    assert code == 0
    rows = [json.loads(l) for l in (out / "taylor.ndjson").read_text().splitlines()]
    assert rows[0]["dt"] == 0.02
    assert rows[-1]["pass"] is True
    assert "PASS" in capsys.readouterr().out


def test_cli_taylor_rejects_wrong_setup(tmp_path):
    cfg = write_config(tmp_path, TAYLOR.replace("constant", "bump"))
    assert main(["taylor", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_cli_converge_rejects_short_list_and_coarse_grid(tmp_path):
    cfg = write_config(tmp_path, TAYLOR)
    out = str(tmp_path / "x")
    assert main(["converge", "--config", str(cfg), "--out", out, "--N-list", "4,8"]) == 2
    # A 25-mode basis reaches wavenumber 3 and needs M >= 7.
    coarse = write_config(tmp_path, TAYLOR.replace("M = 16", "M = 5"), name="coarse.cfg")
    assert (
        main(["converge", "--config", str(coarse), "--out", out, "--N-list", "4,8,25"]) == 2
    )


def test_cli_vacuum_sweep_rejects_positive_density(tmp_path):
    cfg = write_config(tmp_path, TAYLOR)  # constant density has no vacuum
    assert (
        main(
            ["vacuum-sweep", "--config", str(cfg), "--out", str(tmp_path / "x"),
             "--n-list", "10,100"]
        )
        == 2
    )


def test_cli_vacuum_sweep_dedupes_floors(tmp_path, capsys, monkeypatch):
    probe_calls = []
    original = pipeline.momentum_probes

    def counting(result, *args, **kwargs):
        probe_calls.append(result.source.lower)
        return original(result, *args, **kwargs)

    monkeypatch.setattr(pipeline, "momentum_probes", counting)
    monkeypatch.setattr(cli, "momentum_probes", counting, raising=False)
    text = TAYLOR.replace("density.kind = constant", "density.kind = vacuum-well")
    cfg = write_config(text=text, tmp_path=tmp_path, name="sweep.cfg")
    out = tmp_path / "sweep"
    code = main(
        ["vacuum-sweep", "--config", str(cfg), "--out", str(out), "--n-list", "5,5,5"]
    )
    assert code == 0
    rows = [json.loads(l) for l in (out / "vacuum.ndjson").read_text().splitlines()]
    floors = [r["floor_n"] for r in rows if "floor_n" in r]
    assert floors == [5]
    assert (out / "n5" / "ledger.ndjson").exists()
    # Probes run once per floor, and the file keeps their order, t = T 2^-j.
    assert probe_calls == [1.0 / 5]
    probes = [json.loads(l) for l in (out / "momentum_n5.ndjson").read_text().splitlines()]
    assert [p["t"] for p in probes] == [0.1 * 2.0**-j for j in range(13)]
    capsys.readouterr()


ZERO_FLOW = TAYLOR.replace("u0.modes = 1,0,cos:0.1", "u0.modes = 1,0,cos:0.0")


def strict_json(line):
    """json.loads that refuses the non-standard Infinity, -Infinity and NaN."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=reject)


def test_cli_vacuum_sweep_with_zero_velocity(tmp_path, capsys):
    # Every floor has sup |grad u|^2 = 0: no spread, not a division by zero.
    cfg = write_config(tmp_path, ZERO_FLOW.replace("constant", "vacuum-well"))
    out = tmp_path / "sweep"
    assert main(["vacuum-sweep", "--config", str(cfg), "--out", str(out), "--n-list", "5,50"]) == 0
    rows = [strict_json(l) for l in (out / "vacuum.ndjson").read_text().splitlines()]
    assert [r["sup_grad_u_sq"] for r in rows[:-1]] == [0.0, 0.0]
    assert rows[-1] == {"sup_grad_variation": 0.0}
    capsys.readouterr()


def test_sweep_variation_cases():
    spread = pipeline._relative_spread
    assert spread([1.0, 1.5, 1.2]) == 0.5
    assert spread([0.0, 0.0]) == 0.0 and spread([2.0]) == 0.0
    assert spread([0.0, 1e-3]) == math.inf  # above a zero minimum
    assert spread([]) == math.inf  # every floor failed


def test_cli_vacuum_sweep_records_a_failing_floor(tmp_path, capsys, monkeypatch):
    # Floor n = 5 fails the stage guard; the sweep records it and goes on.
    original = pipeline.run_simulation

    def degenerate_at_5(config, source=None, **kwargs):
        if source.lower == 1.0 / 5:
            raise VacuumDegenerateError(-1.0, 2.0)
        return original(config, source=source, **kwargs)

    monkeypatch.setattr(pipeline, "run_simulation", degenerate_at_5)
    cfg = write_config(tmp_path, TAYLOR.replace("constant", "vacuum-well"))
    out = tmp_path / "sweep"
    argv = ["vacuum-sweep", "--config", str(cfg), "--out", str(out), "--n-list", "50,5,500"]
    assert main(argv) == 0
    failed, *done, spread = read_rows(out / "vacuum.ndjson")
    assert failed == {
        "floor_n": 5,
        "error": "VacuumDegenerateError",
        "message": "mass matrix min eigenvalue -1.000e+00 <= threshold 2.000e+00",
    }
    assert [row["floor_n"] for row in done] == [50, 500]
    sup_grads = [row["sup_grad_u_sq"] for row in done]
    assert spread == {"sup_grad_variation": pipeline._relative_spread(sup_grads)}
    assert sorted(p.name for p in out.iterdir()) == [
        "momentum_n50.ndjson", "momentum_n500.ndjson", "n50", "n500", "vacuum.ndjson",
    ]
    for n in (50, 500):
        assert len(read_rows(out / f"momentum_n{n}.ndjson")) == pipeline.MOMENTUM_PROBES
        assert len(read_rows(out / f"n{n}" / "ledger.ndjson")) == 21
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "n=50", "n=500", "cross-floor sup|grad u|^2 variation", f"wrote {out / 'vacuum.ndjson'}",
    ]


def test_cli_vacuum_sweep_with_every_floor_failing(tmp_path, capsys):
    # One Picard pass cannot confirm a fixed point: every floor fails, no run
    # is written and the cross-floor spread over no floors is inf.
    cfg = write_config(tmp_path, TAYLOR.replace("constant", "vacuum-well") + "picard_max = 1\n")
    out = tmp_path / "sweep"
    assert main(["vacuum-sweep", "--config", str(cfg), "--out", str(out), "--n-list", "5,50"]) == 0
    *failed, spread = read_rows(out / "vacuum.ndjson")
    assert [(row["floor_n"], row["error"]) for row in failed] == [
        (5, "PicardNonConvergenceError"), (50, "PicardNonConvergenceError"),
    ]
    assert all(row["message"].startswith("Picard iteration did not reach") for row in failed)
    assert spread == {"sup_grad_variation": "inf"}
    assert [p.name for p in out.iterdir()] == ["vacuum.ndjson"]
    assert capsys.readouterr().out.splitlines() == [
        "cross-floor sup|grad u|^2 variation: inf%", f"wrote {out / 'vacuum.ndjson'}",
    ]


def test_cli_converge_zero_velocity_writes_standard_json(tmp_path, capsys):
    # Identical trajectories give a rate of inf, written as the string "inf".
    cfg = write_config(tmp_path, ZERO_FLOW.replace("constant", "bump"))
    out = tmp_path / "conv"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--N-list", "2,3,4"]) == 0
    rows = [strict_json(l) for l in (out / "converge.ndjson").read_text().splitlines()]
    assert rows[1]["rate_vs_previous"] == "inf"
    capsys.readouterr()


SMALL_BUMP = """
N = 4
M = 16
dt = 0.005
T = 0.05
density.kind = bump
u0.modes = 1,0,cos:0.3, 0,1,cos:0.2
"""


def read_rows(path):
    return [strict_json(l) for l in path.read_text().splitlines()]


def test_cli_uniqueness_writes_summary_and_curves(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_BUMP)
    out = tmp_path / "uni"
    assert main(["uniqueness", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_rows(out / "uniqueness.ndjson")
    assert len(summary) == 1
    assert list(summary[0]) == [
        "seed_diff_max",
        "seed_pass",
        "fitted_A",
        "fitted_C",
        "perturb_pass",
        "gronwall_message",
        "gronwall_f_margin",
        "gronwall_eta_margin",
    ]
    assert list(summary[0]["seed_diff_max"]) == ["rho_l32", "sqrt_rho_du_l2", "grad_du_l2"]
    # One row per node time, t = 0, dt, ..., T.
    curves = read_rows(out / "curves.ndjson")
    assert len(curves) == 11
    assert all(list(row) == ["t", "f", "g", "G"] for row in curves)
    assert curves[0]["t"] == 0.0 and math.isclose(curves[-1]["t"], 0.05)
    text = capsys.readouterr().out
    assert "seed independence" in text and "perturbation bound" in text


def test_cli_converge_writes_pair_and_mode_rows(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_BUMP)
    out = tmp_path / "conv"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--N-list", "4,2,3"]) == 0
    rows = read_rows(out / "converge.ndjson")
    pairs, per_n = rows[:2], rows[2:]
    assert [(r["n_small"], r["n_big"]) for r in pairs] == [(2, 3), (3, 4)]
    assert list(pairs[0]) == ["n_small", "n_big", "l2_time_diff", "sup_l2_diff"]
    assert list(pairs[1])[-1] == "rate_vs_previous"
    assert [r["n_modes"] for r in per_n] == [2, 3, 4]
    assert all(
        list(r) == ["n_modes", "sup_t_weighted_h2", "int_t_grad_ut_sq", "int_grad_u_linf"]
        for r in per_n
    )
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["N2", "N3", "N4"]
    for n in (2, 3, 4):
        assert (out / f"N{n}" / "ledger.ndjson").exists()
        assert (out / f"N{n}" / "checks.ndjson").exists()
    text = capsys.readouterr().out
    assert "N=2 vs N=3: L2(0,T;L2) diff" in text and "N=3 vs N=4" in text


def test_write_ndjson_encodes_non_finite_floats(tmp_path):
    path = tmp_path / "rows.ndjson"
    write_ndjson(path, [{"a": np.inf, "b": [-np.inf, np.float64("nan")], "c": {"d": 1.5}}])
    assert strict_json(path.read_text()) == {"a": "inf", "b": ["-inf", "nan"], "c": {"d": 1.5}}


def test_cli_gronwall_check(tmp_path, capsys):
    t = list(np.linspace(0.0, 0.5, 26))
    data = {
        "t": t,
        "f": [x for x in t],
        "g": [4.0 - x for x in t],
        "G": [1.0] * len(t),
        "alpha": [0.0] * len(t),
        "beta": [1.0] * len(t),
        "A": 1.5,
        "g0": 4.0,
    }
    path = tmp_path / "gron.json"
    path.write_text(json.dumps(data))
    assert main(["gronwall-check", "--input", str(path)]) == 0
    assert "ok" in capsys.readouterr().out
    # README's command, on the committed copy of this data.
    assert main(["gronwall-check", "--input", str(ROOT / "configs" / "gronwall.json")]) == 0
    # exp(int alpha) overflows past t = 0.5: an infinite bound holds, margin 1
    # where it overflows and no warning, not a nan margin that fails.
    path.write_text(gronwall_json(alpha=[1500.0] * 3))
    assert main(["gronwall-check", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("conclusion: ok (f margin 1.001000e-09, eta margin 1.001000e-09)\nok\n")
    # A zero factor in front of an overflowing exponential gives the bound 0,
    # and an A whose square overflows gives inf: no nan margin, no warning.
    for changes in (
        {"alpha": [1500.0] * 3, "A": 0.0},
        {"alpha": [1500.0] * 3, "g": [0.0] * 3, "g0": 0.0},
        {"beta": [1.0] * 3, "A": 1e200},
        {"beta": [1.0] * 3, "A": 1e200, "f": [0.1] * 3},
        {"beta": [1.0] * 3, "A": 1e200, "g": [0.0] * 3, "g0": 0.0},
    ):
        path.write_text(gronwall_json(**changes))
        assert main(["gronwall-check", "--input", str(path)]) == 0, changes
        assert capsys.readouterr().out.endswith("\nok\n"), changes

    data["f"] = [10.0 * x for x in t]
    path.write_text(json.dumps(data))
    assert main(["gronwall-check", "--input", str(path)]) == 1

    path.write_text(json.dumps({"t": t}))
    assert main(["gronwall-check", "--input", str(path)]) == 2
    capsys.readouterr()


def gronwall_json(**changes) -> str:
    """A gronwall-check input that passes, with `changes` applied."""
    data = {key: [0.0, 0.0, 0.0] for key in ("f", "G", "alpha", "beta")}
    data |= {"t": [0.0, 0.5, 1.0], "g": [1.0, 1.0, 1.0], "A": 1.0, "g0": 1.0}
    return json.dumps(data | changes)


@pytest.mark.parametrize(
    "content",
    [
        None,
        '{"t": [0.0, 0.1], "f": ',
        json.dumps(
            {"t": [0.0, 0.1], "f": [0.0], "g": [1.0, 1.0], "G": [0.0, 0.0],
             "alpha": [0.0, 0.0], "beta": [0.0, 0.0], "A": 1.0, "g0": 1.0}
        ),
        json.dumps(
            {key: [] for key in ("t", "f", "g", "G", "alpha", "beta")} | {"A": 1.0, "g0": 1.0}
        ),
        gronwall_json(t=[0.0, math.nan, 1.0]),
        gronwall_json(A=math.nan),
        gronwall_json(t=[1.0, 0.5, 0.0]),
        gronwall_json(f=[0.0, -1.0, 0.0]),
        gronwall_json(t=[0.5, 1.0, 1.5]),
        gronwall_json(t=[-1.0, 0.0, 1.0]),
        gronwall_json(beta=[0.0, -1.0, -1.0]),
    ],
    ids=[
        "missing-file", "malformed-json", "unequal-lengths", "no-samples",
        "nan-time", "nan-A", "decreasing-time", "negative-f",
        "late-start", "negative-start", "negative-beta",
    ],
)
def test_cli_gronwall_check_bad_input_exits_2(tmp_path, capsys, content):
    path = tmp_path / "gron.json"
    if content is not None:
        path.write_text(content)
    assert main(["gronwall-check", "--input", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err
