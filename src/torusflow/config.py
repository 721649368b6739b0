"""Run configuration: line-oriented `key = value` files.

Recognized keys:

    N             number of basis modes
    M             quadrature grid resolution per axis
    dt            time step for the coefficient ODE; must divide T
    T             final time
    picard_tol    fixed-point stopping tolerance (default 1e-10)
    picard_max    iteration cap (default 30)
    density.kind  constant | bump | vacuum-well (vacuum is solved as given)
    u0.modes      initial velocity, entries `k1,k2,parity:amplitude`
                  joined by commas, e.g. `1,0,cos:0.3,0,1,cos:0.2`
    snapshots     comma-separated times in [0, T] for field snapshots (optional);
                  no two may share a file tag (`snapshot_tag`)

Blank lines and `#` comments are ignored.  Unknown or missing required keys,
non-finite numbers and a dt not dividing T raise ConfigError naming the offender.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .transport import DENSITY_CATALOG, DensitySource


class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass
class ModeSpec:
    k1: int
    k2: int
    parity: str
    amplitude: float


@dataclass
class RunConfig:
    N: int
    M: int
    dt: float
    T: float
    density_kind: str
    u0_modes: list[ModeSpec]
    picard_tol: float = 1e-10
    picard_max: int = 30
    snapshots: list[float] = field(default_factory=list)


_REQUIRED = ("N", "M", "dt", "T", "density.kind", "u0.modes")
_KNOWN = set(_REQUIRED) | {"picard_tol", "picard_max", "snapshots"}


def _parse_modes(text: str) -> list[ModeSpec]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if len(tokens) % 3 != 0:
        raise ConfigError(
            f"u0.modes needs k1,k2,parity:amplitude triples, got {text!r}",
            key="u0.modes",
        )
    modes = []
    for i in range(0, len(tokens), 3):
        k1_s, k2_s, tail = tokens[i : i + 3]
        if ":" not in tail:
            raise ConfigError(
                f"u0.modes entry missing `parity:amplitude` in {text!r}",
                key="u0.modes",
            )
        parity, amp_s = tail.split(":", 1)
        parity = parity.strip()
        try:
            k1, k2, amp = int(k1_s), int(k2_s), float(amp_s)
        except ValueError as exc:
            raise ConfigError(f"bad u0.modes entry: {exc}", key="u0.modes") from exc
        if not math.isfinite(amp):
            raise ConfigError(
                f"u0.modes amplitude must be finite, got {amp_s!r}", key="u0.modes"
            )
        if parity not in ("cos", "sin"):
            raise ConfigError(
                f"parity must be cos or sin, got {parity!r}", key="u0.modes"
            )
        if not (k1 > 0 or (k1 == 0 and k2 > 0)):
            raise ConfigError(
                f"wavevector ({k1},{k2}) is not in the canonical half-space "
                "(k1>0, or k1=0 and k2>0)",
                key="u0.modes",
            )
        if any((m.k1, m.k2, m.parity) == (k1, k2, parity) for m in modes):
            raise ConfigError(f"u0.modes lists ({k1},{k2},{parity}) twice", key="u0.modes")
        modes.append(ModeSpec(k1, k2, parity, amp))
    if not modes:
        raise ConfigError("u0.modes lists no modes", key="u0.modes")
    return modes


def parse_config_text(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`: {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN:
            raise ConfigError(f"unknown configuration key {key!r}", key=key)
        if key in raw:
            raise ConfigError(f"duplicate configuration key {key!r}", key=key)
        raw[key] = value

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required configuration key {key!r}", key=key)

    def _int(key, minimum=1):
        try:
            v = int(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer: {exc}", key=key) from exc
        if v < minimum:
            raise ConfigError(f"{key} must be >= {minimum}", key=key)
        return v

    def _float(key):
        try:
            v = float(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number: {exc}", key=key) from exc
        if not math.isfinite(v):
            raise ConfigError(f"{key} must be finite, got {raw[key]!r}", key=key)
        if v <= 0:
            raise ConfigError(f"{key} must be positive", key=key)
        return v

    kind = raw["density.kind"]
    if kind not in DENSITY_CATALOG:
        raise ConfigError(
            f"density.kind must be one of {sorted(DENSITY_CATALOG)}, got {kind!r}",
            key="density.kind",
        )

    snapshots: list[float] = []
    if "snapshots" in raw and raw["snapshots"].strip():
        try:
            snapshots = [float(tok) for tok in raw["snapshots"].split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad snapshots list: {exc}", key="snapshots") from exc

    cfg = RunConfig(
        N=_int("N"),
        M=_int("M", minimum=3),
        dt=_float("dt"),
        T=_float("T"),
        density_kind=kind,
        u0_modes=_parse_modes(raw["u0.modes"]),
        picard_tol=_float("picard_tol") if "picard_tol" in raw else 1e-10,
        picard_max=_int("picard_max") if "picard_max" in raw else 30,
        snapshots=snapshots,
    )
    if cfg.T < cfg.dt:
        raise ConfigError("T must be at least one time step", key="T")
    if not math.isclose(cfg.T / cfg.dt, round(cfg.T / cfg.dt), rel_tol=1e-12):
        raise ConfigError(f"dt must divide T, got T/dt = {cfg.T / cfg.dt!r}", key="dt")
    outside = [t for t in cfg.snapshots if not 0.0 <= t <= cfg.T]
    if outside:
        raise ConfigError(
            f"snapshot times {outside} lie outside [0, T={cfg.T:g}]", key="snapshots"
        )
    tags = Counter(snapshot_tag(t) for t in cfg.snapshots)
    shared = sorted(tag for tag, count in tags.items() if count > 1)
    if shared:
        raise ConfigError(
            f"snapshot times share the file tags {shared}", key="snapshots"
        )
    return cfg


def snapshot_tag(t: float) -> str:
    """The time tag of the snapshot files written at time t."""
    return f"{t:.6f}"


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc


def build_basis(config: RunConfig) -> BasisSet:
    # M resolves wavenumbers up to K = (M - 1) // 2 in each direction, at
    # most (2K + 1)^2 - 1 modes: a larger N aliases before any is listed.
    resolved = (2 * ((config.M - 1) // 2) + 1) ** 2 - 1
    if config.N > resolved:
        raise ConfigError(
            f"M={config.M} aliases this basis; N={config.N} exceeds the "
            f"{resolved} modes it resolves",
            key="M",
        )
    basis = BasisSet(config.N)
    try:
        basis.grid(config.M)
    except ValueError as exc:
        raise ConfigError(str(exc), key="M") from None
    return basis


def build_source(config: RunConfig) -> DensitySource:
    return DENSITY_CATALOG[config.density_kind]()


def build_u0(config: RunConfig, basis: BasisSet) -> np.ndarray:
    """Initial coefficient vector.  Modes outside the basis span project away."""
    coeffs = np.zeros(basis.size)
    index = {(m.k, m.parity): i for i, m in enumerate(basis.modes)}
    for spec in config.u0_modes:
        i = index.get(((spec.k1, spec.k2), spec.parity))
        if i is not None:
            coeffs[i] = spec.amplitude
    return coeffs
