"""Run configuration: line-oriented `key = value` files.

Recognized keys, in the order of `RunConfig`'s fields, which declare each
key's name, parser and, for an optional key, its default:

    N             number of basis modes
    M             quadrature grid resolution per axis
    dt            time step for the coefficient ODE; must divide T in fewer
                  than 5e11 steps, past which the check cannot tell
    T             final time
    density.kind  constant | bump | vacuum-well (vacuum is solved as given)
    u0.modes      initial velocity, entries `k1,k2,parity:amplitude`
                  joined by commas, e.g. `1,0,cos:0.3,0,1,cos:0.2`; read
                  as the map {((k1, k2), parity): amplitude} in file order,
                  keyed as `BasisMode` keys a mode
    picard_tol    fixed-point stopping tolerance (default 1e-10)
    picard_max    iteration cap (default 30)
    snapshots     comma-separated times in [0, T] for field snapshots (optional);
                  no two may share a file tag (`snapshot_tag`)

Blank lines and `#` comments are ignored.  Unknown or missing required keys,
non-finite numbers and a dt too small to check or not dividing T raise
ConfigError naming the offender: the first line without `=` or unknown or
repeated key, else the first missing or bad key in field order, else the
first failed cross-key check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .basis import BasisSet
from .transport import DENSITY_CATALOG, DensitySource

# The most time steps a run or a study may take.  From 5e11 steps on, the
# relative tolerance 1e-12 spans the gap to the nearest integer, and every
# dt would pass as a divisor of T.
MAX_STEPS = 5e11


class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def _int(minimum):
    def parse(key, text):
        try:
            v = int(text)
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer: {exc}", key=key) from exc
        if v < minimum:
            raise ConfigError(f"{key} must be >= {minimum}", key=key)
        return v

    return parse


def _float(key, text):
    try:
        v = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number: {exc}", key=key) from exc
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {text!r}", key=key)
    if v <= 0:
        raise ConfigError(f"{key} must be positive", key=key)
    return v


def _kind(key, text):
    if text not in DENSITY_CATALOG:
        raise ConfigError(
            f"{key} must be one of {sorted(DENSITY_CATALOG)}, got {text!r}", key=key
        )
    return text


def _times(key, text):
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {key} list: {exc}", key=key) from exc


def _parse_modes(key, text):
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if len(tokens) % 3 != 0:
        raise ConfigError(
            f"{key} needs k1,k2,parity:amplitude triples, got {text!r}", key=key
        )
    modes = {}
    for i in range(0, len(tokens), 3):
        k1_s, k2_s, tail = tokens[i : i + 3]
        if ":" not in tail:
            raise ConfigError(f"{key} entry missing `parity:amplitude` in {text!r}", key=key)
        parity, amp_s = tail.split(":", 1)
        parity = parity.strip()
        try:
            k1, k2, amp = int(k1_s), int(k2_s), float(amp_s)
        except ValueError as exc:
            raise ConfigError(f"bad {key} entry: {exc}", key=key) from exc
        if not math.isfinite(amp):
            raise ConfigError(f"{key} amplitude must be finite, got {amp_s!r}", key=key)
        if parity not in ("cos", "sin"):
            raise ConfigError(f"parity must be cos or sin, got {parity!r}", key=key)
        if not (k1 > 0 or (k1 == 0 and k2 > 0)):
            raise ConfigError(
                f"wavevector ({k1},{k2}) is not in the canonical half-space "
                "(k1>0, or k1=0 and k2>0)",
                key=key,
            )
        if ((k1, k2), parity) in modes:
            raise ConfigError(f"{key} lists ({k1},{k2},{parity}) twice", key=key)
        modes[(k1, k2), parity] = amp
    if not modes:
        raise ConfigError(f"{key} lists no modes", key=key)
    return modes


def _key(name, parse, **default):
    """A RunConfig field read from file key `name` by `parse(name, text)`;
    a field with a default is an optional key."""
    return field(metadata={"key": name, "parse": parse}, **default)


@dataclass
class RunConfig:
    N: int = _key("N", _int(1))
    M: int = _key("M", _int(3))
    dt: float = _key("dt", _float)
    T: float = _key("T", _float)
    density_kind: str = _key("density.kind", _kind)
    u0_modes: dict[tuple[tuple[int, int], str], float] = _key("u0.modes", _parse_modes)
    picard_tol: float = _key("picard_tol", _float, default=1e-10)
    picard_max: int = _key("picard_max", _int(1), default=30)
    snapshots: list[float] = _key("snapshots", _times, default_factory=list)


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def parse_config_text(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`: {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}", key=key)
        if key in raw:
            raise ConfigError(f"duplicate configuration key {key!r}", key=key)
        raw[key] = value

    values = {}
    for key, f in _FIELDS.items():
        if key in raw:
            values[f.name] = f.metadata["parse"](key, raw[key])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required configuration key {key!r}", key=key)
    cfg = RunConfig(**values)
    if cfg.T < cfg.dt:
        raise ConfigError("T must be at least one time step", key="T")
    steps = cfg.T / cfg.dt
    if not (steps < MAX_STEPS and math.isclose(steps, round(steps), rel_tol=1e-12)):
        raise ConfigError(f"dt must divide T in under 5e11 steps, got T/dt = {steps!r}", key="dt")
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
    except (OSError, UnicodeDecodeError) as exc:
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
    """Initial coefficient vector: each basis mode's u0 amplitude, 0 for a
    mode u0 does not list.  Modes outside the basis span project away."""
    return np.array([config.u0_modes.get((m.k, m.parity), 0.0) for m in basis.modes])
