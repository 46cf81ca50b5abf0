"""Run configuration: one JSON document, flag overrides win, unknown keys rejected.

The resolved configuration is hashed (canonical JSON, sha256) to produce
deterministic output filenames, so identical configs always map to identical
artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass

__all__ = ["RunConfig", "DEFAULTS", "load_config_file", "resolve_config", "config_hash"]

SI_C = 299792458.0
SI_HBAR = 1.054571817e-34

DEFAULTS: dict = {
    "units": "natural",
    "mass": 1.0,
    "length": 100.0,
    "omega_m": 1.0,
    "omega_c": 2.0,
    "c": None,
    "hbar": None,
    "a_amp": 1.0,
    "a_phase": 0.0,
    "b_amp": 1.0,
    "b_phase": 0.0,
    "chi0": 0.0,
    "thickness": 0.0,
    "kmax": 4,
    "n_mech": 8,
    "n_opt": 8,
    "dim_cap": 4096,
    "jmax": 10000,
    "ltrunc": 10000,
    "tail_correct": True,
    "rel_tol": 1e-10,
    "abs_tol": 1e-12,
    "t_end": 10.0,
    "q_floor": None,
    "mirror_model": "newton",
    "variant": "new",
    "order": 1,
    "eta": 0.5,
    "k_eigen": 8,
    "q0": None,
    "qdot0": 0.0,
    "Q0": None,
    "Qdot0": None,
    "r_convention": "exact",
    "out_format": "csv",
    "grid": {},
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved, validated run configuration (see DEFAULTS for the schema)."""

    units: str
    mass: float
    length: float
    omega_m: float
    omega_c: float
    c: float
    hbar: float
    a_amp: float
    a_phase: float
    b_amp: float
    b_phase: float
    chi0: float
    thickness: float
    kmax: int
    n_mech: int
    n_opt: int
    dim_cap: int
    jmax: int
    ltrunc: int
    tail_correct: bool
    rel_tol: float
    abs_tol: float
    t_end: float
    q_floor: float | None
    mirror_model: str
    variant: str
    order: int
    eta: float
    k_eigen: int
    q0: float | None
    qdot0: float
    Q0: list | None
    Qdot0: list | None
    r_convention: str
    out_format: str
    grid: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def load_config_file(path: str) -> dict:
    """Parse a JSON config file; syntax errors carry line/column diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return doc


_CHOICES = {
    "units": ("natural", "SI"),
    "out_format": ("csv", "json"),
    "r_convention": ("exact", "prose"),
    "variant": ("new", "law"),
    "mirror_model": ("newton", "lagrangian"),
}
# (minimum, maximum) of each integer key.  The maxima of the size keys make a
# size no desk machine can hold exit 2 before anything is allocated:
# * kmax <= 512: four kmax x kmax tables (coeffs writes kmax^2 rows), the law
#   coupling's kmax x 16 kmax Gram block (32 MiB at 512), and kmax stays below
#   the L = 10^3 scaling probe of `checks`;
# * jmax <= 10^7: the diagonal sum rule holds a few float64 arrays of jmax
#   entries (80 MB each);
# * ltrunc <= 10^7: the Gram sum rule's max(kmax, 2) x ltrunc block of g, whose
#   entry count the CLI bounds again.
_INT_RANGES = {
    "kmax": (1, 512), "k_eigen": (1, math.inf), "jmax": (1, 10**7), "ltrunc": (1, 10**7),
    "n_mech": (2, math.inf), "n_opt": (2, math.inf), "dim_cap": (4, math.inf),
}
_REAL_KEYS = frozenset({
    "mass", "length", "omega_m", "omega_c", "c", "hbar", "a_amp", "a_phase", "b_amp",
    "b_phase", "chi0", "thickness", "rel_tol", "abs_tol", "t_end", "q_floor", "eta", "q0",
    "qdot0",
})


def _check_value(key: str, value, name: str) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` is valid for ``key``.

    Every rule looks at one key alone, so a sweep grid value is valid exactly
    when it would be valid as that key's own value.  None means "not given".
    """
    if value is None:
        return
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{name} must be one of {_CHOICES[key]}, got {value!r}")
    # exact type checks: bool is an int subclass and 1.0 == 1, both rejected
    if key in _INT_RANGES:
        lo, hi = _INT_RANGES[key]
        if type(value) is not int or not lo <= value <= hi:
            bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
    if key == "order" and (type(value) is not int or value not in (0, 1, 2)):
        raise ConfigError(f"{name} must be 0, 1 or 2, got {value!r}")
    if key == "tail_correct" and type(value) is not bool:
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if key in _REAL_KEYS and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    # a chained comparison, not math.isfinite: a huge JSON integer cannot overflow it
    if key == "eta" and not 0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {value!r}")


def resolve_config(file_doc: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config file, and flag overrides (flags win); validate."""
    merged = dict(DEFAULTS)
    for source, name in ((file_doc, "config file"), (overrides, "flag overrides")):
        if not source:
            continue
        unknown = sorted(set(source) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")
        merged.update({k: v for k, v in source.items() if v is not None})
    if merged["c"] is None:
        merged["c"] = 1.0 if merged["units"] == "natural" else SI_C
    if merged["hbar"] is None:
        merged["hbar"] = 1.0 if merged["units"] == "natural" else SI_HBAR
    for key, value in merged.items():
        if key != "grid":
            _check_value(key, value, key)
    if not isinstance(merged["grid"], dict):
        raise ConfigError("grid must be an object mapping parameter names to value lists")
    unknown_grid = sorted(set(merged["grid"]) - set(DEFAULTS))
    if unknown_grid:
        raise ConfigError(f"unknown grid keys: {', '.join(unknown_grid)}")
    for key, values in merged["grid"].items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid value for {key} must be a non-empty list, got {values!r}")
        for value in values:
            _check_value(key, value, f"grid.{key}")
    return RunConfig(**merged)


def config_hash(cfg: RunConfig) -> str:
    """Deterministic short hash of the resolved configuration."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
