"""Run configuration: one JSON document, flag overrides win, unknown keys rejected.

The resolved configuration is hashed (canonical JSON, sha256) to produce
deterministic output filenames, so identical configs always map to identical
artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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
    if merged["units"] not in ("natural", "SI"):
        raise ConfigError("units must be 'natural' or 'SI'")
    if merged["c"] is None:
        merged["c"] = 1.0 if merged["units"] == "natural" else SI_C
    if merged["hbar"] is None:
        merged["hbar"] = 1.0 if merged["units"] == "natural" else SI_HBAR
    if merged["out_format"] not in ("csv", "json"):
        raise ConfigError("out_format must be 'csv' or 'json'")
    if merged["r_convention"] not in ("exact", "prose"):
        raise ConfigError("r_convention must be 'exact' or 'prose'")
    # exact type checks: bool is an int subclass and 1.0 == 1, both rejected
    for key, low in (("kmax", 1), ("n_mech", 2), ("n_opt", 2), ("dim_cap", 4), ("k_eigen", 1)):
        value = merged[key]
        if type(value) is not int or value < low:
            raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    if type(merged["order"]) is not int or merged["order"] not in (0, 1, 2):
        raise ConfigError(f"order must be 0, 1 or 2, got {merged['order']!r}")
    if not isinstance(merged["grid"], dict):
        raise ConfigError("grid must be an object mapping parameter names to value lists")
    unknown_grid = sorted(set(merged["grid"]) - set(DEFAULTS))
    if unknown_grid:
        raise ConfigError(f"unknown grid keys: {', '.join(unknown_grid)}")
    for key, values in merged["grid"].items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid value for {key} must be a non-empty list, got {values!r}")
    return RunConfig(**merged)


def config_hash(cfg: RunConfig) -> str:
    """Deterministic short hash of the resolved configuration."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
