"""Run configuration: one JSON document, flag overrides win, unknown keys rejected.

Each setting is declared once: its name, type and default as a ``RunConfig``
field (the ``float`` fields are the real-valued keys), its validation rule in
``_check_value`` with the ``_CHOICES`` and ``_INT_RANGES`` tables, and its
command-line flag, if it has one, in ``cli._FLAGS``.  ``cli._SUBCOMMANDS``
declares the keys each subcommand reads, and ``config_hash`` hashes only those
(canonical JSON, sha256) to name the subcommand's artifacts deterministically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import typing
from dataclasses import dataclass, field

__all__ = ["RunConfig", "DEFAULTS", "load_config_file", "resolve_config", "config_hash"]

SI_C = 299792458.0
SI_HBAR = 1.054571817e-34


@dataclass(frozen=True)
class RunConfig:
    """Resolved, validated run configuration: one field per config key, with
    that key's default.  ``c`` and ``hbar`` left at None are set from
    ``units`` by ``resolve_config``."""

    units: str = "natural"
    mass: float = 1.0
    length: float = 100.0
    omega_m: float = 1.0
    omega_c: float = 2.0
    c: float | None = None
    hbar: float | None = None
    a_amp: float = 1.0
    a_phase: float = 0.0
    b_amp: float = 1.0
    b_phase: float = 0.0
    chi0: float = 0.0
    thickness: float = 0.0
    kmax: int = 4
    n_mech: int = 8
    n_opt: int = 8
    dim_cap: int = 4096
    jmax: int = 10000
    ltrunc: int = 10000
    tail_correct: bool = True
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_end: float = 10.0
    q_floor: float | None = None
    mirror_model: str = "newton"
    variant: str = "new"
    order: int = 1
    eta: float = 0.5
    k_eigen: int = 8
    q0: float | None = None
    qdot0: float = 0.0
    Q0: list | None = None
    Qdot0: list | None = None
    r_convention: str = "exact"
    out_format: str = "csv"
    grid: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULTS: dict = RunConfig().to_dict()


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
# run too large or too long for a desk machine exit 2 before it starts:
# * kmax <= 512: four kmax x kmax tables (coeffs writes kmax^2 rows), the law
#   coupling's kmax x 16 kmax Gram block (32 MiB at 512), and kmax stays below
#   the L = 10^3 scaling probe of `checks`;
# * jmax <= 10^7 and ltrunc <= 10^7: the sum rules run in fixed-width chunks,
#   so memory does not grow with these and the bounds cap time (0.35 s per
#   diagonal rule at 10^7 on 2 cores); the CLI bounds the Gram rule's
#   max(kmax, 2) * ltrunc terms again;
# * dim_cap <= 8192: a dense complex D x D Hamiltonian at D = 8192 is 1 GiB,
#   and n_mech * n_opt may not exceed dim_cap.
_INT_RANGES = {
    "kmax": (1, 512), "k_eigen": (1, math.inf), "jmax": (1, 10**7), "ltrunc": (1, 10**7),
    "n_mech": (2, math.inf), "n_opt": (2, math.inf), "dim_cap": (4, 8192),
}
_REAL_KEYS = frozenset(name for name, hint in typing.get_type_hints(RunConfig).items()
                       if float in (hint, *typing.get_args(hint)))


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


def config_hash(cfg: RunConfig, keys) -> str:
    """Deterministic short hash of the values of ``keys`` in ``cfg``."""
    canon = json.dumps({k: getattr(cfg, k) for k in keys}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
