"""Command-line front door.

Subcommands: coeffs, verify, evolve, rates, hamiltonian, spectrum, checks,
sweep.  Every number in the outputs comes from a library call; this layer
only parses, dispatches, and serializes.  Outputs are deterministic: fixed
config -> byte-identical files, named <subcommand>-<confighash>.<ext> under
--out-dir (the Fock subcommands put the variant names before the hash).
Exit codes: 0 success, 1 failed check or numerical failure, 2 usage/config
error.

Each ``_cmd_*`` handler takes the resolved config and returns its artifacts,
each ``(suffix, ext, content)`` with content a dict for JSON or
``(header, rows)`` for CSV, and whether its checks passed.  ``_run`` resolves
the config, calls the handler, then names, writes and prints every artifact,
so nothing is written unless the whole computation succeeded.

Each flag is declared once, in ``_FLAGS``, under the config key it sets.  The
third field of ``_SUBCOMMANDS`` is each subcommand's read set, the config keys
whose values can change its artifacts: it offers their flags, a flag outside
the set is a usage error, and the artifact names hash only those keys.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import checks as checks_mod
from . import coefficients as coef
from . import fock
from . import hamiltonians as ham
from .config import (_CHOICES, DEFAULTS, ConfigError, RunConfig, config_hash, load_config_file,
                     resolve_config)
from .dynamics import ClassicalState, MirrorParams, StiffnessError, integrate
from .rates import CavityParams, RateSet, all_rates, base_rates

_CAVITY_FIELDS = tuple(f.name for f in dataclasses.fields(CavityParams))
_SCALAR_RATE_FIELDS = tuple(f.name for f in dataclasses.fields(RateSet) if f.name != "w")

# config key -> (flag, argparse keywords); every flag defaults to None, which
# leaves the config file's value or the key's default in place
_FLAGS = {
    "kmax": ("--kmax", {"type": int, "help": "retained field modes"}),
    "jmax": ("--jmax", {"type": int, "help": "diagonal-rule truncation"}),
    "ltrunc": ("--ltrunc", {"type": int, "help": "Gram-rule truncation"}),
    "tail_correct": ("--no-tail", {"action": "store_false",
                                   "help": "disable the analytic tail correction"}),
    "variant": ("--variant", {"choices": _CHOICES["variant"]}),
    "t_end": ("--t-end", {"type": float}),
    "rel_tol": ("--rel-tol", {"type": float}),
    "abs_tol": ("--abs-tol", {"type": float}),
    "mirror_model": ("--mirror-model", {"choices": _CHOICES["mirror_model"]}),
    "n_mech": ("--n-mech", {"type": int}),
    "n_opt": ("--n-opt", {"type": int}),
    "order": ("--order", {"type": int, "help": "expansion order: 0, 1 or 2"}),
    "eta": ("--eta", {"type": float}),
    "k_eigen": ("--k-eigen", {"type": int, "help": "number of eigenvalues"}),
    "r_convention": ("--r-convention", {"choices": _CHOICES["r_convention"],
                                        "help": "self-rate convention (default exact)"}),
    "out_format": ("--out-format", {"choices": _CHOICES["out_format"]}),
}


def _fmt(x) -> str:
    # shortest round-trip decimal for floats; plain str elsewhere
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cavity_params(cfg: RunConfig) -> CavityParams:
    return CavityParams(**{name: getattr(cfg, name) for name in _CAVITY_FIELDS})


def _cmd_coeffs(cfg: RunConfig, args):
    table = coef.build_table(cfg.kmax)
    rows = []
    for k in range(1, cfg.kmax + 1):
        for j in range(1, cfg.kmax + 1):
            rows.append(
                (k, j, float(table.g[k - 1, j - 1]), float(table.h[k - 1, j - 1]),
                 float(table.d[k - 1, j - 1]), float(table.r[k - 1]))
            )
    return [("", "csv", (["k", "j", "g", "h", "d", "r_k"], rows))], True


def _require_above(cfg: RunConfig, key: str, bound: int, what: str) -> None:
    # a truncation must reach past the largest mode its sum rule is checked at
    value = getattr(cfg, key)
    if value <= bound:
        raise ConfigError(f"{key} must exceed {what} ({bound}), got {value}")


# verify and checks sum the Gram rule over max(kmax, 2) x ltrunc products of g.
# The sum runs in fixed-width chunks, so memory stays bounded and this bound
# limits time: 2^24 terms take about 0.35 s on 2 cores.  The largest sum in
# use, verify --kmax 8 --ltrunc 1000000, is half the bound.
_GRAM_BLOCK_MAX = 2**24


def _require_gram_block(kmax: int, ltrunc: int) -> None:
    if kmax * ltrunc > _GRAM_BLOCK_MAX:
        raise ConfigError(f"ltrunc * max(kmax, 2) = {ltrunc} * {kmax} exceeds the Gram sum "
                          f"bound of {_GRAM_BLOCK_MAX} terms")


def _name_failures(report: checks_mod.CheckReport) -> bool:
    """Print a failed report's failing entries and builds to stderr, and
    return whether the report passed."""
    if not report.passed:
        failing = [e.name for e in report.entries if not e.passed]
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        if "failed_builds" in report.notes:
            print(f"failed builds: {report.notes['failed_builds']}", file=sys.stderr)
    return report.passed


def _cmd_verify(cfg: RunConfig, args):
    k_rule, k_gram = min(cfg.kmax, 8), max(cfg.kmax, 2)
    _require_above(cfg, "jmax", k_rule, "the largest sum-rule mode")
    _require_above(cfg, "ltrunc", k_gram, "kmax")
    _require_gram_block(k_gram, cfg.ltrunc)
    report = checks_mod.CheckReport()
    for k in range(1, k_rule + 1):
        report.add(
            f"mode_sum_rule_k{k}",
            coef.verify_g_squared_sum(k, cfg.jmax, cfg.tail_correct),
            checks_mod.SUM_RULE_TOL,
        )
    report.add(
        "gram_identity_max",
        coef.verify_gram_identity(k_gram, cfg.ltrunc, cfg.tail_correct),
        checks_mod.GRAM_RULE_TOL,
    )
    report.notes["tail_correct"] = str(cfg.tail_correct)
    return [("", "json", report.to_dict())], _name_failures(report)


def _require_finite(names, values, grid_point=()) -> None:
    # an overflowed rate fails the run; grid_point yields a sweep point's (key, value) pairs
    for name, value in zip(names, values):
        if not math.isfinite(value):
            where = f" at grid point {dict(grid_point)}" if grid_point else ""
            raise ArithmeticError(f"{name} is {value}{where}, not a finite number")


def _cmd_rates(cfg: RunConfig, args):
    p = _cavity_params(cfg)
    rs = all_rates(p, kmax=cfg.kmax, r_convention=cfg.r_convention)
    payload = {name: float(getattr(rs, name)) for name in _SCALAR_RATE_FIELDS}
    alternative = float(rs.theta * rs.g3)
    # max|w| is finite exactly when every entry of w is
    checked = {**payload, "w": float(np.abs(rs.w).max()),
               "g4_plus_alternative_theta_g3": alternative}
    _require_finite(checked, checked.values())
    payload["w"] = rs.w.tolist()
    payload["notes"] = {
        "r_convention": cfg.r_convention,
        "beta_convention": "hbar*omega_c/(mass*omega_m*length^2) (= theta*alpha)",
        "g4_plus_alternative_theta_g3": alternative,
    }
    return [("", "json", payload)], True


def _mode_amplitudes(cfg: RunConfig, key: str) -> np.ndarray:
    # a list of kmax real numbers, or zeros when not given
    value = getattr(cfg, key)
    if value is None:
        return np.zeros(cfg.kmax)
    if not (isinstance(value, list) and len(value) == cfg.kmax and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"{key} must be a list of kmax = {cfg.kmax} real numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _initial_state(cfg: RunConfig) -> ClassicalState:
    q0 = cfg.length * 1.01 if cfg.q0 is None else cfg.q0
    return ClassicalState(t=0.0, q=q0, qdot=cfg.qdot0, Q=_mode_amplitudes(cfg, "Q0"),
                          Qdot=_mode_amplitudes(cfg, "Qdot0"))


def _cmd_evolve(cfg: RunConfig, args):
    params = MirrorParams(mass=cfg.mass, length=cfg.length, omega_m=cfg.omega_m,
                          c=cfg.c, kmax=cfg.kmax)
    table = coef.build_table(cfg.kmax)
    record = integrate(
        cfg.variant, _initial_state(cfg), params, table, cfg.t_end,
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, mirror_model=cfg.mirror_model,
        q_floor=cfg.q_floor,
    )
    if record.floor_hit:
        print(f"evolve: the mirror reached q_floor (q = {record.y[-1, 0]:.6g}) at "
              f"t = {record.t[-1]:.6g}, before t_end = {cfg.t_end:.6g}; the trajectory "
              "stops there", file=sys.stderr)
    header = ["t", "q", "qdot"]
    header += [f"Q_{k}" for k in range(1, cfg.kmax + 1)]
    header += [f"Qdot_{k}" for k in range(1, cfg.kmax + 1)]
    header += ["energy"]
    rows = (
        tuple(float(v) for v in (record.t[i], *record.y[i], record.energy[i]))
        for i in range(len(record.t))
    )
    return [("", "csv", (header, rows))], True


def _fock_space(cfg: RunConfig) -> fock.FockSpace:
    if cfg.n_mech * cfg.n_opt > cfg.dim_cap:
        raise ConfigError(f"n_mech * n_opt = {cfg.n_mech * cfg.n_opt} exceeds dim_cap "
                          f"({cfg.dim_cap})")
    return fock.FockSpace(n_mech=cfg.n_mech, n_opt=cfg.n_opt, dim_cap=cfg.dim_cap)


# the Fock settings a variant may read; a builder reads those among its
# parameters, and they join the read set of hamiltonian and spectrum
_FOCK_OPTIONS = ("order", "eta", "r_convention")


def _builder_keys(variant: str) -> set[str]:
    return set(_FOCK_OPTIONS) & set(inspect.signature(ham.BUILDERS[variant]).parameters)


def _requested_variants(args) -> list[str]:
    variants = args.variants or ["new_full"]
    if args.command == "hamiltonian" and len(variants) > 1:
        raise ConfigError(f"hamiltonian builds one variant, got --variant {' '.join(variants)}")
    if len(set(variants)) < len(variants):
        raise ConfigError(f"each --variant may be given once, got {' '.join(variants)}")
    return variants


def _build_variant(cfg: RunConfig, space: fock.FockSpace, variant: str) -> fock.OperatorMatrix:
    options = {key: getattr(cfg, key) for key in _builder_keys(variant)}
    return ham.build_hamiltonian(variant, _cavity_params(cfg), space, **options)


def _cmd_hamiltonian(cfg: RunConfig, args):
    variant, = args.variants
    H = _build_variant(cfg, _fock_space(cfg), variant)
    if cfg.out_format == "json":
        content = {
            "variant": variant,
            "dim": H.space.dim,
            "real": H.data.real.tolist(),
            "imag": H.data.imag.tolist(),
        }
    else:
        rows = ((i, j, re, im)
                for i, row in enumerate(H.data)
                for j, (re, im) in enumerate(zip(row.real.tolist(), row.imag.tolist())))
        content = (["i", "j", "real", "imag"], rows)
    return [(f"-{variant}", cfg.out_format, content)], True


def _cmd_spectrum(cfg: RunConfig, args):
    variants = args.variants
    space = _fock_space(cfg)
    if cfg.k_eigen > space.dim:
        raise ConfigError(f"k_eigen ({cfg.k_eigen}) exceeds the space dimension {space.dim}")
    eigs = {v: fock.spectrum(_build_variant(cfg, space, v), cfg.k_eigen) for v in variants}
    artifacts = [(f"-{v}", "csv", (["index", "eigenvalue"], enumerate(map(float, vals))))
                 for v, vals in eigs.items()]
    va = variants[0]
    for vb in variants[1:]:
        summary = {"variants": [va, vb], "ground_state_shift": float(eigs[va][0] - eigs[vb][0])}
        if {va, vb} == {"new_full", "law_full"}:
            pert = ham.ground_shift_estimate(_cavity_params(cfg), cfg.r_convention)
            signed = float(eigs["new_full"][0] - eigs["law_full"][0])
            summary["perturbative_estimate"] = pert
            summary["new_minus_law_shift"] = signed
            summary["matches_perturbation_within_10pct"] = bool(
                abs(signed / pert - 1.0) <= 0.1
            )
        artifacts.append((f"-diff-{va}-{vb}", "json", summary))
    return artifacts, True


def _cmd_checks(cfg: RunConfig, args):
    kmax = max(cfg.kmax, 2)
    _require_above(cfg, "jmax", checks_mod.SUM_RULE_KMAX, "the largest sum-rule mode")
    _require_above(cfg, "ltrunc", kmax, "kmax")
    _require_gram_block(kmax, cfg.ltrunc)
    report = checks_mod.run_checks(
        jmax=cfg.jmax, ltrunc=cfg.ltrunc, kmax=kmax, params=_cavity_params(cfg)
    )
    return [("", "json", report.to_dict())], _name_failures(report)


# sweep holds every row until it writes the CSV, about 45 us and 0.7 kB a point
# on 2 cores (250,000 points: 11 s, 203 MB), so 10^6 points stay under 1 GiB
_SWEEP_POINTS_MAX = 10**6


def _sweep_point(base: dict, names: list[str], values: tuple) -> tuple:
    # resolve_config checked every grid value by its key's own rule, so a point
    # needs no second resolution; None keeps the base value, as in a config file.
    # base holds the cavity fields and r_convention, which never reaches CavityParams
    point = {**base, **{name: v for name, v in zip(names, values) if v is not None}}
    convention = point.pop("r_convention")
    try:
        rs = base_rates(CavityParams(**point), convention)
    except (OverflowError, ZeroDivisionError) as exc:
        raise type(exc)(f"{exc}, at grid point {dict(zip(names, values))}") from None
    rates = tuple(float(getattr(rs, f)) for f in _SCALAR_RATE_FIELDS)
    _require_finite(_SCALAR_RATE_FIELDS, rates, zip(names, values))
    return values + rates


def _cmd_sweep(cfg: RunConfig, args):
    if not cfg.grid:
        raise ConfigError("sweep requires a non-empty 'grid' object in the config")
    names = sorted(cfg.grid)
    unread = [f"grid.{n}" for n in names if n == "grid" or n not in _SUBCOMMANDS["sweep"][2]]
    if unread:
        raise ConfigError(f"sweep reads only the cavity parameters and r_convention; "
                          f"unread grid keys: {', '.join(unread)}")
    value_lists = [cfg.grid[n] for n in names]
    count = math.prod(len(values) for values in value_lists)
    if count > _SWEEP_POINTS_MAX:
        raise ConfigError(f"grid has {count} points, above the sweep bound of {_SWEEP_POINTS_MAX}")
    base = {name: getattr(cfg, name) for name in ("r_convention", *_CAVITY_FIELDS)}
    rows = [_sweep_point(base, names, vals) for vals in itertools.product(*value_lists)]
    header = names + list(_SCALAR_RATE_FIELDS)
    return [("", "csv", (header, rows))], True


# subcommand -> (handler, help, read set); dim_cap only bounds a run and units is
# resolved into c and hbar, so neither is in any set
_SUBCOMMANDS = {
    "coeffs": (_cmd_coeffs, "emit the coefficient table as CSV", ("kmax",)),
    "verify": (_cmd_verify, "series and Gram sum-rule residual report",
               ("kmax", "jmax", "ltrunc", "tail_correct")),
    "evolve": (_cmd_evolve, "integrate the coupled mirror-field system",
               ("kmax", "variant", "t_end", "rel_tol", "abs_tol", "mirror_model", "q_floor",
                "mass", "length", "omega_m", "c", "q0", "qdot0", "Q0", "Qdot0")),
    "rates": (_cmd_rates, "emit all scalar rates as JSON",
              ("kmax", "r_convention", *_CAVITY_FIELDS)),
    "hamiltonian": (_cmd_hamiltonian, "emit a Hamiltonian variant matrix",
                    ("n_mech", "n_opt", "out_format", *_CAVITY_FIELDS)),
    "spectrum": (_cmd_spectrum, "lowest eigenvalues of one or more variants",
                 ("n_mech", "n_opt", "k_eigen", *_CAVITY_FIELDS)),
    "checks": (_cmd_checks, "full identity-check report (JSON)",
               ("kmax", "jmax", "ltrunc", *_CAVITY_FIELDS)),
    "sweep": (_cmd_sweep, "Cartesian parameter sweep of the rate set",
              ("r_convention", "grid", *_CAVITY_FIELDS)),
}


def build_parser() -> argparse.ArgumentParser:
    defaults_doc = ", ".join(f"{k}={v!r}" for k, v in DEFAULTS.items())
    parser = argparse.ArgumentParser(
        prog="optomech",
        description="Moving-mirror cavity optomechanics toolkit. Configuration comes "
        "from one JSON file (--config) overridden by flags; flags win.",
        epilog=f"config defaults: {defaults_doc}",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file (flags override its keys)")
        sp.add_argument("--out-dir", default="out", help="output directory (default: out)")
        if name in ("hamiltonian", "spectrum"):
            sp.add_argument("--variant", dest="variants", action="append", choices=ham.VARIANTS,
                            help="Hamiltonian variant (default new_full); spectrum takes "
                            "several, each once")
            keys += _FOCK_OPTIONS
        for key, (flag, kwargs) in _FLAGS.items():
            if key in keys:
                sp.add_argument(flag, dest=key, default=None, **kwargs)
        sp.set_defaults(func=func)
    return parser


def _run(args) -> int:
    """Resolve the config once, run the subcommand's handler, then write each
    artifact it returns as <subcommand><suffix>-<confighash>.<ext> and print
    its path; nothing is written unless the handler returned."""
    keys = set(_SUBCOMMANDS[args.command][2])
    if "variants" in args:
        args.variants = _requested_variants(args)
        keys |= set().union(*map(_builder_keys, args.variants))
    flags = {k: v for k, v in vars(args).items() if k in _FLAGS and v is not None}
    unread = [_FLAGS[k][0] for k in flags if k not in keys]
    if unread:
        run = " --variant ".join([args.command, *getattr(args, "variants", [])])
        raise ConfigError(f"{run} does not read {', '.join(unread)}")
    file_doc = load_config_file(args.config) if args.config else None
    cfg = resolve_config(file_doc, flags)
    artifacts, passed = args.func(cfg, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg, keys)
    for suffix, ext, content in artifacts:
        path = out_dir / f"{args.command}{suffix}-{digest}.{ext}"
        if ext == "json":
            _write_json(path, content)
        else:
            _write_csv(path, *content)
        print(path)
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StiffnessError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
