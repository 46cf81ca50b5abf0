"""Command-line front door.

Subcommands: coeffs, verify, evolve, rates, hamiltonian, spectrum, checks,
sweep.  Every number in the outputs comes from a library call; this layer
only parses, dispatches, and serializes.  Outputs are deterministic: fixed
config -> byte-identical files, named <subcommand>-<confighash>.<ext> under
--out-dir.  Exit codes: 0 success, 1 failed check or numerical failure,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import checks as checks_mod
from . import coefficients as coef
from . import fock
from . import hamiltonians as ham
from .config import ConfigError, RunConfig, config_hash, load_config_file, resolve_config
from .dynamics import ClassicalState, MirrorParams, StiffnessError, integrate
from .rates import CavityParams, all_rates

_SCALAR_RATE_FIELDS = (
    "x_zp", "theta", "R", "alpha", "beta", "gamma", "g0",
    "g3", "g4_plus", "g4_minus", "G4_plus", "G4_minus", "J", "lam", "w_over_beta",
)


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


def _out_path(args, cfg: RunConfig, subcommand: str, ext: str, suffix: str = "") -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{subcommand}{suffix}-{config_hash(cfg)}.{ext}"
    return out_dir / name


def _cavity_params(cfg: RunConfig) -> CavityParams:
    return CavityParams(
        mass=cfg.mass, length=cfg.length, omega_m=cfg.omega_m, omega_c=cfg.omega_c,
        c=cfg.c, hbar=cfg.hbar, a_amp=cfg.a_amp, a_phase=cfg.a_phase,
        b_amp=cfg.b_amp, b_phase=cfg.b_phase, chi0=cfg.chi0, thickness=cfg.thickness,
    )


def _resolve(args) -> RunConfig:
    file_doc = load_config_file(args.config) if args.config else None
    overrides = {}
    for key in vars(args):
        if key in ("config", "out_dir", "command", "variants", "func"):
            continue
        overrides[key] = getattr(args, key)
    return resolve_config(file_doc, overrides)


def _cmd_coeffs(args) -> int:
    cfg = _resolve(args)
    table = coef.build_table(cfg.kmax)
    rows = []
    for k in range(1, cfg.kmax + 1):
        for j in range(1, cfg.kmax + 1):
            rows.append(
                (k, j, float(table.g[k - 1, j - 1]), float(table.h[k - 1, j - 1]),
                 float(table.d[k - 1, j - 1]), float(table.r[k - 1]))
            )
    path = _out_path(args, cfg, "coeffs", "csv")
    _write_csv(path, ["k", "j", "g", "h", "d", "r_k"], rows)
    print(path)
    return 0


def _require_above(cfg: RunConfig, key: str, bound: int, what: str) -> None:
    # a truncation must reach past the largest mode its sum rule is checked at
    value = getattr(cfg, key)
    if value <= bound:
        raise ConfigError(f"{key} must exceed {what} ({bound}), got {value}")


# verify and checks sum the Gram rule over a max(kmax, 2) x ltrunc float64 block
# of g: 2^24 entries are 128 MiB, and the sum peaks near twice that.  The largest
# block in use, verify --kmax 8 --ltrunc 1000000, is half the bound.
_GRAM_BLOCK_MAX = 2**24


def _require_gram_block(kmax: int, ltrunc: int) -> None:
    if kmax * ltrunc > _GRAM_BLOCK_MAX:
        raise ConfigError(f"ltrunc * max(kmax, 2) = {ltrunc} * {kmax} exceeds the Gram block "
                          f"bound of {_GRAM_BLOCK_MAX} entries")


def _cmd_verify(args) -> int:
    cfg = _resolve(args)
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
    path = _out_path(args, cfg, "verify", "json")
    _write_json(path, report.to_dict())
    print(path)
    return 0 if report.passed else 1


def _cmd_rates(args) -> int:
    cfg = _resolve(args)
    p = _cavity_params(cfg)
    rs = all_rates(p, kmax=cfg.kmax, r_convention=cfg.r_convention)
    payload = {}
    for name in _SCALAR_RATE_FIELDS:
        value = getattr(rs, name)
        payload[name] = value if value is None else float(value)
    payload["w"] = rs.w.tolist()
    payload["notes"] = {
        "r_convention": cfg.r_convention,
        "beta_convention": "hbar*omega_c/(mass*omega_m*length^2) (= theta*alpha)",
        "g4_plus_alternative_theta_g3": float(rs.theta * rs.g3),
    }
    path = _out_path(args, cfg, "rates", "json")
    _write_json(path, payload)
    print(path)
    return 0


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


def _cmd_evolve(args) -> int:
    cfg = _resolve(args)
    params = MirrorParams(mass=cfg.mass, length=cfg.length, omega_m=cfg.omega_m,
                          c=cfg.c, kmax=cfg.kmax)
    table = coef.build_table(cfg.kmax)
    record = integrate(
        cfg.variant, _initial_state(cfg), params, table, cfg.t_end,
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, mirror_model=cfg.mirror_model,
        q_floor=cfg.q_floor,
    )
    header = ["t", "q", "qdot"]
    header += [f"Q_{k}" for k in range(1, cfg.kmax + 1)]
    header += [f"Qdot_{k}" for k in range(1, cfg.kmax + 1)]
    header += ["energy"]
    rows = (
        tuple(float(v) for v in (record.t[i], *record.y[i], record.energy[i]))
        for i in range(len(record.t))
    )
    path = _out_path(args, cfg, "evolve", "csv")
    _write_csv(path, header, rows)
    print(path)
    return 0


def _fock_space(cfg: RunConfig) -> fock.FockSpace:
    if cfg.n_mech * cfg.n_opt > cfg.dim_cap:
        raise ConfigError(f"n_mech * n_opt = {cfg.n_mech * cfg.n_opt} exceeds dim_cap "
                          f"({cfg.dim_cap})")
    return fock.FockSpace(n_mech=cfg.n_mech, n_opt=cfg.n_opt, dim_cap=cfg.dim_cap)


def _build_variant(cfg: RunConfig, space: fock.FockSpace, variant: str) -> fock.OperatorMatrix:
    eta = {"eta": cfg.eta} if variant == "H4_special_eta" else {}
    return ham.build_hamiltonian(variant, _cavity_params(cfg), space, order=cfg.order,
                                 r_convention=cfg.r_convention, **eta)


def _cmd_hamiltonian(args) -> int:
    cfg = _resolve(args)
    variant = args.variants[0] if args.variants else "new_full"
    H = _build_variant(cfg, _fock_space(cfg), variant)
    if cfg.out_format == "json":
        payload = {
            "variant": variant,
            "dim": H.space.dim,
            "real": H.data.real.tolist(),
            "imag": H.data.imag.tolist(),
        }
        path = _out_path(args, cfg, "hamiltonian", "json")
        _write_json(path, payload)
    else:
        rows = []
        n = H.space.dim
        for i in range(n):
            for j in range(n):
                rows.append((i, j, float(H.data[i, j].real), float(H.data[i, j].imag)))
        path = _out_path(args, cfg, "hamiltonian", "csv")
        _write_csv(path, ["i", "j", "real", "imag"], rows)
    print(path)
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _resolve(args)
    variants = args.variants or ["new_full"]
    space = _fock_space(cfg)
    if cfg.k_eigen > space.dim:
        raise ConfigError(f"k_eigen ({cfg.k_eigen}) exceeds the space dimension {space.dim}")
    paths = []
    eigs = {}
    for variant in variants:
        H = _build_variant(cfg, space, variant)
        vals = fock.spectrum(H, cfg.k_eigen)
        eigs[variant] = vals
        path = _out_path(args, cfg, "spectrum", "csv", suffix=f"-{variant}")
        _write_csv(path, ["index", "eigenvalue"],
                   ((i, float(v)) for i, v in enumerate(vals)))
        paths.append(path)
    if len(variants) >= 2:
        va, vb = variants[0], variants[1]
        shift = float(eigs[va][0] - eigs[vb][0])
        summary = {"variants": [va, vb], "ground_state_shift": shift}
        if {"new_full", "law_full"} <= set(variants):
            pert = ham.ground_shift_estimate(_cavity_params(cfg), cfg.r_convention)
            signed = float(eigs["new_full"][0] - eigs["law_full"][0])
            summary["perturbative_estimate"] = pert
            summary["new_minus_law_shift"] = signed
            summary["matches_perturbation_within_10pct"] = bool(
                abs(signed / pert - 1.0) <= 0.1
            )
        path = _out_path(args, cfg, "spectrum", "json", suffix="-diff")
        _write_json(path, summary)
        paths.append(path)
    for p in paths:
        print(p)
    return 0


def _cmd_checks(args) -> int:
    cfg = _resolve(args)
    kmax = max(cfg.kmax, 2)
    _require_above(cfg, "jmax", checks_mod.SUM_RULE_KMAX, "the largest sum-rule mode")
    _require_above(cfg, "ltrunc", kmax, "kmax")
    _require_gram_block(kmax, cfg.ltrunc)
    report = checks_mod.run_checks(
        jmax=cfg.jmax, ltrunc=cfg.ltrunc, kmax=kmax, params=_cavity_params(cfg)
    )
    path = _out_path(args, cfg, "checks", "json")
    _write_json(path, report.to_dict())
    print(path)
    if not report.passed:
        failing = [e.name for e in report.entries if not e.passed]
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _sweep_point(cfg: RunConfig, names: list[str], values: tuple) -> tuple:
    # resolve_config checked every grid value by its key's own rule, so a point
    # needs no second resolution; None keeps the base value, as in a config file
    point = dataclasses.replace(
        cfg, **{name: v for name, v in zip(names, values) if v is not None}
    )
    rs = all_rates(_cavity_params(point), kmax=point.kmax, r_convention=point.r_convention)
    scalars = tuple(
        float(getattr(rs, f)) if getattr(rs, f) is not None else float("nan")
        for f in _SCALAR_RATE_FIELDS
    )
    return values + scalars


def _cmd_sweep(args) -> int:
    cfg = _resolve(args)
    if not cfg.grid:
        raise ConfigError("sweep requires a non-empty 'grid' object in the config")
    names = sorted(cfg.grid)
    value_lists = [cfg.grid[n] for n in names]
    points = list(itertools.product(*value_lists))
    rows = [_sweep_point(cfg, names, vals) for vals in points]
    header = names + list(_SCALAR_RATE_FIELDS)
    path = _out_path(args, cfg, "sweep", "csv")
    _write_csv(path, header, rows)
    print(path)
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file (flags override its keys)")
    sp.add_argument("--out-dir", default="out", help="output directory (default: out)")
    sp.add_argument("--kmax", type=int, default=None, help="retained field modes")
    sp.add_argument("--out-format", dest="out_format", choices=("csv", "json"), default=None)
    sp.add_argument("--r-convention", dest="r_convention", choices=("exact", "prose"),
                    default=None, help="self-rate convention (default exact)")


def build_parser() -> argparse.ArgumentParser:
    from .config import DEFAULTS

    defaults_doc = ", ".join(f"{k}={v!r}" for k, v in DEFAULTS.items())
    parser = argparse.ArgumentParser(
        prog="optomech",
        description="Moving-mirror cavity optomechanics toolkit. Configuration comes "
        "from one JSON file (--config) overridden by flags; flags win.",
        epilog=f"config defaults: {defaults_doc}",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="emit the coefficient table as CSV")
    _add_common(sp)
    sp.set_defaults(func=_cmd_coeffs)

    sp = sub.add_parser("verify", help="series and Gram sum-rule residual report")
    _add_common(sp)
    sp.add_argument("--jmax", type=int, default=None, help="diagonal-rule truncation")
    sp.add_argument("--ltrunc", type=int, default=None, help="Gram-rule truncation")
    sp.add_argument("--no-tail", dest="tail_correct", action="store_false", default=None,
                    help="disable the analytic tail correction")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("evolve", help="integrate the coupled mirror-field system")
    _add_common(sp)
    sp.add_argument("--variant", dest="variant", choices=("new", "law"), default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    sp.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
    sp.add_argument("--mirror-model", dest="mirror_model",
                    choices=("newton", "lagrangian"), default=None)
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("rates", help="emit all scalar rates as JSON")
    _add_common(sp)
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("hamiltonian", help="emit a Hamiltonian variant matrix")
    _add_common(sp)
    sp.add_argument("--variant", dest="variants", action="append",
                    choices=ham.VARIANTS, help="variant to build")
    sp.add_argument("--n-mech", dest="n_mech", type=int, default=None)
    sp.add_argument("--n-opt", dest="n_opt", type=int, default=None)
    sp.add_argument("--order", type=int, default=None, choices=(0, 1, 2))
    sp.add_argument("--eta", type=float, default=None)
    sp.set_defaults(func=_cmd_hamiltonian)

    sp = sub.add_parser("spectrum", help="lowest eigenvalues of one or more variants")
    _add_common(sp)
    sp.add_argument("--variant", dest="variants", action="append",
                    choices=ham.VARIANTS, help="repeatable")
    sp.add_argument("--n-mech", dest="n_mech", type=int, default=None)
    sp.add_argument("--n-opt", dest="n_opt", type=int, default=None)
    sp.add_argument("--order", type=int, default=None, choices=(0, 1, 2))
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--k-eigen", dest="k_eigen", type=int, default=None,
                    help="number of eigenvalues")
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("checks", help="full identity-check report (JSON)")
    _add_common(sp)
    sp.add_argument("--jmax", type=int, default=None)
    sp.add_argument("--ltrunc", type=int, default=None)
    sp.set_defaults(func=_cmd_checks)

    sp = sub.add_parser("sweep", help="Cartesian parameter sweep of the rate set")
    _add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
