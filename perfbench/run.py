"""Run one optomech benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {trajectory,spectrum,cli} --seed N \\
        --seconds S --trace {0,1}

The workload runs closed-loop passes, one client, until ``--seconds`` would
be exceeded, and at least two, so that the integrator counts and CLI artifact
digests of later passes can be checked against the first pass. ``setup_s``
is the median over fresh interpreters of the time from spawn to the end of
the workload's set-up (``probe.py``); this process runs the same set-up
before its first pass.

With ``--trace 0`` every pass is untraced and the end-to-end metrics of
BENCHMARK.json are printed. With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics come from the traced passes' spans and
``bench.trace_overhead_s`` is the traced minus the untraced median pass time.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Scratch files live in a temporary directory under
the repository root that is removed before exit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe
from tracing import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_PASSES = 2
DYNAMICS_GROUPS = (
    "dynamics.integrate.lagrangian_new",
    "dynamics.integrate.newton_law",
    "dynamics.integrate_prescribed.new",
    "dynamics.integrate_prescribed.law",
)
IMPORT_MODULES = ("scipy.integrate", "scipy.linalg", "optomech.dynamics", "optomech.fock")
HEADLINE_ALIAS = {"trajectory": "drift_run_s", "spectrum": "ground_shift_s", "cli": "call_p50_s"}


def measure_setup(workload: str, env: dict) -> float:
    """Median spawn-to-ready time of a fresh interpreter running the set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                              env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "READY":
                raise RuntimeError(f"set-up probe for {workload} failed")
    return statistics.median(times)


def import_times(env: dict) -> dict[str, float]:
    """``cli.import_s`` and per-module import times from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import optomech.cli"],
                          env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    rows = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[0].strip().isdigit():
            rows[parts[2].strip()] = (int(parts[0]) * 1e-6, int(parts[1]) * 1e-6)
    out = {"cli.import_s": rows["optomech.cli"][1]}
    for mod in IMPORT_MODULES:
        self_s, cum_s = rows.get(mod, (0.0, 0.0))
        out[f"cli.importtime.{mod}.self_s"] = self_s
        out[f"cli.importtime.{mod}.cum_s"] = cum_s
    return out


def run_passes(wl, tracer, seconds: float, trace: bool):
    """Closed-loop passes until the next one would end after ``seconds``.
    Returns (untraced, traced, extra): lists of (wall, ops) and replica ops."""
    untraced, traced, extra = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        tracer.enabled = trace and i % 2 == 1
        tracer.run = i
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            ops = wl.run_pass(tracer)
        wall = time.perf_counter() - t0
        if tracer.enabled:
            traced.append((wall, ops))
            if hasattr(wl, "replica"):
                with tracer.span("bench.replica"):
                    extra += wl.replica(tracer)
        else:
            untraced.append((wall, ops))
        i += 1
        typical = statistics.median(w for w, _ in untraced + traced)
        if i >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            break
    tracer.enabled = False
    return untraced, traced, extra


def check_repeats(passes: list[list]) -> None:
    """Fail any op whose exact counts or digests differ from the first pass."""
    first = passes[0]
    for ops in passes[1:]:
        for ref, op in zip(first, ops):
            if op.key != ref.key:
                op.ok = False
                op.detail += f"; differs from first pass: {op.key} != {ref.key}"


def layer_metrics(spans, untraced, traced, env: dict) -> dict[str, float]:
    """Per-layer rows: span medians, the ratios derived from them, the
    tracing overhead and the import times."""
    m = summarize(spans)
    for group in DYNAMICS_GROUPS:
        busy, nfev = m.get(f"{group}.busy_s", 0.0), m.get(f"{group}.nfev", 0)
        steps, rejected = m.get(f"{group}.steps", 0), m.get(f"{group}.rejected", 0)
        m[f"{group}.us_per_rhs"] = 1e6 * busy / nfev if nfev else 0.0
        m[f"{group}.accept_ratio"] = steps / (steps + rejected) if steps else 0.0
    busy, calls = m.get("rates.all_rates.busy_s", 0.0), m.get("rates.all_rates.calls", 0)
    m["rates.all_rates.points_per_s"] = calls / busy if busy else 0.0
    for name in [n for n in m if n.startswith("cli.") and n.count(".") == 2]:
        m[name.replace(".busy_s", ".wall_s")] = m[name]
    m["bench.trace_overhead_s"] = (statistics.median(w for w, _ in traced)
                                   - statistics.median(w for w, _ in untraced))
    m.update(import_times(env))
    return m


def _blas() -> tuple[str, object]:
    import numpy as np

    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    name = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else f"unknown ({ref[5:]})"


def environment() -> dict:
    import numpy
    import scipy

    blas, threads = _blas()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("trajectory", "spectrum", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "optomech" / "__init__.py").is_file():
        print(f"perfbench: no optomech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import optomech

    if Path(optomech.__file__).resolve().parent != SRC / "optomech":
        print(f"perfbench: imported optomech from {optomech.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        from workloads import WORKLOADS, cli_env  # imports optomech from SRC

        probe.SETUPS[args.workload]()
        wl = WORKLOADS[args.workload](args.seed, tmp)
        tracer = Tracer()
        untraced, traced, extra = run_passes(wl, tracer, args.seconds, bool(args.trace))
        check_repeats([ops for _, ops in untraced + traced])
        ops = [op for _, pass_ops in untraced + traced for op in pass_ops] + extra
        failed = [op for op in ops if not op.ok]
        if args.trace:
            tracer.write(tmp / "spans.jsonl")
            values = layer_metrics(tracer.spans, untraced, traced, cli_env(SRC))
        else:
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            values = {
                "wall_s": statistics.median(w for w, _ in untraced),
                "setup_s": measure_setup(args.workload, cli_env(SRC)),
                "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
                "headline_s": wl.headline([pass_ops for _, pass_ops in untraced]),
            }
        env = environment()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {len(ops)} ops, {len(failed)} failed")
    print("pass walls (s): untraced " + " ".join(f"{w:.3f}" for w, _ in untraced)
          + "; traced " + " ".join(f"{w:.3f}" for w, _ in traced))
    for op in failed:
        print(f"FAILED {op.name}: {op.detail}")
    if not args.trace:
        print(f"error_rate {len(failed) / len(ops):.6g} fraction")
        print(f"{HEADLINE_ALIAS[args.workload]} {values['headline_s']:.6g} s (= headline_s)")
    metrics = {}
    for row in wanted:
        value = values.get(row["name"], 0)
        metrics[row["name"]] = {"value": value, "unit": row["unit"]}
        print(f"{row['name']} {value:.6g} {row['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
