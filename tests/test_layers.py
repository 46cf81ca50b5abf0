"""Package structure: the root holds only ``__version__``, and each layer
module loads only the layers it imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optomech

# layer -> the optomech modules a fresh import of it loads
_CLOSURES = {
    "fock": {"fock"},
    "_krylov": {"fock", "_krylov"},
    "coefficients": {"coefficients"},
    "config": {"config"},
    "_dop853": {"_dop853"},
    "rates": {"coefficients", "rates"},
    "dynamics": {"coefficients", "_dop853", "dynamics"},
    "hamiltonians": {"coefficients", "fock", "rates", "hamiltonians"},
}

_LOADED = """
import importlib, json, sys
if sys.argv[1]:
    importlib.import_module(sys.argv[1])
import optomech
print(json.dumps({
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "optomech"),
    "public": sorted(n for n in vars(optomech) if not n.startswith("__") or n == "__version__"),
}))
"""


_SOLVED = """
import json, sys
from optomech import fock, hamiltonians as ham
from optomech.rates import CavityParams
n = int(sys.argv[1])
p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0, a_amp=1.0, b_amp=1.0)
fock.spectrum(ham.build_hamiltonian("new_full", p, fock.FockSpace(n, n), order=2), 8)
print(json.dumps({"modules": sorted(sys.modules)}))
"""


def fresh_run(code: str, arg: str) -> dict:
    # a fresh interpreter, so modules other tests imported do not count
    src = str(Path(optomech.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, arg], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def fresh_import(module: str) -> dict:
    return fresh_run(_LOADED, module)


@pytest.mark.parametrize("layer", sorted(_CLOSURES))
def test_layer_loads_only_its_closure(layer):
    loaded = fresh_import(f"optomech.{layer}")["modules"]
    assert set(loaded) == {"optomech"} | {f"optomech.{m}" for m in _CLOSURES[layer]}


def test_package_root_defines_only_the_version():
    assert fresh_import("")["public"] == ["__version__"]


def test_only_an_iterative_solve_loads_krylov():
    # an order-2 new_full for 8 levels: at 16 x 16, below fock.DAVIDSON_MIN_DIM,
    # each sector is solved densely; at 24 x 24 and 32 x 32 each goes to
    # Davidson, which draws no random row there
    below = fresh_run(_SOLVED, "16")["modules"]
    assert "optomech._krylov" not in below and "numpy.random" not in below
    for n in ("24", "32"):
        davidson = fresh_run(_SOLVED, n)["modules"]
        assert "optomech._krylov" in davidson and "numpy.random" not in davidson, n
