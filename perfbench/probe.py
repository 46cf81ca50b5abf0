"""Set-up of each workload: the imports it needs plus one small warm-up op.

``python3 probe.py <workload>`` (with optomech's ``src`` on PYTHONPATH) runs
the set-up in a fresh interpreter and prints READY; ``run.py`` times
spawn-to-READY as ``setup_s`` and calls the same function in-process before
it measures. Each function imports only what its workload uses, so a lazier
import graph in optomech shows in ``setup_s``.
"""

import sys


def trajectory() -> None:
    import numpy as np

    from optomech.coefficients import build_table
    from optomech.dynamics import ClassicalState, MirrorParams, integrate

    params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=4)
    state = ClassicalState(t=0.0, q=1.005, qdot=0.0, Q=np.array([0.02, 0.0, 0.0, 0.0]),
                           Qdot=np.zeros(4))
    integrate("new", state, params, build_table(4), 2 * np.pi, mirror_model="lagrangian")


def spectrum() -> None:
    # the first dim-256 build is several times slower cold than warm
    from optomech.fock import FockSpace
    from optomech.hamiltonians import build_hamiltonian
    from optomech.rates import CavityParams

    params = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0)
    build_hamiltonian("new_full", params, FockSpace(n_mech=16, n_opt=16), order=2)


def cli() -> None:
    import optomech.cli  # noqa: F401  (the cli set-up is a fresh import)


SETUPS = {"trajectory": trajectory, "spectrum": spectrum, "cli": cli}

if __name__ == "__main__":
    SETUPS[sys.argv[1]]()
    print("READY", flush=True)
