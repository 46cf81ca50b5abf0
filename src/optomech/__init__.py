"""Moving-mirror cavity optomechanics toolkit.

Coefficient tables and their sum rules, classical mirror-field dynamics in
two formulations, scalar coupling rates and squeeze parameters, truncated
Fock-space Hamiltonian variants with an operator-symmetrization engine, and
a deterministic CLI over all of it.

The package root defines only ``__version__``: import every other name from its
layer module (``optomech.fock``, ...), which loads only the layers it imports.
"""

__version__ = "0.1.0"
