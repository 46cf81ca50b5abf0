"""Moving-mirror cavity optomechanics toolkit.

Coefficient tables and their sum rules, classical mirror-field dynamics in
two formulations, scalar coupling rates and squeeze parameters, truncated
Fock-space Hamiltonian variants with an operator-symmetrization engine, and
a deterministic CLI over all of it.
"""

__version__ = "0.1.0"

from .coefficients import (
    CoefficientTable,
    build_table,
    verify_g_squared_sum,
    verify_gram_identity,
)
from .dynamics import (
    ClassicalState,
    MirrorMotion,
    MirrorParams,
    StiffnessError,
    TrajectoryRecord,
    energy,
    field_accel_law,
    field_accel_new,
    harmonic_mirror_motion,
    integrate,
    integrate_prescribed,
    mirror_accel,
)
from .fock import (
    FockSpace,
    ModeOperators,
    OperatorMatrix,
    bogoliubov_pair,
    commutator,
    expand_inverse_power,
    interior_block,
    make_space,
    spectrum,
    squared_annihilator,
    symmetrize_matrices,
)
from .hamiltonians import VARIANTS, build_hamiltonian
from .rates import (
    CavityParams,
    RateSet,
    SqueezeResult,
    all_rates,
    base_rates,
    relativistic_rates,
    special_case_frequency,
    squeeze_parameters,
    theta_low_optical,
)

__all__ = [
    "__version__",
    "CoefficientTable",
    "build_table",
    "verify_g_squared_sum",
    "verify_gram_identity",
    "ClassicalState",
    "MirrorMotion",
    "MirrorParams",
    "StiffnessError",
    "TrajectoryRecord",
    "energy",
    "field_accel_law",
    "field_accel_new",
    "harmonic_mirror_motion",
    "integrate",
    "integrate_prescribed",
    "mirror_accel",
    "FockSpace",
    "ModeOperators",
    "OperatorMatrix",
    "bogoliubov_pair",
    "commutator",
    "expand_inverse_power",
    "interior_block",
    "make_space",
    "spectrum",
    "squared_annihilator",
    "symmetrize_matrices",
    "VARIANTS",
    "build_hamiltonian",
    "CavityParams",
    "RateSet",
    "SqueezeResult",
    "all_rates",
    "base_rates",
    "relativistic_rates",
    "special_case_frequency",
    "squeeze_parameters",
    "theta_low_optical",
]
