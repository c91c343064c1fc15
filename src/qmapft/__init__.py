"""Fluctuation theorems for CPTP quantum maps.

Kraus-map representation and validation, invariant states, nonequilibrium
potentials, dual maps, trajectory enumeration and sampling, and exact
verification of the detailed and integral fluctuation theorems at small
Hilbert dimension.
"""

from .config import DEFAULT_TOLERANCES, MAX_DIM, Tolerances
from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatchError,
    EnumerationTooLarge,
    HistogramTooLarge,
    MixedPotentialOperator,
    NonHermitianError,
    NonUniqueInvariantState,
    NotTracePreservingError,
    NotUnitaryError,
    ProcessFileError,
    QmapError,
    SampleCountTooLarge,
    SingularStateError,
    ZeroProbabilityBranch,
)
from .linalg import (
    HermitianEigenDecomposition,
    adjoint,
    hermitian_eig,
    matrix_power_of_positive,
    von_neumann_entropy,
)
from .maps import (
    KrausMap,
    ValidationReport,
    apply_map,
    build_superoperator,
    invariant_state,
    kraus_map,
    validate_cptp,
    validate_density,
)
from .models import (
    dephasing_map,
    free_energy,
    gibbs_populations,
    gibbs_state,
    lindblad_step,
    multi_reservoir_step,
    projective_measurement,
    thermal_lindblad_pair,
    thermal_qubit_map,
    unitary_map,
)
from .potential import (
    BalanceReport,
    CommutatorReport,
    DualMap,
    PotentialStructure,
    SymmetryOp,
    build_dual,
    build_potential_structure,
    check_bohr_ladder,
    check_detailed_balance,
    check_ladder_commutators,
    theta,
)
from .process import (
    ProcessSpec,
    ProcessStep,
    Trajectory,
    TrajectoryEnsemble,
    build_dual_process,
    compile_process,
    entropy_change,
    enumerate_trajectories,
    make_step,
    process_spec,
    sample_trajectories,
    verify_detailed_ft,
    verify_integral_ft,
    work_statistics,
)

__version__ = "0.1.0"
