"""Exception types shared across the package, and raise_first, which raises the first
failure of a stacked check."""

from __future__ import annotations


class QmapError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QmapError):
    """Operands have incompatible shapes."""


class NonHermitianError(QmapError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotUnitaryError(QmapError):
    """A matrix required to be unitary deviates beyond tolerance."""


class NotTracePreservingError(QmapError):
    """A map's sum_k M_k† M_k deviates from the identity beyond eps_tp."""


class SingularStateError(QmapError):
    """A state required to be strictly positive has a (near-)zero eigenvalue."""


class NonUniqueInvariantState(QmapError):
    """The fixed-point subspace of a map has dimension greater than one.

    The caller must supply the invariant state explicitly.
    """

    def __init__(self, subspace_dim: int, candidate=None):
        self.subspace_dim = subspace_dim
        self.candidate = candidate
        super().__init__(
            f"invariant state is not unique (fixed subspace dimension "
            f"{subspace_dim}); supply pi explicitly"
        )


class ZeroProbabilityBranch(QmapError):
    """Every branch of an enumeration has probability at or below eps_prob."""


class MixedPotentialOperator(QmapError):
    """A Kraus operator connects eigenstate pairs with two distinct potential gaps."""

    def __init__(self, operator_index: int, gaps):
        self.operator_index = operator_index
        self.gaps = list(gaps)
        super().__init__(
            f"Kraus operator {operator_index} straddles distinct potential "
            f"gaps {self.gaps}; the map is outside the ladder family"
        )


class AbsoluteContinuityViolation(QmapError):
    """A forward trajectory has no counterpart of nonzero probability in the dual process."""

    def __init__(self, trajectory, probability: float):
        self.trajectory = trajectory
        self.probability = probability
        super().__init__(
            f"forward trajectory {trajectory} has probability {probability} "
            f"but its reverse is absent from the dual process"
        )


class EnumerationTooLarge(QmapError):
    """Exact enumeration would exceed the configured branch cap."""

    def __init__(self, branch_count: int, cap: int):
        self.branch_count = branch_count
        self.cap = cap
        super().__init__(
            f"enumeration needs {branch_count} branches, above the cap {cap}; "
            f"use Monte Carlo sampling instead"
        )


class SampleCountTooLarge(QmapError):
    """Monte Carlo sampling would draw more trajectories than the cap."""


class HistogramTooLarge(QmapError):
    """A histogram would need more bins than the cap."""

    def __init__(self, bin_count: float, cap: int):
        self.bin_count = bin_count
        self.cap = cap
        super().__init__(
            f"histogram needs {bin_count:.6g} bins, above the cap {cap}; "
            f"use a wider bin width"
        )


class ProcessFileError(QmapError):
    """A map or process file could not be parsed."""


def raise_first(failed, error_of) -> None:
    """Raise error_of(i) for the first i at which the boolean array failed is true, if any."""
    if failed.any():
        raise error_of(int(failed.argmax()))
