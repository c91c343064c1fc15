"""Central tolerance configuration.

Every numerical check in the package reports the tolerance it used; the
defaults below are the contract values and are safe for Hilbert dimensions
up to the construction cap MAX_DIM.
"""

from __future__ import annotations

from dataclasses import dataclass

# Hard cap on Hilbert dimension.  Superoperators are dim^2 x dim^2 and
# trajectory enumeration is exponential; the cap keeps exact verification
# tractable.
MAX_DIM = 16


@dataclass(frozen=True)
class Tolerances:
    """Bundle of numerical tolerances used across all checks."""

    eps_eig: float = 1e-12      # eigendecomposition reconstruction (relative)
    eps_herm: float = 1e-10     # allowed Hermiticity defect (relative)
    eps_pos: float = 1e-12      # smallest eigenvalue counted as positive
    eps_zero: float = 1e-10     # Kraus coefficient zero threshold (relative)
    eps_group: float = 1e-9     # potential-class grouping width
    eps_tp: float = 1e-10       # trace-preservation defect
    eps_fix: float = 1e-10      # invariant-state residual
    eps_prob: float = 1e-14     # probability pruning floor


DEFAULT_TOLERANCES = Tolerances()
