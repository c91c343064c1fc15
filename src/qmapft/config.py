"""Central tolerance configuration.

Every numerical check in the package reports the tolerance it used; the
defaults below are the contract values and are safe for Hilbert dimensions
up to the construction cap MAX_DIM.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

# Hard cap on Hilbert dimension.  Superoperators are dim^2 x dim^2 and
# trajectory enumeration is exponential; the cap keeps exact verification
# tractable.
MAX_DIM = 16


def finite_real(value) -> bool:
    """True for a real number, not a bool, of magnitude at most the largest float.  Integers
    and fractions are compared exactly, so one past the float range fails without an
    OverflowError; other reals are tested as float64 (a float32 would meet the bound as inf)."""
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class Tolerances:
    """Bundle of numerical tolerances used across all checks, each a finite number >= 0."""

    eps_herm: float = 1e-10     # allowed Hermiticity defect (relative)
    eps_pos: float = 1e-12      # smallest eigenvalue counted as positive
    eps_zero: float = 1e-10     # Kraus coefficient zero threshold (relative)
    eps_group: float = 1e-9     # potential-class grouping width
    eps_tp: float = 1e-10       # trace-preservation defect
    eps_fix: float = 1e-10      # invariant-state residual
    eps_prob: float = 1e-14     # probability pruning floor

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (finite_real(value) and value >= 0):
                raise ValueError(
                    f"tolerance {f.name!r} must be a number in [0, inf), got {value!r}"
                )


DEFAULT_TOLERANCES = Tolerances()
