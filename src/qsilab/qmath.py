"""The pure-state type: a validated, read-only unit-norm amplitude vector,
and computational basis states. The identity-test circuit,
`identity_tests.run_circuit`, takes MEASURE_EPS from here.

A PureState is immutable after construction, so it is safe for concurrent
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Construction-time tolerance on state norms.
NORM_ATOL = 1e-9
#: EQUAL probabilities below this count as unreachable and are reported as 0.
MEASURE_EPS = 1e-14


def _as_vector(amps) -> np.ndarray:
    arr = np.array(amps, dtype=complex).reshape(-1)
    if arr.size == 0:
        raise ValueError("amplitude vector is empty")
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_vector(self.amps)
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state vector has norm {norm:.12g}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def from_unnormalized(cls, amps) -> "PureState":
        """Build a state from a raw amplitude vector, normalizing it."""
        arr = _as_vector(amps)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / norm)


def basis_state(dim: int, index: int) -> PureState:
    """Computational basis vector e_index in the given dimension."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)
