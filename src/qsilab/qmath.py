"""Dense complex linear algebra for small multi-register quantum systems:
pure and joint states, tensor products, density matrices and the trace
distance. The identity-test circuit, `identity_tests.run_circuit`, takes
MEASURE_EPS from here.

All value objects are immutable after construction and every operation is a
pure function, so everything here is safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

#: Construction-time tolerance on state norms.
NORM_ATOL = 1e-9
#: Tolerance for Hermiticity / trace / positivity checks on density matrices.
MATRIX_ATOL = 1e-10
#: Outcomes below this probability count as unreachable and get no post-state.
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


@dataclass(frozen=True, eq=False)
class JointState:
    """State vector over a list of registers (first register = control)."""

    factor_dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor_dims must be positive integers")
        arr = _as_vector(self.amps)
        expected = int(np.prod(dims))
        if arr.size != expected:
            raise ValueError(f"amplitude length {arr.size} != product of dims {expected}")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"joint state has norm {norm:.12g}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "amps", arr)

    @property
    def dim(self) -> int:
        return self.amps.size

    def reshaped(self) -> np.ndarray:
        """View of the amplitudes as one axis per register."""
        return self.amps.reshape(self.factor_dims)


def tensor(states: Sequence[PureState]) -> PureState:
    """Kronecker product of the given states, in list order."""
    if not states:
        raise ValueError("empty tensor")
    return PureState(reduce(np.kron, (s.amps for s in states)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {arr.shape}")
        herm_defect = float(np.max(np.abs(arr - arr.conj().T)))
        if herm_defect > MATRIX_ATOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3g})")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > MATRIX_ATOL:
            raise ValueError(f"trace is {tr:.12g}, expected 1")
        lo = float(np.linalg.eigvalsh(arr).min())
        if lo < -MATRIX_ATOL:
            raise ValueError(f"matrix has negative eigenvalue {lo:.3g}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def mixture(weighted: Sequence[tuple[float, PureState]]) -> DensityMatrix:
    """Convex mixture sum_i w_i |s_i><s_i|; weights must sum to 1."""
    if not weighted:
        raise ValueError("empty mixture")
    dim = weighted[0][1].dim
    acc = np.zeros((dim, dim), dtype=complex)
    for w, s in weighted:
        if w < 0:
            raise ValueError("mixture weights must be nonnegative")
        acc += w * np.outer(s.amps, s.amps.conj())
    return DensityMatrix(acc)


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of the (Hermitian) difference."""
    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    eigs = np.linalg.eigvalsh(r1.entries - r2.entries)
    return float(0.5 * np.abs(eigs).sum())
