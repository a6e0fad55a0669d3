"""Instances of the n-state identity problem.

An instance is a list of pure states whose pairwise inner products are
promised to have modulus 0 or 1; the promise structure is carried by a
partition of the index set (states share a block iff they are equal).
Unstructured instances (arbitrary states, no partition) are allowed for the
closed-form probability oracle but are rejected by the protocol runners.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .permgroup import Partition
from .qmath import PureState, basis_state

#: Tolerance on inner-product moduli when checking the promise.
PROMISE_ATOL = 1e-9
#: Tolerance when validating a rotation matrix.
UNITARY_ATOL = 1e-9


class Verdict(Enum):
    YES_INSTANCE = "yes"
    NO_INSTANCE = "no"
    VIOLATED = "violated"


@dataclass(frozen=True, eq=False)
class QsiInstance:
    """n pure states of a common dimension, optionally promise-structured."""

    states: tuple[PureState, ...]
    partition: Partition | None = None

    def __post_init__(self) -> None:
        states = tuple(self.states)
        if not states:
            raise ValueError("instance needs at least one state")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise ValueError("all states must share one dimension")
        object.__setattr__(self, "states", states)
        if self.partition is not None:
            part = self.partition
            if part.n != len(states):
                raise ValueError(
                    f"partition is over {part.n} indices but instance has {len(states)} states"
                )
            if dim < part.block_count:
                raise ValueError(
                    f"dim {dim} is too small for {part.block_count} orthogonal blocks"
                )
            labels = np.array(part.labels())
            want = labels[:, None] == labels
            mod = np.abs(self.gram())
            np.fill_diagonal(mod, 1.0)  # self-overlaps are not held to the promise
            bad = np.abs(mod - want) > PROMISE_ATOL
            if bad.any():
                i, j = np.argwhere(np.triu(bad | bad.T))[0]
                raise ValueError(
                    f"promise violated at pair ({i + 1},{j + 1}): |<i|j>|={mod[i, j]:.3g}, "
                    f"expected {want[i, j]:d}"
                )

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def gram(self) -> np.ndarray:
        """Matrix of inner products G[i, j] = <state_i | state_j>."""
        vecs = np.array([s.amps for s in self.states])
        return vecs.conj() @ vecs.T


def build_instance(
    partition: Partition, dim: int, rotation: np.ndarray | None = None
) -> QsiInstance:
    """Canonical instance for a partition: block i is embedded as basis state e_i.

    An optional unitary rotation is applied to every state, which changes the
    basis but not the promise structure.
    """
    if dim < partition.block_count:
        raise ValueError(
            f"dim {dim} too small: partition has {partition.block_count} blocks"
        )
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=complex)
        if rotation.shape != (dim, dim):
            raise ValueError(f"rotation must be {dim}x{dim}, got {rotation.shape}")
        defect = float(np.max(np.abs(rotation.conj().T @ rotation - np.eye(dim))))
        if defect > UNITARY_ATOL:
            raise ValueError(f"rotation is not unitary (defect {defect:.3g})")
    states = []
    for label in partition.labels():
        if rotation is None:
            states.append(basis_state(dim, label))
        else:
            states.append(PureState(rotation[:, label]))
    return QsiInstance(tuple(states), partition)


def equal_pairs(inst: QsiInstance) -> np.ndarray | None:
    """Mask of the state pairs whose inner product has modulus 1, the diagonal
    included, or None when some modulus is neither 0 nor 1: the promise
    check from the states alone, on one Gram matrix."""
    mod = np.abs(inst.gram())
    np.fill_diagonal(mod, 1.0)
    equal = np.abs(mod - 1.0) <= PROMISE_ATOL
    return equal if (equal | (mod <= PROMISE_ATOL)).all() else None


def verify_promise(inst: QsiInstance) -> Verdict:
    """Classify the states: all equal, equal-or-orthogonal, or promise-breaking.

    Works from the states alone; the partition field is not consulted.
    """
    equal = equal_pairs(inst)
    if equal is None:
        return Verdict.VIOLATED
    return Verdict.YES_INSTANCE if equal.all() else Verdict.NO_INSTANCE


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary (QR of a complex Gaussian, phases fixed)."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_structured_instance(
    n: int,
    seed: int,
    rotate: bool = False,
    dim: int | None = None,
    max_blocks: int | None = None,
) -> QsiInstance:
    """Seeded random promise instance: random partition, optional Haar rotation."""
    rng = np.random.default_rng(seed)
    block_count = int(rng.integers(1, min(max_blocks or n, n) + 1))
    labels = [int(v) for v in rng.integers(0, block_count, size=n)]
    order: dict[int, int] = {}
    for lab in labels:
        order.setdefault(lab, len(order))
    labels = [order[lab] for lab in labels]
    blocks: list[set[int]] = [set() for _ in range(len(order))]
    for i, lab in enumerate(labels, start=1):
        blocks[lab].add(i)
    part = Partition(n, tuple(frozenset(b) for b in blocks))
    d = max(dim or 0, part.block_count)
    rotation = haar_unitary(d, int(rng.integers(0, 2**31))) if rotate else None
    return build_instance(part, d, rotation)


def random_unstructured_instance(n: int, dim: int, seed: int) -> QsiInstance:
    """Seeded random states with no promise structure (formula oracle only)."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states.append(PureState.from_unnormalized(z))
    return QsiInstance(tuple(states), None)


def instance_from_json(obj) -> QsiInstance:
    """Decode the instance wire format.

    Structured form:   {"n": int, "dim": int, "partition": [[int, ...], ...],
                        "rotation_seed": optional int}
    Unstructured form: {"n": int, "dim": int, "states": [[[re, im], ...], ...]}
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    try:
        n = int(obj["n"])
        dim = int(obj["dim"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"instance JSON missing field: {exc}") from exc
    if "partition" in obj:
        part = Partition(n, tuple(frozenset(int(i) for i in b) for b in obj["partition"]))
        rotation = None
        if obj.get("rotation_seed") is not None:
            rotation = haar_unitary(dim, int(obj["rotation_seed"]))
        return build_instance(part, dim, rotation)
    if "states" in obj:
        raw = obj["states"]
        if len(raw) != n:
            raise ValueError(f"expected {n} states, got {len(raw)}")
        states = []
        for vec in raw:
            if len(vec) != dim:
                raise ValueError(f"state length {len(vec)} != dim {dim}")
            states.append(PureState(np.array([complex(re, im) for re, im in vec])))
        return QsiInstance(tuple(states), None)
    raise ValueError("instance JSON needs either 'partition' or 'states'")


def load_instance(path: str | Path) -> QsiInstance:
    """Read an instance JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    return instance_from_json(text)
