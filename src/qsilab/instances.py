"""Instances of the n-state identity problem.

An instance is n pure states of a common dimension d, held as the rows of
one read-only (n, d) complex array: the Gram matrix, the QR factorization of
the sequential swap kernel and the circuit's product state all come from
that matrix. The pairwise inner products are promised to have modulus 0 or
1; the promise structure is carried by a partition of the index set (states
share a block iff they are equal). Unstructured instances (arbitrary states,
no partition) are allowed for the closed-form probability oracle but are
rejected by the protocol runners.

`load_instance` decodes each distinct file text once per process and hands
the same instance to every later load of that text, from any path. Sharing
is safe because an instance cannot change: `QsiInstance` and `Partition` are
frozen and the states array is read-only. Decoding reads nothing but the
text, and a text that fails to decode is not cached, so it fails every time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .permgroup import Partition

#: Construction-time tolerance on state norms.
NORM_ATOL = 1e-9
#: Tolerance on inner-product moduli when checking the promise.
PROMISE_ATOL = 1e-9
#: Tolerance when validating a rotation matrix.
UNITARY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class QsiInstance:
    """n pure states of a common dimension d, the rows of a read-only (n, d)
    complex array, optionally promise-structured."""

    states: np.ndarray
    partition: Partition | None = None

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=complex)
        if states.ndim != 2 or states.size == 0:
            raise ValueError(
                f"states must be a non-empty (n, dim) array, got shape {states.shape}"
            )
        norms = np.linalg.norm(states, axis=1)
        off = ~(np.abs(norms - 1.0) <= NORM_ATOL)  # NaN norms count as off
        if off.any():
            i = int(np.argmax(off))
            raise ValueError(f"state {i + 1} has norm {norms[i]:.12g}, expected 1")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        dim = states.shape[1]
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
        return self.states.shape[1]

    def gram(self) -> np.ndarray:
        """Matrix of inner products G[i, j] = <state_i | state_j>."""
        return self.states.conj() @ self.states.T


def build_instance(
    partition: Partition, dim: int, rotation: np.ndarray | None = None
) -> QsiInstance:
    """Canonical instance for a partition: block i is embedded as basis state e_i.

    An optional unitary rotation is applied to every state, which changes the
    basis but not the promise structure: block i becomes column i of the
    rotation.
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
    basis = np.eye(dim, dtype=complex) if rotation is None else rotation.T
    return QsiInstance(basis[list(partition.labels())], partition)


def equal_pairs(inst: QsiInstance) -> np.ndarray | None:
    """Mask of the state pairs whose inner product has modulus 1, the diagonal
    included, or None when some modulus is neither 0 nor 1: the promise
    check from the states alone, on one Gram matrix."""
    mod = np.abs(inst.gram())
    np.fill_diagonal(mod, 1.0)
    equal = np.abs(mod - 1.0) <= PROMISE_ATOL
    return equal if (equal | (mod <= PROMISE_ATOL)).all() else None


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
    """Seeded random states with no promise structure (formula oracle only).

    State i is z_i / |z_i| with z_i = x + iy for two standard normal draws of
    length dim, taken state by state. Each row is scaled by its own norm: a
    norm along axis 1 can differ from it in the last bit.
    """
    draws = np.random.default_rng(seed).standard_normal((n, 2, dim))
    z = draws[:, 0] + 1j * draws[:, 1]
    return QsiInstance(np.array([row / float(np.linalg.norm(row)) for row in z]), None)


def _integer(value, what: str) -> int:
    """value if it is a JSON integer; bools, floats and strings are refused
    rather than truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def instance_from_json(obj) -> QsiInstance:
    """Decode the instance wire format.

    Structured form:   {"n": int, "dim": int, "partition": [[int, ...], ...],
                        "rotation_seed": optional int}
    Unstructured form: {"n": int, "dim": int, "states": [[[re, im], ...], ...]}

    n, dim, the partition entries and rotation_seed must be integers, and an
    object may not carry both a partition and states.
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    try:
        n, dim = obj["n"], obj["dim"]
    except KeyError as exc:
        raise ValueError(f"instance JSON missing field: {exc}") from exc
    n, dim = _integer(n, "n"), _integer(dim, "dim")
    if "partition" in obj and "states" in obj:
        raise ValueError("instance JSON has both 'partition' and 'states'; give one")
    if "partition" in obj:
        try:
            blocks = tuple(
                frozenset(_integer(i, "partition entry") for i in b) for b in obj["partition"]
            )
            seed = obj.get("rotation_seed")
            seed = None if seed is None else _integer(seed, "rotation_seed")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed partition or rotation_seed: {exc}") from exc
        rotation = None if seed is None else haar_unitary(dim, seed)
        return build_instance(Partition(n, blocks), dim, rotation)
    if "states" in obj:
        try:
            raw = np.array(obj["states"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"states are not numeric [re, im] pairs: {exc}") from exc
        if raw.ndim != 3 or raw.shape[2] != 2:
            raise ValueError(f"states must be lists of [re, im] pairs, got shape {raw.shape}")
        if len(raw) != n:
            raise ValueError(f"expected {n} states, got {len(raw)}")
        if raw.shape[1] != dim:
            raise ValueError(f"state length {raw.shape[1]} != dim {dim}")
        return QsiInstance(raw.view(complex)[..., 0], None)
    raise ValueError("instance JSON needs either 'partition' or 'states'")


@lru_cache
def _decode(text: str) -> QsiInstance:
    return instance_from_json(text)


def load_instance(path: str | Path) -> QsiInstance:
    """Read an instance JSON file.

    The file is read on every call, so a rewritten file is seen at once, but
    each distinct text is decoded once per process: later loads of the same
    text, from this path or another, return the same immutable instance.
    """
    return _decode(Path(path).read_text(encoding="utf-8"))
