"""Instances of the n-state identity problem.

An instance is n pure states of a common dimension d, held as the rows of
one read-only (n, d) complex array: the Gram matrix, the QR factorization of
the sequential swap kernel and the circuit's product state all come from
that matrix, and so does the promise structure. The pairwise inner products
are promised to have modulus 0 or 1, and ``QsiInstance.labels`` finds the
blocks of equal states against one representative each, on first use, as
an integer label row; it is None when the states break the promise. Such
unstructured instances are allowed for the Gram-matrix formula but have no
exact value and are rejected by the protocol runners. A file may give the
blocks instead of the states, and ``build_instance`` turns a label row into
states.

`load_instance` decodes each distinct file text once per process and hands
the same instance to every later load of that text, from any path. Sharing
is safe because an instance cannot change: `QsiInstance` is frozen, the
states array and the labels row are read-only, and the labels are a function
of the states. Decoding reads nothing but the text, and a text that fails to
decode is not cached, so it fails every time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

#: Construction-time tolerance on state norms.
NORM_ATOL = 1e-9
#: Tolerance on inner-product moduli to each block's representative when
#: checking the promise; other pairs may miss by more (QsiInstance.labels).
PROMISE_ATOL = 1e-9
#: Tolerance when validating a rotation matrix.
UNITARY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class QsiInstance:
    """n pure states of a common dimension d, the rows of a read-only (n, d)
    complex array."""

    states: np.ndarray

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

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def gram(self) -> np.ndarray:
        """Matrix of inner products G[i, j] = <state_i | state_j>."""
        return self.states.conj() @ self.states.T

    @cached_property
    def labels(self) -> np.ndarray | None:
        """Block label of each state as a read-only integer row: the classes
        of equal states (inner-product modulus 1) numbered by first member.
        None when some modulus is neither 0 nor 1, the promise broken.

        Computed on first use in O(n b d) time and O(n) memory, b blocks:
        each block's first member is compared with every state, and the
        promise is checked on those moduli alone. So two other states may
        miss their promised modulus by up to 4 * PROMISE_ATOL + 6 * NORM_ATOL
        (equal) or 5 * PROMISE_ATOL + 4 * NORM_ATOL (orthogonal)."""
        labels = np.full(self.n, -1)
        while labels.min() < 0:
            rep = int(labels.argmin())  # the first unlabelled state
            mod = np.abs(self.states @ self.states[rep].conj())
            mod[rep] = 1.0  # self-overlaps are not held to the promise
            equal = np.abs(mod - 1.0) <= PROMISE_ATOL
            if not (equal | (mod <= PROMISE_ATOL)).all():
                return None
            labels[equal] = labels.max() + 1
        labels.setflags(write=False)
        return labels


def build_instance(
    labels: Sequence[int], dim: int, rotation: np.ndarray | None = None
) -> QsiInstance:
    """Canonical instance for a label row: the states labelled i are basis
    state e_i.

    An optional unitary rotation is applied to every state, which changes the
    basis but not the promise structure: label i becomes column i of the
    rotation.
    """
    blocks = max(labels, default=-1) + 1
    if dim < blocks:
        raise ValueError(f"dim {dim} too small: partition has {blocks} blocks")
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=complex)
        if rotation.shape != (dim, dim):
            raise ValueError(f"rotation must be {dim}x{dim}, got {rotation.shape}")
        defect = float(np.max(np.abs(rotation.conj().T @ rotation - np.eye(dim))))
        if defect > UNITARY_ATOL:
            raise ValueError(f"rotation is not unitary (defect {defect:.3g})")
        return QsiInstance(rotation.T[list(labels)])
    states = np.zeros((len(labels), dim), dtype=complex)
    states[np.arange(len(labels)), labels] = 1
    return QsiInstance(states)


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
    """Seeded random promise instance: random labels, numbered by first
    appearance, and an optional Haar rotation."""
    rng = np.random.default_rng(seed)
    block_count = int(rng.integers(1, min(max_blocks or n, n) + 1))
    labels = [int(v) for v in rng.integers(0, block_count, size=n)]
    order: dict[int, int] = {}
    for lab in labels:
        order.setdefault(lab, len(order))
    d = max(dim or 0, len(order))
    rotation = haar_unitary(d, int(rng.integers(0, 2**31))) if rotate else None
    return build_instance([order[lab] for lab in labels], d, rotation)


def random_unstructured_instance(n: int, dim: int, seed: int) -> QsiInstance:
    """Seeded random states with no promise structure (formula oracle only).

    State i is z_i / |z_i| with z_i = x + iy for two standard normal draws of
    length dim, taken state by state. Each row is scaled by its own norm: a
    norm along axis 1 can differ from it in the last bit.
    """
    draws = np.random.default_rng(seed).standard_normal((n, 2, dim))
    z = draws[:, 0] + 1j * draws[:, 1]
    return QsiInstance(np.array([row / float(np.linalg.norm(row)) for row in z]))


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
    object may not carry both a partition and states. The blocks must be
    nonempty, disjoint and cover 1..n: the entries as listed are n distinct
    indices within 1..n, checked in memory proportional to the file and not
    to n. The members of the i-th block listed get label i, so that they
    become basis state e_i, or column i of the rotation.
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
            blocks = [[_integer(i, "partition entry") for i in b] for b in obj["partition"]]
            seed = obj.get("rotation_seed")
            seed = None if seed is None else _integer(seed, "rotation_seed")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed partition or rotation_seed: {exc}") from exc
        if not all(blocks):
            raise ValueError("partition blocks must be nonempty")
        entries = [i for block in blocks for i in block]
        union = set(entries)
        if len(entries) != len(union):
            raise ValueError("partition blocks must be disjoint, and list no index twice")
        if len(union) != n or not all(1 <= i <= n for i in union):
            raise ValueError(f"blocks must cover 1..{n} exactly, got {sorted(union)}")
        labels = [0] * n
        for label, block in enumerate(blocks):
            for i in block:
                labels[i - 1] = label
        return build_instance(labels, dim, None if seed is None else haar_unitary(dim, seed))
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
        return QsiInstance(raw.view(complex)[..., 0])
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
