"""Enumeration oracles for the identity-test evaluators and the protocols.

These are the group sweeps and the dense circuit that the closed forms in
`qsilab.identity_tests` and `qsilab.bounds` replace, and the one-trial-at-a-
time protocol samplers that the batches in `qsilab.protocols` replace. They
sum over every group element, build every measurement outcome or simulate
the full d^n state of each trial, so they are slow, but they share no
formula with the code under test. ``per_trial_srs_batch`` keeps one state
per trial where ``srs_batch`` keeps one per pair path; the two draw the same
random numbers, so their verdicts agree exactly. Likewise
``gram_rcir_batch`` multiplies Gram entries around every cyclic shift where
``rcir_batch`` compares integer label rows, on the same draws.
``repetition_set`` collects the shifts that map an ``Alignment`` (a
two-block placement around the cycle) onto itself one set at a time, where
``qsilab.identity_tests.fixed_shifts`` compares label rows at the divisors
of a gcd. ``srs_canonical_trace`` evolves the sequential swap state with
integer amplitudes over block labels, where ``qsilab.protocols`` runs one
float kernel, and ``loop_promise_error`` checks the states against a
``Partition`` one ``inner`` product at a time, where ``QsiInstance.labels``
reads the blocks off the Gram matrix once. ``Partition`` (disjoint nonempty
blocks of 1-based indices, in a meaningful order) is the block-list form of
a label row: tests write instances as blocks, and ``Partition.labels`` gives
the row that ``build_instance`` takes. The permutation objects, the
symmetric-group table with its signs and stabilizer counts, the dense
symmetric projector, the alignment builders, ``pure_density`` and ``inner``
are test-side helpers that the package itself does not need. So are the
validated state objects: ``JointState`` (a normalized state over several
registers, which ``measure_first_register`` and ``dense_run_circuit`` return
where ``run_circuit`` returns the raw EQUAL branch), ``tensor``, and
``DensityMatrix``, ``mixture`` and ``trace_distance``, the general route to
the one 4 x 4 trace distance that ``qsilab.bounds.two_sided_gap_check``
computes directly. A single pure state here is a plain 1-D complex array, as
a row of ``QsiInstance.states`` is. ``verify_promise`` classifies an
instance as all-equal, equal-or-orthogonal or promise-breaking from
``equal_pairs``, the mask of equal state pairs, which is the oracle for when
``QsiInstance.labels`` is None; ``loop_unstructured_states`` and
``loop_rotated_states`` build instance states one at a time, the way
``random_unstructured_instance`` and ``build_instance`` are pinned to
reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations as _lex_permutations
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from qsilab.identity_tests import (
    MEASURE_EPS,
    TestKind,
    _check_kind_n,
    _circuit_cap,
    equal_prob_formula,
    run_circuit,
)
from qsilab.instances import NORM_ATOL, PROMISE_ATOL, QsiInstance, build_instance
from qsilab.limits import SYM_ENUM_MAX_N, CapExceededError, max_amplitudes
from qsilab.protocols import rcir_exact

_FORMULA_CHUNK = 200_000

#: Tolerance for Hermiticity / trace / positivity checks on density matrices.
MATRIX_ATOL = 1e-10

#: Dense symmetric-subspace projector: the matrix has (dim**n)**2 entries,
#: so this keeps it near 256 MB of complex doubles.
PROJECTOR_MAX_DIM = 2**12

#: Largest n at which ``rcir_sample`` simulates the circle circuit; above it,
#: or past the amplitude budget, it draws from the Gram-matrix formula.
_RCIR_CIRCUIT_MAX_N = 10


GroupName = Literal["sym", "alt"]


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering {1..n}; block order is meaningful."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(int(i) for i in b) for b in self.blocks)
        if any(not b for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        union: set[int] = set()
        total = 0
        for b in blocks:
            union |= b
            total += len(b)
        if total != len(union):
            raise ValueError("partition blocks must be disjoint")
        if union != set(range(1, self.n + 1)):
            raise ValueError(f"blocks must cover 1..{self.n} exactly, got {sorted(union)}")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Build a partition of {1..n} where n is the total element count."""
        blocks = tuple(tuple(b) for b in blocks)
        n = sum(len(b) for b in blocks)
        return cls(n, tuple(frozenset(b) for b in blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def labels(self) -> tuple[int, ...]:
        """0-based block index of each element 1..n."""
        lab = [0] * self.n
        for idx, b in enumerate(self.blocks):
            for i in b:
                lab[i - 1] = idx
        return tuple(lab)


def first_member_labels(labels: Sequence[int]) -> list[int]:
    """The label row renumbered so that classes count up in order of their
    first member, the numbering ``QsiInstance.labels`` uses."""
    order: dict[int, int] = {}
    return [order.setdefault(lab, len(order)) for lab in labels]


def equal_pairs(inst: QsiInstance) -> np.ndarray | None:
    """Mask of the state pairs whose inner product has modulus 1, the diagonal
    included, or None when some modulus is neither 0 nor 1: the promise
    check from the states alone, on one Gram matrix."""
    mod = np.abs(inst.gram())
    np.fill_diagonal(mod, 1.0)
    equal = np.abs(mod - 1.0) <= PROMISE_ATOL
    return equal if (equal | (mod <= PROMISE_ATOL)).all() else None


class Verdict(Enum):
    YES_INSTANCE = "yes"
    NO_INSTANCE = "no"
    VIOLATED = "violated"


def verify_promise(inst: QsiInstance) -> Verdict:
    """Classify the states: all equal, equal-or-orthogonal, or promise-breaking."""
    equal = equal_pairs(inst)
    if equal is None:
        return Verdict.VIOLATED
    return Verdict.YES_INSTANCE if equal.all() else Verdict.NO_INSTANCE


def loop_unstructured_states(n: int, dim: int, seed: int) -> np.ndarray:
    """``random_unstructured_instance`` states drawn one state at a time: a
    real and an imaginary ``standard_normal(dim)`` draw, then the division
    by that vector's norm."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states.append(z / float(np.linalg.norm(z)))
    return np.array(states)


def loop_rotated_states(labels: Sequence[int], rotation: np.ndarray) -> np.ndarray:
    """Rotated ``build_instance`` states one column at a time: the state of
    index i is the column of the rotation at i's block label."""
    return np.array([rotation[:, label] for label in labels])


@dataclass(frozen=True, eq=False)
class JointState:
    """State vector over a list of registers (first register = control)."""

    factor_dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor_dims must be positive integers")
        arr = np.array(self.amps, dtype=complex).reshape(-1)
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


def tensor(states: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given state vectors, in list order."""
    if not len(states):
        raise ValueError("empty tensor")
    return reduce(np.kron, states)


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


def mixture(weighted: Sequence[tuple[float, np.ndarray]]) -> DensityMatrix:
    """Convex mixture sum_i w_i |s_i><s_i|; weights must sum to 1."""
    if not weighted:
        raise ValueError("empty mixture")
    dim = len(weighted[0][1])
    acc = np.zeros((dim, dim), dtype=complex)
    for w, s in weighted:
        if w < 0:
            raise ValueError("mixture weights must be nonnegative")
        acc += w * np.outer(s, np.conj(s))
    return DensityMatrix(acc)


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of the (Hermitian) difference."""
    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    eigs = np.linalg.eigvalsh(r1.entries - r2.entries)
    return float(0.5 * np.abs(eigs).sum())


def _check_enum_cap(n: int, minimum: int) -> None:
    if n < minimum:
        raise ValueError(f"n must be at least {minimum}, got {n}")
    if n > SYM_ENUM_MAX_N:
        raise CapExceededError(
            f"group enumeration is capped at n={SYM_ENUM_MAX_N}, got {n}"
        )


@lru_cache(maxsize=None)
def perm_table(n: int) -> np.ndarray:
    """All of S_n as an (n!, n) int8 array of one-line rows, lexicographic.

    Row 0 is the identity. Read-only; cached because the group sweeps below
    share it.
    """
    _check_enum_cap(n, 1)
    table = np.ones((1, 1), dtype=np.int8)
    for k in range(2, n + 1):
        # S_k rows with first symbol v: v, then an S_(k-1) row with v..k-1 shifted up
        table = np.concatenate(
            [np.column_stack([np.full(len(table), v, np.int8), table + (table >= v)])
             for v in range(1, k + 1)]
        )
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def sign_table(n: int) -> np.ndarray:
    """Signs of perm_table(n) rows (+1/-1), via vectorized inversion parity."""
    table = perm_table(n)
    odd = np.zeros(len(table), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            odd ^= table[:, i] > table[:, j]
    signs = np.where(odd, -1, 1).astype(np.int8)
    signs.setflags(write=False)
    return signs


def stabilizer_count(part: Partition, group: GroupName = "sym") -> int:
    """Exact number of group elements that setwise-stabilize the partition.

    Counts by enumeration over the cached group table, so part.n is capped at
    the enumeration limit.
    """
    if group not in ("sym", "alt"):
        raise ValueError(f"unknown group {group!r}")
    n = part.n
    _check_enum_cap(n, 1 if group == "sym" else 2)
    table = perm_table(n)
    ok = np.ones(len(table), dtype=bool)
    for block in part.blocks:
        cols = np.fromiter((i - 1 for i in sorted(block)), dtype=np.intp)
        member = np.zeros(n + 1, dtype=bool)
        member[list(block)] = True
        ok &= member[table[:, cols]].all(axis=1)
    if group == "alt":
        ok &= sign_table(n) == 1
    return int(ok.sum())


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n} in one-line notation: images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(v) for v in self.images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{len(images)}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[v - 1] for v in other.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))


def sign(p: Permutation) -> int:
    """+1 for even permutations, -1 for odd, via cycle decomposition."""
    seen = [False] * p.n
    result = 1
    for start in range(p.n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p.images[j] - 1
            length += 1
        if length % 2 == 0:
            result = -result
    return result


def enumerate_sym(n: int) -> list[Permutation]:
    """All n! permutations in lexicographic one-line order (identity first)."""
    _check_enum_cap(n, 1)
    return [Permutation(row) for row in _lex_permutations(range(1, n + 1))]


def enumerate_alt(n: int) -> list[Permutation]:
    """The even permutations of enumerate_sym(n), order preserved."""
    _check_enum_cap(n, 2)
    rows = perm_table(n)[sign_table(n) == 1]
    return [Permutation(tuple(int(v) for v in row)) for row in rows]


def cycle_power(n: int, j: int) -> Permutation:
    """The j-th power of the basic cyclic shift i -> i+1 (n -> 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    return Permutation(tuple((i + j) % n + 1 for i in range(n)))


def setwise_stabilizes(p: Permutation, part: Partition) -> bool:
    """True iff p maps every block of the partition into itself."""
    if p.n != part.n:
        raise ValueError("permutation and partition sizes differ")
    return all(p(i) in block for block in part.blocks for i in block)


def control_group(kind: TestKind, n: int) -> list[Permutation]:
    """The permutations applied under control, element 0 always the identity."""
    _check_kind_n(kind, n)
    return [Permutation(tuple(int(v) for v in row)) for row in group_rows(kind, n)]


def symmetric_projector(dim: int, n: int) -> np.ndarray:
    """Dense projector onto the permutation-symmetric subspace of n registers.

    Averages the n! register-permutation operators; the trace equals
    C(dim+n-1, n), the dimension of the symmetric subspace.
    """
    if dim < 1 or n < 1:
        raise ValueError("dim and n must be positive")
    if n > SYM_ENUM_MAX_N:
        raise CapExceededError(f"projector build capped at n={SYM_ENUM_MAX_N}")
    space = dim**n
    if space > PROJECTOR_MAX_DIM:
        raise CapExceededError(
            f"dense projector capped at dim^n={PROJECTOR_MAX_DIM}, got {space}"
        )
    flat = np.arange(space).reshape((dim,) * n)
    proj = np.zeros((space, space), dtype=complex)
    eye = np.arange(space)
    for images in _lex_permutations(range(n)):
        target = flat.transpose(images).ravel()
        proj[target, eye] += 1.0
    return proj / math.factorial(n)


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return complex(np.vdot(a, b))


def loop_promise_error(states: Sequence[np.ndarray], part: Partition) -> str | None:
    """The message of the first pair, in row-major order, whose inner-product
    modulus is off its promised value (1 within a block, 0 across), or None:
    one ``inner`` call per pair."""
    labels = part.labels()
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            mod = abs(inner(states[i], states[j]))
            want = 1.0 if labels[i] == labels[j] else 0.0
            if abs(mod - want) > PROMISE_ATOL:
                return (f"promise violated at pair ({i + 1},{j + 1}): |<i|j>|={mod:.3g}, "
                        f"expected {want:g}")
    return None


def pure_density(state: np.ndarray) -> DensityMatrix:
    """Rank-one density matrix |s><s|."""
    return DensityMatrix(np.outer(state, np.conj(state)))


@dataclass(frozen=True)
class Alignment:
    """Placement of the distinguished index set around the cycle 1..n."""

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        members = frozenset(int(i) for i in self.members)
        if self.n < 1:
            raise ValueError("n must be positive")
        if not members <= set(range(1, self.n + 1)):
            raise ValueError("members must be a subset of 1..n")
        object.__setattr__(self, "members", members)

    @property
    def r(self) -> int:
        return len(self.members)


class RepetitionSet(NamedTuple):
    """Cyclic shifts that map the alignment onto itself."""

    shifts: frozenset[int]
    s: int
    k: int


def repetition_set(a: Alignment) -> RepetitionSet:
    """Shifts preserving the alignment, their count s, and the cycle size n/s."""
    if not 1 <= a.r <= a.n - 1:
        raise ValueError("alignment must be a proper nonempty subset")
    members = a.members
    shifts = frozenset(
        shift
        for shift in range(a.n)
        if {(i - 1 + shift) % a.n + 1 for i in members} == members
    )
    s = len(shifts)
    return RepetitionSet(shifts, s, a.n // s)


def alignment_from_pattern(pattern: Sequence[int], s: int) -> Alignment:
    """Repeat a length-k bit pattern s times around the cycle of n = s*k indices.

    Index j*k + i belongs to the distinguished set iff pattern bit i is set
    (i is 1-based within the pattern).
    """
    if s < 1:
        raise ValueError("repetition count must be positive")
    k = len(pattern)
    if k < 1:
        raise ValueError("pattern must be nonempty")
    n = s * k
    members = frozenset(
        j * k + i for j in range(s) for i in range(1, k + 1) if pattern[i - 1]
    )
    return Alignment(n, members)


def partition_from_alignment(a: Alignment) -> Partition:
    """Two-block partition (members, rest); a single block if one side is empty."""
    rest = frozenset(range(1, a.n + 1)) - a.members
    blocks = tuple(b for b in (a.members, rest) if b)
    return Partition(a.n, blocks)


def instance_from_alignment(
    a: Alignment, dim: int = 2, rotation: np.ndarray | None = None
) -> QsiInstance:
    """Canonical instance whose equal/orthogonal structure follows the alignment."""
    return build_instance(partition_from_alignment(a).labels(), dim, rotation)


def dft(n: int) -> np.ndarray:
    """n x n discrete Fourier transform with entry (j, k) = w^(jk)/sqrt(n).

    Uses w = exp(+2*pi*i/n); the inverse is the conjugate transpose.
    """
    if n < 1:
        raise ValueError("DFT size must be at least 1")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def measure_first_register(s: JointState) -> list[tuple[int, float, JointState]]:
    """Projectively measure the first register in the computational basis.

    Returns (outcome, probability, post_state) triples in increasing outcome
    order; the post state is the renormalized projection of the full joint
    state. Outcomes with probability below MEASURE_EPS are omitted.
    """
    n0 = s.factor_dims[0]
    block = s.amps.reshape(n0, -1)
    probs = (np.abs(block) ** 2).sum(axis=1)
    results = []
    for outcome in range(n0):
        p = float(probs[outcome])
        if p < MEASURE_EPS:
            continue
        post = np.zeros_like(block)
        post[outcome] = block[outcome] / np.sqrt(p)
        results.append((outcome, p, JointState(s.factor_dims, post.reshape(-1))))
    return results


@dataclass(frozen=True)
class DenseCircuitResult:
    """Every control outcome of one dense circuit simulation.

    p_equal is the EQUAL probability, as in ``TestResult``, and post_equal
    the renormalized content registers after that outcome (None if
    unreachable), ``TestResult.equal / sqrt(p_equal)``; outcome_distribution lists (outcome, probability) for every outcome at
    or above MEASURE_EPS.
    """

    p_equal: float
    post_equal: JointState | None
    outcome_distribution: tuple[tuple[int, float], ...]


def dense_run_circuit(kind: TestKind, inst: QsiInstance) -> DenseCircuitResult:
    """The circuit with both Fourier transforms as dense |G| x |G| matrices
    and a full-size post-state for every control outcome."""
    n, d = inst.n, inst.dim
    group = control_group(kind, n)
    size = len(group)
    _circuit_cap(n, d, size)  # the joint state holds all |G| permuted copies

    content = reduce(np.kron, inst.states).reshape((d,) * n)
    joint = np.zeros((size,) + (d,) * n, dtype=complex)
    joint[0] = content

    fourier = dft(size)
    joint = np.tensordot(fourier, joint, axes=(1, 0))
    for i, p in enumerate(group):
        axes = [v - 1 for v in p.images]
        joint[i] = joint[i].transpose(axes).copy()
    joint = np.tensordot(fourier.conj().T, joint, axes=(1, 0))

    measured = measure_first_register(JointState((size,) + (d,) * n, joint.ravel()))
    distribution = tuple((outcome, prob) for outcome, prob, _ in measured)
    p_equal = 0.0
    post_equal = None
    for outcome, prob, post in measured:
        if outcome == 0:
            p_equal = prob
            content_amps = post.amps.reshape(size, -1)[0]
            post_equal = JointState((d,) * n, content_amps)
            break
    return DenseCircuitResult(p_equal, post_equal, distribution)


def group_rows(kind: TestKind, n: int) -> np.ndarray:
    """One-line rows of the control group, identity row first."""
    if kind in (TestKind.SWAP, TestKind.CIRCLE):
        base = np.arange(n)
        return np.stack([(base + k) % n + 1 for k in range(n)]).astype(np.int8)
    if kind is TestKind.PERMUTATION:
        return perm_table(n)
    return perm_table(n)[sign_table(n) == 1]


def group_sum_formula(kind: TestKind, inst: QsiInstance) -> complex:
    """Group average of prod_i G[i, p(i)], summed in chunks of group rows."""
    n = inst.n
    rows = group_rows(kind, n)
    gram = inst.gram()
    cols = np.arange(n)
    total = 0.0 + 0.0j
    for start in range(0, len(rows), _FORMULA_CHUNK):
        idx = rows[start : start + _FORMULA_CHUNK].astype(np.intp) - 1
        total += gram[cols[None, :], idx].prod(axis=1).sum()
    return total / len(rows)


def lex_ps_lower_bound(inst: QsiInstance) -> float:
    """Average over all permutations of the squared Gram-entry products."""
    n = inst.n
    if n > SYM_ENUM_MAX_N:
        raise CapExceededError(f"permutation average capped at n={SYM_ENUM_MAX_N}")
    g2 = [tuple(float(v) for v in row) for row in np.abs(inst.gram()) ** 2]
    total = 0.0
    for images in _lex_permutations(range(n)):
        term = 1.0
        for i, j in enumerate(images):
            term *= g2[i][j]
            if term == 0.0:
                break
        total += term
    return total / math.factorial(n)


def set_partitions(n: int):
    """Every partition of {1..n} as a restricted-growth label tuple."""
    def grow(prefix: tuple[int, ...], top: int):
        if len(prefix) == n:
            yield prefix
            return
        for lab in range(top + 2):
            yield from grow(prefix + (lab,), max(top, lab))
    yield from grow((0,), 0)


def shift_count_rational(labels: tuple[int, ...]) -> Fraction:
    """Share of the n cyclic shifts that leave the label sequence unchanged."""
    n = len(labels)
    fixed = sum(labels[k:] + labels[:k] == labels for k in range(n))
    return Fraction(fixed, n)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Verdict of one sampled protocol run plus its full transcript."""

    verdict: str  # "YES" or "NO"
    rounds_executed: int
    transcript: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), outcome)


def _pair_swap_axes(pair: tuple[int, int], n_regs: int = 3) -> list[int]:
    axes = list(range(n_regs))
    i, j = pair
    axes[i - 1], axes[j - 1] = axes[j - 1], axes[i - 1]
    return axes


def _swap_test_branches(
    state: np.ndarray, d: int, pair: tuple[int, int]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Measurement branches of one controlled-swap test on two registers.

    Appending a fresh control qubit, Hadamard-conjugating the controlled swap
    and measuring the control leaves (state +/- swapped)/2 on the content
    registers; returns (p_equal, renormalized equal branch, renormalized
    not-equal branch), with None-like zero vectors avoided by construction.
    """
    cube = state.reshape((d, d, d))
    swapped = cube.transpose(_pair_swap_axes(pair)).reshape(-1)
    equal_branch = (state + swapped) / 2.0
    other_branch = (state - swapped) / 2.0
    p0 = float(np.vdot(equal_branch, equal_branch).real)
    if p0 > 0.0:
        equal_branch = equal_branch / np.sqrt(p0)
    if p0 < 1.0:
        other_branch = other_branch / np.sqrt(max(1.0 - p0, 0.0))
    return p0, equal_branch, other_branch


def srs_sample(inst: QsiInstance, m: int, rng: np.random.Generator) -> ProtocolOutcome:
    """One sampled run of the m-round sequential swap protocol.

    Tracks the joint pure state of the three content registers (d^3
    amplitudes); every round runs the swap-test circuit on the chosen pair,
    samples the control measurement, collapses, and redraws the next pair
    uniformly from the leftover register plus one of the two just-tested
    registers.
    """
    if m < 1:
        raise ValueError("round count must be at least 1")
    if inst.n != 3:
        raise ValueError(f"protocol is defined on exactly 3 states, got {inst.n}")
    if verify_promise(inst) is Verdict.VIOLATED:
        raise ValueError("instance violates the equal-or-orthogonal promise")
    d = inst.dim
    state = reduce(np.kron, inst.states)
    pair = ((1, 2), (1, 3), (2, 3))[int(rng.integers(3))]
    transcript: list[tuple[tuple[int, int], int]] = []
    for round_no in range(1, m + 1):
        p0, equal_branch, other_branch = _swap_test_branches(state, d, pair)
        outcome = 0 if rng.random() < p0 else 1
        transcript.append((pair, outcome))
        if outcome == 1:
            return ProtocolOutcome("NO", round_no, tuple(transcript))
        state = equal_branch
        if round_no < m:
            leftover = ({1, 2, 3} - set(pair)).pop()
            kept = pair[int(rng.integers(2))]
            pair = (min(leftover, kept), max(leftover, kept))
    return ProtocolOutcome("YES", m, tuple(transcript))


def _exact_swap(state: dict[int, int], b: int, pair: tuple[int, int]) -> dict[int, int]:
    i, j = pair
    out: dict[int, int] = {}
    for idx, amp in state.items():
        digits = [idx // (b * b) % b, idx // b % b, idx % b]
        digits[i - 1], digits[j - 1] = digits[j - 1], digits[i - 1]
        key = digits[0] * b * b + digits[1] * b + digits[2]
        out[key] = out.get(key, 0) + amp
    return out


def _exact_add(s1: dict[int, int], s2: dict[int, int]) -> dict[int, int]:
    out = dict(s1)
    for key, amp in s2.items():
        val = out.get(key, 0) + amp
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    return out


def _exact_norm2(state: dict[int, int]) -> int:
    return sum(amp * amp for amp in state.values())


class SrsRound(NamedTuple):
    pair: tuple[int, int]
    pass_prob: Fraction
    state: dict[int, int]  # unnormalized integer amplitudes, flat index -> coeff


def srs_canonical_trace(
    inst: QsiInstance, m: int, first_pair: tuple[int, int] = (1, 2)
) -> list[SrsRound]:
    """All-EQUAL branch under the keep-the-second-register policy.

    Returns, per round, the tested pair, the conditional pass probability,
    and the unnormalized post-round state with integer coefficients (the
    halving normalization is dropped, which only rescales).

    Raises ValueError, checked in this order, when m < 1, when the instance
    does not have exactly 3 states, and when its states break the promise.
    """
    if m < 1:
        raise ValueError("round count must be at least 1")
    if inst.n != 3:
        raise ValueError(f"protocol is defined on exactly 3 states, got {inst.n}")
    if inst.labels is None:
        raise ValueError("instance violates the equal-or-orthogonal promise")
    labels = inst.labels.tolist()
    b = max(labels) + 1
    state = {labels[0] * b * b + labels[1] * b + labels[2]: 1}
    pair = first_pair
    rounds: list[SrsRound] = []
    for _ in range(m):
        norm2 = _exact_norm2(state)
        state = _exact_add(state, _exact_swap(state, b, pair))
        rounds.append(SrsRound(pair, Fraction(_exact_norm2(state), 4 * norm2), state))
        leftover = ({1, 2, 3} - set(pair)).pop()
        pair = (min(leftover, pair[1]), max(leftover, pair[1]))
    return rounds


def chain_srs_exact(inst: QsiInstance, m: int) -> Fraction:
    """Exact YES probability of the m-round sequential swap protocol, by rounds.

    The mean over the three first pairs of the product of the conditional
    pass probabilities along each ``srs_canonical_trace`` chain, with the
    integer amplitudes of every round built explicitly.
    """
    traces = [srs_canonical_trace(inst, m, pair) for pair in ((1, 2), (1, 3), (2, 3))]
    return sum(math.prod(rnd.pass_prob for rnd in trace) for trace in traces) / 3


def per_trial_srs_batch(
    inst: QsiInstance, m: int, rng: np.random.Generator, k: int
) -> np.ndarray:
    """k runs of the sequential swap protocol with one evolved state per trial.

    Draws from rng in the same order and sizes as ``srs_batch`` (the first
    pairs, then per round the pass draws and the kept-register draws), so
    the two return identical verdicts for identically seeded generators.
    """
    if m < 1:
        raise ValueError("round count must be at least 1")
    if inst.n != 3:
        raise ValueError(f"protocol is defined on exactly 3 states, got {inst.n}")
    if verify_promise(inst) is Verdict.VIOLATED:
        raise ValueError("instance violates the equal-or-orthogonal promise")
    coords = np.linalg.qr(inst.states.T, mode="r")
    r = len(coords)
    cube = np.arange(r**3).reshape(r, r, r)
    pairs = ((1, 2), (1, 3), (2, 3))
    swaps = np.stack([cube.swapaxes(i - 1, j - 1).reshape(-1) for i, j in pairs])
    next_pair = np.array([[1, 2], [0, 2], [0, 1]])
    state = np.broadcast_to(np.einsum("a,b,c->abc", *coords.T).reshape(-1), (k, r**3))
    pair = rng.integers(3, size=k)
    alive = np.ones(k, dtype=bool)
    for round_no in range(1, m + 1):
        equal = (state + np.take_along_axis(state, swaps[pair], axis=1)) / 2
        p0 = (np.abs(equal) ** 2).sum(axis=1)
        alive &= rng.random(k) < p0
        if round_no < m:
            state = equal / np.sqrt(np.where(alive, p0, 1.0))[:, None]
            pair = next_pair[pair, rng.integers(2, size=k)]
    return alive


def permuted_instance(inst: QsiInstance, tau: np.ndarray) -> QsiInstance:
    """Relabel states so position j holds the state formerly at tau[j]."""
    return QsiInstance(inst.states[np.asarray(tau, dtype=np.intp)])


def worst_merge_rcir(inst: QsiInstance) -> Fraction:
    """Largest two-block soundness error over the merges of the blocks into
    two groups: an upper bound on the multi-block value, exact on two blocks."""
    sizes = np.bincount(inst.labels).tolist()
    achievable: set[int] = set()
    for pick in range(1, 1 << len(sizes)):
        r = sum(sz for i, sz in enumerate(sizes) if pick >> i & 1)
        if 1 <= r <= inst.n - 1:
            achievable.add(min(r, inst.n - r))
    return max(rcir_exact([r, inst.n - r]) for r in sorted(achievable))


def arrangement_rcir(sizes: list[int]) -> Fraction:
    """Randomized-circle soundness over every arrangement of the blocks.

    Applies each of the n! relabelings to the blocks laid out in order and
    writes each resulting label sequence as a base-b code (b blocks); every
    distinct arrangement comes from the same number of relabelings, so the
    distinct codes are equally likely. Under the promise the circle test
    passes with certainty on the cyclic shifts that leave the sequence
    unchanged, found by rotating the digits of each code, and fails on the
    rest.
    """
    n, base = sum(sizes), len(sizes)
    labels = np.repeat(np.arange(base, dtype=np.int64), sizes)
    rows = labels[perm_table(n).astype(np.intp) - 1]
    codes = np.unique(rows @ base ** np.arange(n, dtype=np.int64))
    fixed = sum(
        np.count_nonzero(codes // base**s + codes % base**s * base ** (n - s) == codes)
        for s in range(n)
    )
    return Fraction(int(fixed), n * len(codes))


def rcir_sample(inst: QsiInstance, rng: np.random.Generator) -> str:
    """One run of the randomized circle protocol: YES on EQUAL, NO otherwise.

    Applies a uniformly random relabeling, then runs the cyclic-shift test;
    the circuit is simulated up to n = 10 when it fits the amplitude budget,
    otherwise the outcome is an exact Bernoulli draw from the closed-form
    probability.
    """
    if verify_promise(inst) is Verdict.VIOLATED:
        raise ValueError("instance violates the equal-or-orthogonal promise")
    tau = rng.permutation(inst.n)
    permuted = permuted_instance(inst, tau)
    n, d = permuted.n, permuted.dim
    if n <= _RCIR_CIRCUIT_MAX_N and n * d**n <= max_amplitudes():
        p_equal = run_circuit(TestKind.CIRCLE, permuted).p_equal
    else:
        p_equal = equal_prob_formula(TestKind.CIRCLE, permuted)
    return "YES" if rng.random() < p_equal else "NO"


def circle_equal_probs(gram: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """EQUAL probability of the cyclic-shift test after each relabeling.

    Row tau of taus puts the state formerly at tau[i] in position i, so the
    relabeled Gram matrix is G[tau_i, tau_j] and the probability is the mean
    over shifts s of Re prod_i G[tau_i, tau_((i+s) mod n)].
    """
    n = taus.shape[1]
    return sum(gram[taus, np.roll(taus, -s, axis=1)].prod(axis=1).real for s in range(n)) / n


def gram_rcir_batch(inst: QsiInstance, rng: np.random.Generator, k: int) -> np.ndarray:
    """k runs of the randomized circle protocol from Gram products.

    Draws k index permutations, then k uniforms, and accepts each run with
    ``circle_equal_probs`` of its relabeling: the same draws as ``rcir_batch``
    on the instance's labels. Capped at the circle test's n.
    """
    if verify_promise(inst) is Verdict.VIOLATED:
        raise ValueError("instance violates the equal-or-orthogonal promise")
    _check_kind_n(TestKind.CIRCLE, inst.n)
    taus = rng.permuted(np.tile(np.arange(inst.n), (k, 1)), axis=1)
    return rng.random(k) < circle_equal_probs(inst.gram(), taus)
