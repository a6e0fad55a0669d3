"""Enumeration oracles for the identity-test evaluators.

These are the group sweeps and the dense circuit that the closed forms in
`qsilab.identity_tests` and `qsilab.bounds` replace. They sum over every
group element (or build every measurement outcome), so they are slow, but
they share no formula with the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import permutations as _lex_permutations

import numpy as np

from qsilab.identity_tests import TestKind, TestResult, _circuit_cap, control_group
from qsilab.instances import QsiInstance
from qsilab.limits import SYM_ENUM_MAX_N, CapExceededError
from qsilab.permgroup import perm_table, sign_table
from qsilab.qmath import MEASURE_EPS, JointState

_FORMULA_CHUNK = 200_000


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


def dense_run_circuit(kind: TestKind, inst: QsiInstance) -> TestResult:
    """The circuit with both Fourier transforms as dense |G| x |G| matrices
    and a full-size post-state for every control outcome."""
    n, d = inst.n, inst.dim
    group = control_group(kind, n)
    size = len(group)
    _circuit_cap(kind, n, d, size)

    content = reduce(np.kron, (s.amps for s in inst.states)).reshape((d,) * n)
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
    return TestResult(p_equal, post_equal, distribution)


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
