"""The four identity tests: swap, cyclic-shift (circle), full-permutation, and
even-permutation (alternation).

Each test is available two ways. `run_circuit` simulates the five-step
procedure densely: prepare control |0> (x) states, Fourier-transform the
control, apply the controlled register permutation, invert the transform, and
measure the control, where outcome 0 means EQUAL. Only that outcome is
simulated: its amplitude is the mean of the register-permuted copies of the
content, accumulated in one d^n array.
`equal_prob_formula` evaluates the same EQUAL probability from the n x n Gram
matrix G, which never touches a dim^n-sized object: perm(G)/n! for the
permutation test, (perm(G) + det(G))/n! for the alternation test, and the
mean of the n shifted-diagonal products of G for the swap and circle tests.
For promise-structured instances `equal_prob_rational` gives the probability
as an exact fraction in closed form from the block structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import factorial, prod
from typing import NamedTuple

import numpy as np

from .instances import Alignment, QsiInstance
from .limits import CIRCLE_FORMULA_MAX_N, SYM_ENUM_MAX_N, CapExceededError, max_amplitudes
from .permgroup import perm_table, sign_table
from .qmath import MEASURE_EPS, JointState

#: Imaginary parts of the Gram-matrix formula above this are a bug.
FORMULA_IMAG_ATOL = 1e-10


class TestKind(Enum):
    __test__ = False  # not a pytest test class, despite the name
    SWAP = "swap"
    CIRCLE = "circle"
    PERMUTATION = "permutation"
    ALTERNATION = "alternation"


@dataclass(frozen=True)
class TestResult:
    """EQUAL branch of one circuit simulation.

    p_equal is the probability of control outcome 0; post_equal holds the
    renormalized content registers after that outcome (None if unreachable).
    """

    p_equal: float
    post_equal: JointState | None


def _check_kind_n(kind: TestKind, n: int) -> None:
    if kind is TestKind.SWAP:
        if n != 2:
            raise ValueError(f"swap test needs exactly 2 states, got {n}")
        return
    if n < 2:
        raise ValueError(f"{kind.value} test needs at least 2 states, got {n}")
    if kind is TestKind.CIRCLE:
        if n > CIRCLE_FORMULA_MAX_N:
            raise CapExceededError(
                f"circle control group capped at n={CIRCLE_FORMULA_MAX_N}, got {n}"
            )
    elif n > SYM_ENUM_MAX_N:
        raise CapExceededError(
            f"{kind.value} group enumeration capped at n={SYM_ENUM_MAX_N}, got {n}"
        )


def _group_rows(kind: TestKind, n: int) -> np.ndarray:
    """One-line images of the control group, one row each, identity first."""
    if kind in (TestKind.SWAP, TestKind.CIRCLE):
        cols = np.arange(n)
        return (cols + cols[:, None]) % n + 1
    rows = perm_table(n)
    if kind is TestKind.ALTERNATION:
        rows = rows[sign_table(n) == 1]
    return rows


def _circuit_cap(n: int, dim: int, group_size: int) -> None:
    total = group_size * dim**n
    budget = max_amplitudes()
    if total > budget:
        raise CapExceededError(
            f"circuit needs {total} amplitudes, budget is {budget} (QSI_MAX_AMPS)"
        )


def run_circuit(kind: TestKind, inst: QsiInstance) -> TestResult:
    """Dense simulation of the identity test's EQUAL branch, on any states.

    The Fourier transform of control |0> gives every control row the content
    over sqrt(|G|), row i permuted by group element i; outcome 0 of the
    inverse transform sums the rows over sqrt(|G|), so its amplitude is the
    mean of the |G| permuted copies. The full circuit's |G| d^n amplitudes
    are checked against the budget before any group element is built.
    """
    n, d = inst.n, inst.dim
    _check_kind_n(kind, n)
    if kind in (TestKind.SWAP, TestKind.CIRCLE):
        size = n
    else:
        size = factorial(n) // (2 if kind is TestKind.ALTERNATION else 1)
    _circuit_cap(n, d, size)

    content = reduce(np.kron, (s.amps for s in inst.states)).reshape((d,) * n)
    equal = np.zeros_like(content)
    # register m receives the state formerly at p(m): coordinate axes
    # permute by the one-line images
    for row in (_group_rows(kind, n) - 1).tolist():
        equal += content.transpose(row)
    equal /= size
    p_equal = float(np.vdot(equal, equal).real)
    if p_equal < MEASURE_EPS:
        return TestResult(0.0, None)
    return TestResult(p_equal, JointState((d,) * n, equal / np.sqrt(p_equal)))


def permanent(a: np.ndarray) -> complex:
    """Permanent of a square matrix by Glynn's formula.

    perm(A) = 2^(1-n) sum_s (prod_k s_k) prod_j (sum_i s_i A[i, j]) over the
    sign vectors s with s_(n-1) = +1, evaluated as one (2^(n-1), n) product.
    """
    n = len(a)
    signs = 1 - 2 * ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n)) & 1)
    return (signs.prod(axis=1) * (signs @ a).prod(axis=1)).sum() / 2 ** (n - 1)


def equal_prob_formula(kind: TestKind, inst: QsiInstance) -> float:
    """EQUAL probability from the Gram matrix G.

    The test accepts with the group average of prod_i G[i, p(i)]. Over the
    symmetric group the sum is perm(G); over the alternating group it is
    (perm(G) + det(G))/2; over the cyclic shifts it is n shifted-diagonal
    products. Accepts arbitrary (including unstructured) instances; each
    group is closed under inverses, so the value is real up to float error.
    """
    n = inst.n
    _check_kind_n(kind, n)
    gram = inst.gram()
    if kind is TestKind.PERMUTATION:
        p = permanent(gram) / factorial(n)
    elif kind is TestKind.ALTERNATION:
        p = (permanent(gram) + np.linalg.det(gram)) / factorial(n)
    else:
        cols = np.arange(n)
        p = gram[cols, (cols + cols[:, None]) % n].prod(axis=1).mean()
    if abs(p.imag) > FORMULA_IMAG_ATOL:
        raise ArithmeticError(f"group average has imaginary part {p.imag:.3g}")
    return float(p.real)


def equal_prob_rational(kind: TestKind, inst: QsiInstance) -> Fraction:
    """Exact EQUAL probability for a promise-structured instance.

    Each group element contributes 1 when it maps every block onto itself
    and 0 otherwise, so the probability is the stabilizer's share of the
    group. In the symmetric group that share is prod(l_i!)/n! over the block
    sizes l_i. A block of two or more puts a transposition in the stabilizer,
    so exactly half of it is even and the alternating group gives the same
    share; with every block a singleton only the identity is left, 2/n!. A
    cyclic shift fixes the block labels exactly when it is a multiple of
    their period, so the swap and circle tests give 1/period.
    """
    if inst.partition is None:
        raise ValueError("exact probability needs a promise-structured instance")
    n = inst.n
    _check_kind_n(kind, n)
    if kind in (TestKind.SWAP, TestKind.CIRCLE):
        labels = inst.partition.labels()
        return Fraction(1, next(k for k in range(1, n + 1) if labels[k:] + labels[:k] == labels))
    sizes = [len(b) for b in inst.partition.blocks]
    if kind is TestKind.ALTERNATION and max(sizes) == 1:
        return Fraction(2, factorial(n))
    return Fraction(prod(factorial(size) for size in sizes), factorial(n))


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
