"""The four identity tests: swap, cyclic-shift (circle), full-permutation, and
even-permutation (alternation).

Each test is available two ways. `run_circuit` simulates the five-step
procedure densely: prepare control |0> (x) states, Fourier-transform the
control, apply the controlled register permutation, invert the transform, and
measure the control, where outcome 0 means EQUAL. Only that outcome is
simulated: its amplitude is the mean of the register-permuted copies of the
content. For the cyclic shifts that is n copies. Over the symmetric group the
mean factors over cosets, avg over S_(k+1) = ((1 + sum_(j<=k) (j, k+1))/(k+1))
avg over S_k (the recursive symmetrisation of Barenco et al., SIAM J. Comput.
26 (1997) 1541), so the circuit adds n(n+1)/2 - 1 copies one register at a
time and never lists the group; the alternating group's mean is the
symmetric plus the antisymmetric projection.
`equal_prob_formula` evaluates the same EQUAL probability from the n x n Gram
matrix G, which never touches a dim^n-sized object: perm(G)/n! for the
permutation test, (perm(G) + det(G))/n! for the alternation test, and the
mean of the n shifted-diagonal products of G for the swap and circle tests.
For states that keep the promise `equal_prob_rational` gives the exact
fraction in closed form from the label row they define
(``QsiInstance.labels``): its block sizes, or for swap and circle the cyclic
shifts that fix it (``fixed_shifts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import factorial, gcd, prod

import numpy as np

from .instances import QsiInstance
from .limits import CIRCLE_FORMULA_MAX_N, SYM_ENUM_MAX_N, CapExceededError, max_amplitudes

#: EQUAL probabilities below this count as unreachable and are reported as 0.
MEASURE_EPS = 1e-14
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

    equal holds the content registers' amplitudes on control outcome 0, one
    axis of length d per register, not renormalized. p_equal is its squared
    norm, the probability of that outcome, reported as 0 below MEASURE_EPS;
    otherwise equal / sqrt(p_equal) is the post-measurement state.
    """

    p_equal: float
    equal: np.ndarray


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
                f"circle test capped at n={CIRCLE_FORMULA_MAX_N}, got {n}"
            )
    elif n > SYM_ENUM_MAX_N:
        raise CapExceededError(
            f"permutation and alternation tests capped at n={SYM_ENUM_MAX_N}, got {n}"
        )


def _circuit_cap(n: int, dim: int, copies: int) -> None:
    total = copies * dim**n
    budget = max_amplitudes()
    if total > budget:
        raise CapExceededError(
            f"circuit adds {copies} permuted copies of {dim}^{n} amplitudes, "
            f"{total} in all; budget is {budget} (QSI_MAX_AMPS)"
        )


def _coset_mean(content: np.ndarray, sign: int) -> np.ndarray:
    """Mean of the register-permuted copies over S_n, each weighted by
    sign(p) when sign is -1: the symmetric (+1) or antisymmetric (-1)
    projection, built one coset of S_k in S_(k+1) at a time."""
    add = np.add if sign > 0 else np.subtract
    x = content
    for k in range(1, content.ndim):
        acc = x.copy()
        for j in range(k):
            add(acc, x.swapaxes(j, k), out=acc)
        acc /= k + 1
        x = acc
    return x


def run_circuit(kind: TestKind, inst: QsiInstance) -> TestResult:
    """Dense simulation of the identity test's EQUAL branch, on any states.

    The Fourier transform of control |0> gives every control row the content
    over sqrt(|G|), row i permuted by group element i; outcome 0 of the
    inverse transform sums the rows over sqrt(|G|), so its amplitude is the
    mean of the |G| permuted copies. For swap and circle that is the mean of
    the n cyclic shifts. For the permutation test it is the symmetric
    projection, built by the coset identity avg over S_(k+1) = ((1 +
    sum_(j<=k) (j, k+1))/(k+1)) avg over S_k, and for the alternation test
    the symmetric plus the antisymmetric projection, since (1 + sign(p))/2
    picks out the even permutations. The copies added times d^n are checked
    against the budget before the content is built.
    """
    n, d = inst.n, inst.dim
    _check_kind_n(kind, n)
    if kind in (TestKind.SWAP, TestKind.CIRCLE):
        copies = n
    else:
        copies = (n * (n + 1) // 2 - 1) * (2 if kind is TestKind.ALTERNATION else 1)
    _circuit_cap(n, d, copies)

    content = reduce(np.multiply.outer, inst.states)
    if kind is TestKind.PERMUTATION:
        equal = _coset_mean(content, 1)
    elif kind is TestKind.ALTERNATION:
        equal = _coset_mean(content, 1)
        equal += _coset_mean(content, -1)
    else:
        # in copy s, register m receives the state formerly at m + s (mod n)
        cols = np.arange(n)
        equal = np.zeros_like(content)
        for row in ((cols + cols[:, None]) % n).tolist():
            equal += content.transpose(row)
        equal /= n
    p_equal = float(np.vdot(equal, equal).real)
    return TestResult(p_equal if p_equal >= MEASURE_EPS else 0.0, equal)


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
    group is closed under inverses, so the sum is real up to float error,
    and its real part is divided by the group order.
    """
    n = inst.n
    _check_kind_n(kind, n)
    gram = inst.gram()
    if kind is TestKind.PERMUTATION:
        total, order = permanent(gram), factorial(n)
    elif kind is TestKind.ALTERNATION:
        # twice the alternating sum over twice the alternating group's order
        total, order = permanent(gram) + np.linalg.det(gram), factorial(n)
    else:
        cols = np.arange(n)
        total, order = gram[cols, (cols + cols[:, None]) % n].prod(axis=1).sum(), n
    if abs(total.imag / order) > FORMULA_IMAG_ATOL:
        raise ArithmeticError(f"group average has imaginary part {total.imag / order:.3g}")
    return float(total.real) / order


def fixed_shifts(rows: np.ndarray, g: int) -> np.ndarray:
    """Number of cyclic shifts that fix each row of a (k, n) label array.

    The shifts fixing a row form a cyclic group whose order divides the gcd
    of its block sizes. So for any divisor g of n that the order divides
    (that gcd, or n itself) the count is the largest t | g for which the row
    repeats with period n/t, and 1 when g = 1.
    """
    n = rows.shape[1]
    fixed = np.ones(len(rows), dtype=int)
    for t in range(2, g + 1):
        if g % t == 0:
            s = n // t
            fixed[(rows[:, s:] == rows[:, :-s]).all(axis=1)] = t
    return fixed


def equal_prob_rational(kind: TestKind, inst: QsiInstance) -> Fraction:
    """Exact EQUAL probability for an instance whose states keep the promise.

    Each group element contributes 1 when it maps every block onto itself
    and 0 otherwise, so the probability is the stabilizer's share of the
    group. In the symmetric group that share is prod(l_i!)/n! over the block
    sizes l_i. A block of two or more puts a transposition in the stabilizer,
    so exactly half of it is even and the alternating group gives the same
    share; with every block a singleton only the identity is left, 2/n!. The
    swap and circle tests give the number of cyclic shifts that fix the
    block labels, ``fixed_shifts``, over n. Raises ValueError when the
    states break the promise (``QsiInstance.labels`` is None).
    """
    labels = inst.labels
    if labels is None:
        raise ValueError("exact probability needs a promise-structured instance")
    n = inst.n
    _check_kind_n(kind, n)
    sizes = np.bincount(labels).tolist()
    if kind in (TestKind.SWAP, TestKind.CIRCLE):
        return Fraction(int(fixed_shifts(labels[None], gcd(*sizes))[0]), n)
    if kind is TestKind.ALTERNATION and max(sizes) == 1:
        return Fraction(2, factorial(n))
    return Fraction(prod(factorial(size) for size in sizes), factorial(n))

