"""Analytic bounds and witness computations for the identity tests.

Everything that can be a rational is computed as an exact Fraction; floats
appear only as reporting views or where the quantity is inherently
transcendental (the pi^2/6 asymptote).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .identity_tests import TestKind, equal_prob_formula, run_circuit
from .instances import QsiInstance
from .limits import RCIR_EXACT_MAX_N, CapExceededError

#: Tolerance of the two-sided gap check on the trace distance and error sum.
GAP_ATOL = 1e-10


def two_block_soundness(n: int, l: int) -> Fraction:
    """Stabilizer ratio l!(n-l)!/n! = 1/C(n, l) for a two-block split, <= 1/n
    as C(n, l) >= n. Raises CapExceededError when n exceeds RCIR_EXACT_MAX_N."""
    if not 1 <= l <= n - 1:
        raise ValueError(f"l must be within 1..n-1, got l={l}, n={n}")
    if n > RCIR_EXACT_MAX_N:
        raise CapExceededError(f"exact two-block ratio capped at n={RCIR_EXACT_MAX_N}, got n={n}")
    return Fraction(1, math.comb(n, l))


def q_value(n: int, r: int, s: int) -> Fraction:
    """Binomial ratio C(n/s, r/s)/C(n, r) * s/n for a divisor s of n and r.

    Raises CapExceededError when n exceeds RCIR_EXACT_MAX_N.
    """
    if r < 1 or r > n // 2:
        raise ValueError(f"r must be within 1..n/2, got r={r}, n={n}")
    if s < 1 or n % s != 0 or r % s != 0:
        raise ValueError(f"s={s} must divide both n={n} and r={r}")
    if n > RCIR_EXACT_MAX_N:
        raise CapExceededError(f"exact q bound capped at n={RCIR_EXACT_MAX_N}, got n={n}")
    return Fraction(math.comb(n // s, r // s), math.comb(n, r)) * Fraction(s, n)


def q_case(n: int, r: int, s: int) -> tuple[str, Fraction]:
    """The case of the per-divisor bound on q(n, r, s) and its bound, guards in
    order. s divides r, so r/s is 1, 2 or at least 3 and one case holds.
    Validate the triple with q_value first, so that no bound divides by zero."""
    if s == r:
        return "s=r", Fraction(2, n * (n - 1))
    if 2 * s == r:
        return "s=r/2", Fraction(6, (n - 1) * (n - 2) * (n - 3))
    return "s<=r/3", Fraction(1, n * s * s)


def eq2_bound(n: int, r: int) -> Fraction:
    """Soundness bound for the randomized circle protocol: 1/n plus the
    per-divisor terms q(n, r, s) over all common divisors s >= 2 of n and r.

    Raises CapExceededError when n exceeds RCIR_EXACT_MAX_N.
    """
    if not 1 <= r <= n // 2:
        raise ValueError(f"r must be within 1..n/2, got r={r}, n={n}")
    if n > RCIR_EXACT_MAX_N:
        raise CapExceededError(f"exact eq2 bound capped at n={RCIR_EXACT_MAX_N}, got n={n}")
    total = Fraction(1, n)
    for s in range(2, r + 1):
        if n % s == 0 and r % s == 0:
            total += q_value(n, r, s)
    return total


def basel_asymptote(n: int) -> float:
    """Leading asymptotic pi^2/(6n) of the randomized circle soundness bound."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return math.pi**2 / (6 * n)


def inverse_square_tail_bracket(s_max: int) -> tuple[float, float]:
    """Rigorous bracket for sum_{s>=2} 1/s^2 = pi^2/6 - 1.

    The partial sum through s_max plus the integral tail bounds
    1/(s_max+1) < tail < 1/s_max gives an interval of width ~1/s_max^2.
    """
    if s_max < 2:
        raise ValueError("need at least the s=2 term")
    partial = math.fsum(1.0 / (s * s) for s in range(2, s_max + 1))
    return (partial + 1.0 / (s_max + 1), partial + 1.0 / s_max)


def ps_lower_bound(inst: QsiInstance) -> float:
    """perm(G)/n!, the overlap of the instance's product state with the
    symmetric subspace. It is the permutation test's EQUAL probability, which
    no identity test goes below, so ``equal_prob_formula`` evaluates it, with
    that test's n range and cap.
    """
    return equal_prob_formula(TestKind.PERMUTATION, inst)


@dataclass(frozen=True)
class GapReport:
    """Distinguishability check for the two-sided-error setting on two states."""

    trace_dist: float
    completeness_error: float
    soundness_error: float
    error_sum: float
    achieves_lower_bound: bool


def _pair_ensemble(pairs: tuple[tuple[np.ndarray, np.ndarray], ...]) -> np.ndarray:
    """Density matrix of the product states a (x) b of the given qubit pairs,
    each with weight 1/2."""
    rho = np.zeros((4, 4), dtype=complex)
    for a, b in pairs:
        ab = np.kron(a, b)
        rho += 0.5 * np.outer(ab, ab.conj())
    return rho


def two_sided_gap_check() -> GapReport:
    """Check that the swap test saturates the trace-distance error bound.

    Mixes the two equal qubit pairs against the two orthogonal hadamard-basis
    pairs: the ensembles sit at trace distance 1/2, forcing completeness plus
    soundness error of at least 1/2 for any test, and the swap test attains
    (0, 1/2) exactly.
    """
    zero, one = np.eye(2, dtype=complex)
    plus, minus = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

    rho_equal = _pair_ensemble(((zero, zero), (one, one)))
    rho_orth = _pair_ensemble(((plus, minus), (minus, plus)))
    dist = float(0.5 * np.abs(np.linalg.eigvalsh(rho_equal - rho_orth)).sum())

    completeness = max(
        1.0 - run_circuit(TestKind.SWAP, QsiInstance([zero, zero])).p_equal,
        1.0 - run_circuit(TestKind.SWAP, QsiInstance([one, one])).p_equal,
    )
    soundness = max(
        run_circuit(TestKind.SWAP, QsiInstance([plus, minus])).p_equal,
        run_circuit(TestKind.SWAP, QsiInstance([minus, plus])).p_equal,
    )
    error_sum = completeness + soundness
    achieves = abs(dist - 0.5) <= GAP_ATOL and abs(error_sum - 0.5) <= GAP_ATOL
    return GapReport(dist, completeness, soundness, error_sum, achieves)
