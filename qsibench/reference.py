"""Reference values for every quantity the benchmark checks.

Nothing here imports qsilab. Each value comes from a closed form or a
textbook formula, so agreement with the program is a second, independent
route to the same answer:

* permutation test on a promise instance: prod(block sizes!) / n!;
* alternation test: the same, except 2/n! when every block is a singleton;
* circle test: 1 / (minimal rotation period of the block labels);
* swap test: 1 for equal states, 1/2 for orthogonal ones;
* arbitrary states: perm(G)/n! and (perm(G) + det(G))/n! from the Gram
  matrix G (Ryser's formula for the permanent);
* randomized circle soundness: the Burnside (necklace) count
  sum_{t | gcd(n, r)} phi(t) C(n/t, r/t) / (n C(n, r));
* sequential random swap: 1 on a YES instance, 1/3 + (1/3)/4^(m-1) on a
  two-block instance and 1/6 + (1/3)/4^(m-1) on the all-orthogonal one;
* two-block soundness l!(n-l)!/n!, q(n, r, s) = C(n/s, r/s)/C(n, r) * s/n,
  and the eq. (2) bound 1/n + sum_s q(n, r, s).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

WILSON_Z = 1.959963984540054  # two-sided 95%


# --- oracle tests ------------------------------------------------------------

def gram(vectors: np.ndarray) -> np.ndarray:
    """G[i, j] = <v_i | v_j> for the rows of `vectors`."""
    return vectors.conj() @ vectors.T


def permanent(a: np.ndarray) -> complex:
    """Ryser's inclusion-exclusion formula, vectorized over all column subsets."""
    n = a.shape[0]
    subsets = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    row_sums = subsets @ a.T  # [S, i] = sum_{j in S} a[i, j]
    signs = (-1) ** (n - subsets.sum(axis=1))
    return complex((signs * row_sums.prod(axis=1)).sum())


def permutation_prob(g: np.ndarray) -> float:
    return (permanent(g) / math.factorial(len(g))).real


def alternation_prob(g: np.ndarray) -> float:
    n = len(g)
    return ((permanent(g) + np.linalg.det(g)) / math.factorial(n)).real


def circle_prob(g: np.ndarray) -> float:
    n = len(g)
    idx = np.arange(n)
    terms = [np.prod(g[idx, (idx + k) % n]) for k in range(n)]
    return (sum(terms) / n).real


def swap_prob(g: np.ndarray) -> float:
    return (1.0 + abs(g[0, 1]) ** 2) / 2.0


ARBITRARY_PROB = {
    "swap": swap_prob,
    "circle": circle_prob,
    "permutation": permutation_prob,
    "alternation": alternation_prob,
}


def rotation_period(labels: Sequence[int]) -> int:
    """Smallest shift k >= 1 with labels[i] == labels[(i + k) % n] for all i."""
    n = len(labels)
    return next(k for k in range(1, n + 1)
                if n % k == 0 and all(labels[i] == labels[(i + k) % n] for i in range(n)))


def promise_rational(kind: str, labels: Sequence[int]) -> Fraction:
    """Exact EQUAL probability of a test on an equal-or-orthogonal instance."""
    n = len(labels)
    if kind == "swap":
        return Fraction(1) if labels[0] == labels[1] else Fraction(1, 2)
    if kind == "circle":
        return Fraction(1, rotation_period(labels))
    sizes = [labels.count(b) for b in set(labels)]
    if kind == "alternation" and all(s == 1 for s in sizes):
        return Fraction(2, math.factorial(n))
    return Fraction(math.prod(math.factorial(s) for s in sizes), math.factorial(n))


# --- protocols ---------------------------------------------------------------

def euler_phi(t: int) -> int:
    return sum(1 for k in range(1, t + 1) if math.gcd(k, t) == 1)


def rcir_exact(n: int, r: int) -> Fraction:
    """Randomized circle soundness on a two-block instance (Burnside count)."""
    g = math.gcd(n, r)
    total = sum(euler_phi(t) * math.comb(n // t, r // t) for t in range(1, g + 1) if g % t == 0)
    return Fraction(total, n * math.comb(n, r))


def srs_exact(block_count: int, m: int) -> Fraction:
    """YES probability of m sequential-random-swap rounds on three states."""
    tail = Fraction(1, 3) / 4 ** (m - 1)
    return {1: Fraction(1), 2: Fraction(1, 3) + tail, 3: Fraction(1, 6) + tail}[block_count]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Textbook 95% Wilson score interval."""
    z2 = WILSON_Z**2
    p = successes / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials**2)) / denom
    return center - half, center + half


# --- bounds ------------------------------------------------------------------

def two_block_soundness(n: int, l: int) -> Fraction:
    return Fraction(math.factorial(l) * math.factorial(n - l), math.factorial(n))


def q_value(n: int, r: int, s: int) -> Fraction:
    return Fraction(math.comb(n // s, r // s), math.comb(n, r)) * Fraction(s, n)


def q_case(r: int, s: int) -> str:
    """Which case of the per-divisor bound covers q(n, r, s)."""
    if s == r:
        return "s=r"
    if 2 * s == r:
        return "s=r/2"
    if 3 * s <= r:
        return "s<=r/3"
    return "uncovered"


def q_case_bound(n: int, r: int, s: int) -> Fraction | None:
    return {
        "s=r": Fraction(2, n * (n - 1)),
        "s=r/2": Fraction(6, (n - 1) * (n - 2) * (n - 3)),
        "s<=r/3": Fraction(1, n * s * s),
    }.get(q_case(r, s))


def eq2_bound(n: int, r: int) -> Fraction:
    return Fraction(1, n) + sum(
        (q_value(n, r, s) for s in range(2, r + 1) if n % s == 0 and r % s == 0),
        Fraction(0),
    )
