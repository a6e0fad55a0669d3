"""Semi-classical identity-testing protocols.

Two protocols are implemented, each as a batch of sampled runs with
measurement collapse and as an exact-probability evaluator of the promise
block sizes, the only part of an instance the exact value depends on. The
blocks are those the states define: ``promise_labels`` is the instance's
label row (``QsiInstance.labels``, each state compared with one
representative per block), and the sizes are its ``np.bincount``:

* sequential random swap on three states: m rounds of swap tests on
  classically chosen register pairs, collapsing the joint state between
  rounds;
* randomized circle: one uniformly random relabeling of the states followed
  by a single cyclic-shift test.

Exact values are rational closed forms; ``srs_path_sum`` checks sequential
swap's in floating point on the kernel the Monte Carlo samples. Monte Carlo
trials run in blocks of MC_BLOCK, each block drawing from its own stream
seeded by the base seed and the block index, so runs are reproducible from
the seed. Within a block, sequential random swap evolves one state per
path of tested pairs rather than one per trial: row i of its state table
splits into rows 2i and 2i + 1, one per register kept, and each trial holds
the id of its row. Rows no trial holds are dropped only when the table would
outgrow the block.
Randomized circle samples from the states' integer block labels alone: a
relabeled run passes with the share of cyclic shifts that fix its label row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .identity_tests import fixed_shifts
from .instances import QsiInstance
from .limits import RCIR_EXACT_MAX_N, SRS_EXACT_MAX_M, SRS_PATH_MAX_M, CapExceededError

_PAIRS = ((1, 2), (1, 3), (2, 3))

#: Index into _PAIRS of the next pair, by current pair and by which of its
#: two registers is kept alongside the leftover one.
_NEXT_PAIR = np.array([[1, 2], [0, 2], [0, 1]])

#: Trials per Monte Carlo block: one random stream and one batch of arrays.
MC_BLOCK = 4096


@dataclass(frozen=True)
class McEstimate:
    trials: int
    successes: int
    p_hat: float
    ci95: tuple[float, float]


class SrsClosedForm(NamedTuple):
    """Closed-form round-k quantities for the sequential swap protocol."""

    p: Fraction  # conditional pass probability of round k
    a: Fraction  # coefficient parameter of the post-round state
    q: Fraction  # cumulative pass probability through round k


def srs_closed_form(k: int) -> SrsClosedForm:
    """p_k = 1 - 6/(4^k + 8), the state coefficient a_k, and q_k = prod p_j."""
    if k < 1:
        raise ValueError("round index must be at least 1")
    p = 1 - Fraction(6, 4**k + 8)
    if k % 2 == 1:
        a = Fraction(2, 3) * (4 ** ((k - 1) // 2) - 1)
    else:
        a = Fraction(1, 3) * (4 ** (k // 2) - 1)
    q = Fraction(1, 3) + Fraction(2, 3 * 4**k)
    return SrsClosedForm(p, a, q)


def srs_start(inst: QsiInstance) -> tuple[np.ndarray, np.ndarray]:
    """The sequential swap kernel's one-row table of the product state, and
    the 3 x r^3 flat indices that swap each pair of ``_PAIRS``.

    Swap tests commute with U (x) U (x) U, so each state is written in an
    orthonormal basis of the span of the three: the columns of R in the QR
    factorization of the d x 3 state matrix, at most 27 amplitudes whatever
    d is. Raises ValueError when the instance does not have exactly 3
    states, then when its states break the promise."""
    if inst.n != 3:
        raise ValueError(f"protocol is defined on exactly 3 states, got {inst.n}")
    promise_labels(inst)
    coords = np.linalg.qr(inst.states.T, mode="r")
    r = len(coords)
    cube = np.arange(r**3).reshape(r, r, r)
    swaps = np.stack([cube.swapaxes(i - 1, j - 1).reshape(-1) for i, j in _PAIRS])
    return np.einsum("a,b,c->abc", *coords.T).reshape(1, -1), swaps


def srs_round(table: np.ndarray, swap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The EQUAL branch (state + swapped)/2 of a swap test on each table row,
    row i swapped by ``swap[i]`` (a one-row table is broadcast), and its p0."""
    equal = (table + np.take_along_axis(table, swap, axis=1)) / 2
    return equal, (np.abs(equal) ** 2).sum(axis=1)


def srs_children(
    equal: np.ndarray, p0: np.ndarray, pair: np.ndarray, child: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``child`` of the next round's table and their pairs. Child 2i + b
    of row i is row i's EQUAL branch renormalized by its p0, which keeps
    register b of row i's pair alongside the leftover one."""
    parent = child // 2
    return equal[parent] / np.sqrt(p0[parent])[:, None], _NEXT_PAIR[pair[parent], child % 2]


def srs_batch(inst: QsiInstance, m: int, rng: np.random.Generator, k: int) -> np.ndarray:
    """k sampled runs of the m-round sequential swap protocol; True is YES.

    Runs the kernel ``srs_start`` / ``srs_round`` / ``srs_children``. A
    trial's state depends only on the pairs it has tested, so the states
    form a table with one row per pair path, and each trial holds its row's
    id. Each round computes, once per row, the EQUAL branch and its
    probability p0; each trial passes with its row's p0 and then keeps the
    leftover register plus one of the two tested ones, moving from row i to
    row 2i + bit. Round t has 3 * 2^(t-1) paths; once they outnumber the k
    trials, the rows no trial holds are dropped and the rest renumbered in
    order, so no round sees more than max(k, 3) rows. A row's p0 is at least
    1/4 even when all its trials failed: a state symmetric under the last
    pair has swap expectation at least -1/2 on any other pair.
    """
    if m < 1:
        raise ValueError("round count must be at least 1")
    table, swaps = srs_start(inst)
    pair = np.arange(3)
    row = rng.integers(3, size=k)
    alive = np.ones(k, dtype=bool)
    for round_no in range(1, m + 1):
        equal, p0 = srs_round(table, swaps[pair])
        alive &= rng.random(k) < p0[row]
        if round_no < m:
            row = 2 * row + rng.integers(2, size=k)
            child = np.arange(2 * len(pair))
            if len(child) > k:
                held = np.bincount(row, minlength=len(child)) > 0
                row = (np.cumsum(held) - 1)[row]
                child = child[held]
            table, pair = srs_children(equal, p0, pair, child)
    return alive


def srs_path_sum(inst: QsiInstance, m: int) -> np.ndarray:
    """YES probabilities of the t-round sequential swap protocol, t = 1..m:
    the kernel ``srs_batch`` samples, summed over every pair path.

    The 3 * 2^(t-1) pair paths of t rounds are equally likely, and each
    passes with the product of its rounds' p0; a t-round run is the first t
    rounds of an m-round one. The table is ``srs_batch``'s before any row is
    dropped: row i of round t has children 2i and 2i + 1 in round t + 1.
    Raises ValueError when m < 1, CapExceededError when m > SRS_PATH_MAX_M,
    then ValueError where ``srs_batch`` does.
    """
    if m < 1:
        raise ValueError("round count must be at least 1")
    if m > SRS_PATH_MAX_M:
        raise CapExceededError(f"sequential swap path sum capped at m={SRS_PATH_MAX_M}, got m={m}")
    table, swaps = srs_start(inst)
    pair, passed = np.arange(3), 1.0
    values = np.empty(m)
    for t in range(m):
        equal, p0 = srs_round(table, swaps[pair])
        passed = passed * p0
        values[t] = passed.mean()
        if t < m - 1:
            table, pair = srs_children(equal, p0, pair, np.arange(2 * len(pair)))
            passed = np.repeat(passed, 2)
    return values


def srs_exact(sizes: Sequence[int], m: int) -> Fraction:
    """Exact YES probability of the m-round sequential swap protocol on three
    states whose promise blocks have these sizes.

    With b blocks the value is 1 when b = 1, and 1/3 or 1/6 plus
    1/(3 * 4^(m-1)) when b = 2 or 3: the weight of the state's symmetric
    part, which passes every swap test, plus that of its standard S_3 parts,
    1/3 after the first round on average over the first pair. Each later
    round keeps a quarter of the latter, since it tests a new pair, whose
    symmetric line there is at 60 degrees to the last pair's.

    Raises ValueError when m < 1, CapExceededError when m > SRS_EXACT_MAX_M,
    then ValueError unless the sizes are positive and sum to 3.
    """
    if m < 1:
        raise ValueError("round count must be at least 1")
    if m > SRS_EXACT_MAX_M:
        raise CapExceededError(f"exact sequential swap capped at m={SRS_EXACT_MAX_M}, got m={m}")
    if sum(sizes) != 3 or min(sizes) < 1:
        raise ValueError(f"protocol is defined on exactly 3 states, got block sizes {list(sizes)}")
    if len(sizes) == 1:
        return Fraction(1)
    return Fraction(1, 3 * (len(sizes) - 1)) + Fraction(1, 3 * 4 ** (m - 1))


def promise_labels(inst: QsiInstance) -> np.ndarray:
    """The instance's block labels (``QsiInstance.labels``); raises
    ValueError when the states break the promise."""
    if inst.labels is None:
        raise ValueError("instance violates the equal-or-orthogonal promise")
    return inst.labels


def rcir_batch(labels: Sequence[int], rng: np.random.Generator, k: int) -> np.ndarray:
    """k runs of the randomized circle protocol on states with these block
    labels (``promise_labels``); True is YES (EQUAL).

    Each run permutes the label row uniformly. Under the promise the phases
    cancel around every cycle, so the shift test passes with the number of
    cyclic shifts that fix the row, over n: ``fixed_shifts`` with g the gcd
    of the block sizes, whose mean over relabelings is ``rcir_exact`` of the
    sizes. The k rows take k*n bytes while there are at most 256 blocks.
    Raises ValueError when n < 2, CapExceededError when n > RCIR_EXACT_MAX_N."""
    row = np.asarray(labels)
    n = len(row)
    if n < 2:
        raise ValueError(f"randomized circle needs at least 2 states, got {n}")
    if n > RCIR_EXACT_MAX_N:
        raise CapExceededError(f"randomized circle capped at n={RCIR_EXACT_MAX_N}, got {n}")
    rows = np.tile(row.astype(np.min_scalar_type(row.max())), (k, 1))
    rng.permuted(rows, axis=1, out=rows)
    return rng.random(k) < fixed_shifts(rows, math.gcd(*np.bincount(row).tolist())) / n


def _totient(t: int) -> int:
    """Euler's phi by trial division."""
    result, rest, p = t, t, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def _multinomial(sizes: list[int]) -> int:
    return math.prod(map(math.comb, accumulate(sizes), sizes))


def rcir_exact(sizes: Sequence[int]) -> Fraction:
    """Exact YES probability of the randomized circle protocol on states
    whose promise blocks have these sizes: its soundness error when there
    are two blocks or more, and 1 for a single block (a YES instance).

    A uniformly random relabeling places the blocks uniformly over the
    cycle's arrangements, and under the promise the cyclic-shift test passes
    with the share of shifts that fix the arrangement. By Burnside's lemma
    the fixed (shift, arrangement) pairs are counted per shift order t: a
    shift of order t cuts the n-cycle into n/t orbits of length t and fixes
    the multinomial(n/t; sizes/t) arrangements made of whole orbits when t
    divides every size, and phi(t) shifts have order t. So the value is sum
    over t | gcd(sizes) of phi(t) multinomial(n/t; sizes/t), over
    n multinomial(n; sizes). With two blocks, r and n - r, this averages
    s(A)/n over the r-subsets A of the cycle, s(A) the shifts preserving A.

    Raises ValueError unless the sizes are positive and n = sum(sizes) is
    at least 2, then CapExceededError when n exceeds RCIR_EXACT_MAX_N.
    """
    n = sum(sizes)
    if min(sizes, default=0) < 1:
        raise ValueError(f"block sizes must be positive, got {list(sizes)}")
    if n < 2:
        raise ValueError(f"randomized circle needs at least 2 states, got {n}")
    if n > RCIR_EXACT_MAX_N:
        raise CapExceededError(f"exact randomized circle capped at n={RCIR_EXACT_MAX_N}, got {n}")
    g = math.gcd(*sizes)
    fixed = sum(
        _totient(t) * _multinomial([sz // t for sz in sizes]) for t in range(1, g + 1) if g % t == 0
    )
    return Fraction(fixed, n * _multinomial(sizes))


_WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    The endpoints are exact at the edges: the lower bound is 0.0 when
    successes == 0 and the upper bound is 1.0 when successes == trials,
    which ``center -/+ half`` only reaches up to rounding. Every other
    endpoint is the textbook Wilson score bound.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be within 0..trials, got successes={successes}, trials={trials}"
        )
    z2 = _WILSON_Z**2
    p = successes / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = _WILSON_Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials**2)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def mc_run(
    sample: Callable[[np.random.Generator, int], np.ndarray], trials: int, base_seed: int
) -> McEstimate:
    """Run independent trials in blocks of MC_BLOCK.

    ``sample(rng, k)`` returns k bool verdicts. Block b draws from the stream
    seeded by the pair (base_seed, b), so no two (base, block) pairs share a
    stream and the estimate depends only on the base seed and the count.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    successes = 0
    for block, start in enumerate(range(0, trials, MC_BLOCK)):
        rng = np.random.default_rng([base_seed, block])
        successes += int(np.count_nonzero(sample(rng, min(MC_BLOCK, trials - start))))
    return McEstimate(trials, successes, successes / trials, wilson_interval(successes, trials))
