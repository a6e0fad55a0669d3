"""Semi-classical identity-testing protocols.

Two protocols are implemented, each as a sampled run with measurement
collapse and as an exact-probability evaluator:

* sequential random swap on three states: m rounds of swap tests on
  classically chosen register pairs, collapsing the joint state between
  rounds;
* randomized circle: one uniformly random relabeling of the states followed
  by a single cyclic-shift test.

Exact evaluators use rational arithmetic end to end; Monte Carlo trials are
independent and seeded per trial, so runs are reproducible and order-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Literal, NamedTuple

import numpy as np

from .identity_tests import TestKind, equal_prob_formula, run_circuit
from .instances import QsiInstance, Verdict, verify_promise
from .limits import CIRCLE_CIRCUIT_MAX_N, RCIR_EXACT_MAX_N, CapExceededError, max_amplitudes
from .permgroup import Partition

Policy = Literal["uniform", "canonical"]

_PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class ProtocolOutcome:
    """Verdict of one sampled protocol run plus its full transcript."""

    verdict: str  # "YES" or "NO"
    rounds_executed: int
    transcript: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), outcome)


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


def _require_three(inst: QsiInstance) -> None:
    if inst.n != 3:
        raise ValueError(f"protocol is defined on exactly 3 states, got {inst.n}")


def _require_promise(inst: QsiInstance) -> None:
    if verify_promise(inst) is Verdict.VIOLATED:
        raise ValueError("instance violates the equal-or-orthogonal promise")


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

    Tracks the joint pure state of the three content registers; every round
    runs the swap-test circuit on the chosen pair, samples the control
    measurement, collapses, and redraws the next pair uniformly from the
    leftover register plus one of the two just-tested registers.
    """
    if m < 1:
        raise ValueError("round count must be at least 1")
    _require_three(inst)
    _require_promise(inst)
    d = inst.dim
    state = reduce(np.kron, (s.amps for s in inst.states))
    pair = _PAIRS[int(rng.integers(3))]
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


def _block_labels_three(inst: QsiInstance) -> tuple[int, ...]:
    """Block labels for the exact evaluators: checks 3 states, partition, promise."""
    _require_three(inst)
    if inst.partition is None:
        raise ValueError("exact evaluation needs the promise partition")
    _require_promise(inst)
    return inst.partition.labels()


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


def srs_exact(inst: QsiInstance, m: int, policy: Policy = "uniform") -> Fraction:
    """Exact YES probability of the m-round sequential swap protocol.

    The protocol answers YES when all m swap tests pass, so the value is the
    mean over the three equally likely first pairs of the product of the
    conditional pass probabilities along the all-EQUAL branch. Passing the
    test on pair (i, j) projects onto states symmetric under i <-> j, so the
    two registers the uniform policy may keep are interchangeable: keeping
    i and keeping j give post-states that are images of each other under
    i <-> j, with the same pass probabilities from then on. Both policies
    therefore follow the keep-the-second-register chain of
    ``srs_canonical_trace`` and give the same value. The promise partition
    fixes the Gram structure, so the canonical basis embedding is used
    regardless of any rotation on the stored states.

    Raises ValueError, checked in this order, when m < 1, when the instance
    does not have exactly 3 states, when it has no promise partition, when
    its states break the equal-or-orthogonal promise, and when the policy is
    unknown. A partition implies the promise, which ``QsiInstance`` enforces,
    so an instance without one reports the missing partition.
    """
    traces = [srs_canonical_trace(inst, m, pair) for pair in _PAIRS]
    if policy not in ("uniform", "canonical"):
        raise ValueError(f"unknown policy {policy!r}")
    return sum(math.prod(rnd.pass_prob for rnd in trace) for trace in traces) / 3


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
    does not have exactly 3 states, when it has no promise partition, and
    when its states break the equal-or-orthogonal promise. A partition
    implies the promise, which ``QsiInstance`` enforces, so an instance
    without one reports the missing partition.
    """
    if m < 1:
        raise ValueError("round count must be at least 1")
    labels = _block_labels_three(inst)
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


def _permuted_instance(inst: QsiInstance, tau: np.ndarray) -> QsiInstance:
    """Relabel states so position j holds the state formerly at tau[j]."""
    states = tuple(inst.states[int(t)] for t in tau)
    partition = None
    if inst.partition is not None:
        old_labels = inst.partition.labels()
        new_labels = [old_labels[int(t)] for t in tau]
        blocks: dict[int, set[int]] = {}
        for pos, lab in enumerate(new_labels, start=1):
            blocks.setdefault(lab, set()).add(pos)
        partition = Partition(
            inst.n, tuple(frozenset(b) for b in blocks.values())
        )
    return QsiInstance(states, partition)


def rcir_sample(inst: QsiInstance, rng: np.random.Generator) -> str:
    """One run of the randomized circle protocol: YES on EQUAL, NO otherwise.

    Applies a uniformly random relabeling, then runs the cyclic-shift test;
    the circuit is simulated when it fits the amplitude budget, otherwise the
    outcome is an exact Bernoulli draw from the closed-form probability.
    """
    if verify_promise(inst) is Verdict.VIOLATED:
        raise ValueError("instance violates the equal-or-orthogonal promise")
    tau = rng.permutation(inst.n)
    permuted = _permuted_instance(inst, tau)
    n, d = permuted.n, permuted.dim
    if n <= CIRCLE_CIRCUIT_MAX_N and n * d**n <= max_amplitudes():
        p_equal = run_circuit(TestKind.CIRCLE, permuted).p_equal
    else:
        p_equal = equal_prob_formula(TestKind.CIRCLE, permuted)
    return "YES" if rng.random() < p_equal else "NO"


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


def rcir_exact(n: int, r: int) -> Fraction:
    """Exact soundness error of the randomized circle protocol on a two-block
    instance with r states in the distinguished block.

    Averages s(A)/n over all r-subsets A of the cycle, where s(A) counts the
    cyclic shifts preserving A. By Burnside's lemma the sum of s(A) counts
    the (shift, subset) pairs with the subset fixed. A shift of order t cuts
    the cycle into n/t orbits of length t and fixes the C(n/t, r/t) subsets
    made of whole orbits when t divides r; phi(t) shifts have order t. So the
    value is sum over t | gcd(n, r) of phi(t) C(n/t, r/t), over n C(n, r).

    Raises ValueError unless 1 <= r <= n - 1, and CapExceededError when n
    exceeds RCIR_EXACT_MAX_N.
    """
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be within 1..n-1, got r={r}, n={n}")
    if n > RCIR_EXACT_MAX_N:
        raise CapExceededError(f"exact randomized circle capped at n={RCIR_EXACT_MAX_N}, got {n}")
    g = math.gcd(n, r)
    fixed = sum(_totient(t) * math.comb(n // t, r // t) for t in range(1, g + 1) if g % t == 0)
    return Fraction(fixed, n * math.comb(n, r))


def rcir_exact_for_instance(inst: QsiInstance) -> Fraction:
    """Worst-case exact soundness over two-block merges of the instance blocks.

    A multi-block promise instance is reduced to the two-block merge that
    maximizes the soundness error; requires a NO instance.
    """
    if inst.partition is None:
        raise ValueError("exact evaluation needs the promise partition")
    sizes = [len(b) for b in inst.partition.blocks]
    if len(sizes) < 2:
        raise ValueError("instance has a single block: it is a YES instance")
    if len(sizes) > 20:
        raise CapExceededError("too many blocks to enumerate two-block merges")
    achievable: set[int] = set()
    for pick in range(1, 1 << len(sizes)):
        r = sum(sz for i, sz in enumerate(sizes) if pick >> i & 1)
        if 1 <= r <= inst.n - 1:
            achievable.add(min(r, inst.n - r))
    return max(rcir_exact(inst.n, r) for r in sorted(achievable))


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
    trial: Callable[[np.random.Generator], bool], trials: int, base_seed: int
) -> McEstimate:
    """Run independent trials; trial i draws from the stream seeded by the
    pair (base_seed, i), so no two (base, trial) pairs share a stream."""
    if trials < 1:
        raise ValueError("trials must be positive")
    successes = 0
    for i in range(trials):
        rng = np.random.default_rng([base_seed, i])
        if trial(rng):
            successes += 1
    return McEstimate(trials, successes, successes / trials, wilson_interval(successes, trials))
