"""The benchmark's reference values against brute-force definitions.

The references are closed forms; these tests enumerate groups, subsets and
protocol branches directly on small cases. Neither side imports qsilab.
"""

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402


def _sign(p):
    inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
    return -1 if inversions % 2 else 1


def _group(kind, n):
    if kind == "circle":
        return [tuple((i + k) % n for i in range(n)) for k in range(n)]
    perms = list(itertools.permutations(range(n)))
    if kind == "alternation":
        return [p for p in perms if _sign(p) == 1]
    return perms


def _group_average(kind, g):
    group = _group(kind, len(g))
    return sum(np.prod([g[i, p[i]] for i in range(len(g))]) for p in group).real / len(group)


def _random_states(rng, n, d):
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("n", range(2, 7))
def test_arbitrary_states_match_group_average(n):
    rng = np.random.default_rng(n)
    g = ref.gram(_random_states(rng, n, 3))
    for kind in ("circle", "permutation", "alternation"):
        assert ref.ARBITRARY_PROB[kind](g) == pytest.approx(_group_average(kind, g), abs=1e-12)
    if n == 2:
        assert ref.swap_prob(g) == pytest.approx(_group_average("permutation", g), abs=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_promise_rationals_count_stabilizers(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        labels = [int(v) for v in rng.integers(0, rng.integers(1, n + 1), size=n)]
        for kind in ("circle", "permutation", "alternation"):
            group = _group(kind, n)
            fixed = sum(all(labels[p[i]] == labels[i] for i in range(n)) for p in group)
            assert ref.promise_rational(kind, labels) == Fraction(fixed, len(group))
    assert ref.promise_rational("swap", [0, 0]) == 1
    assert ref.promise_rational("swap", [0, 1]) == Fraction(1, 2)


@pytest.mark.parametrize("n", range(2, 13))
def test_rcir_burnside_matches_subset_enumeration(n):
    for r in range(1, n):
        total = 0
        for members in itertools.combinations(range(n), r):
            labels = [int(i in members) for i in range(n)]
            total += Fraction(1, ref.rotation_period(labels))
        assert ref.rcir_exact(n, r) == total / math.comb(n, r)


def _srs_branches(state, pair, rounds, d):
    """Exact YES probability of the uniform-policy protocol, by enumeration."""
    cube = state.reshape(d, d, d)
    axes = [0, 1, 2]
    axes[pair[0]], axes[pair[1]] = axes[pair[1]], axes[pair[0]]
    kept = (state + cube.transpose(axes).reshape(-1)) / 2
    p = float(np.vdot(kept, kept).real)
    if rounds == 1 or p == 0.0:
        return p
    leftover = ({0, 1, 2} - set(pair)).pop()
    kept /= math.sqrt(p)
    return p * sum(_srs_branches(kept, tuple(sorted((leftover, k))), rounds - 1, d)
                   for k in pair) / 2


@pytest.mark.parametrize("labels", [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 2)])
def test_srs_closed_form_matches_branch_enumeration(labels):
    d = 3
    state = np.zeros(d**3)
    state[labels[0] * d * d + labels[1] * d + labels[2]] = 1.0
    for m in range(1, 7):
        brute = sum(_srs_branches(state, pair, m, d) for pair in ((0, 1), (0, 2), (1, 2))) / 3
        assert float(ref.srs_exact(len(set(labels)), m)) == pytest.approx(brute, abs=1e-12)


def test_bounds_hold_and_match_their_definitions():
    for n in range(2, 30):
        for l in range(1, n):
            assert ref.two_block_soundness(n, l) == Fraction(1, math.comb(n, l))
            assert ref.two_block_soundness(n, l) <= Fraction(1, n)
        for r in range(1, n // 2 + 1):
            assert ref.rcir_exact(n, r) <= ref.eq2_bound(n, r)
    assert ref.q_value(12, 6, 3) == Fraction(math.comb(4, 2), math.comb(12, 6)) * Fraction(3, 12)
    assert [ref.q_case(6, s) for s in (6, 3, 2, 1)] == ["s=r", "s=r/2", "s<=r/3", "s<=r/3"]
    assert ref.q_case(5, 2) == "uncovered" and ref.q_case_bound(10, 5, 2) is None


def test_wilson_interval_brackets_the_estimate():
    for successes, trials in ((0, 10), (3, 10), (199, 200), (2000, 2000)):
        lo, hi = ref.wilson_interval(successes, trials)
        assert lo - 1e-12 <= successes / trials <= hi + 1e-12
        assert 0.0 - 1e-12 <= lo < hi <= 1.0 + 1e-12
