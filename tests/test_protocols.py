import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_orthogonal, count_label_rows, two_block, yes_instance
from oracles import (
    Alignment,
    Partition,
    arrangement_rcir,
    chain_srs_exact,
    circle_equal_probs,
    gram_rcir_batch,
    per_trial_srs_batch,
    permuted_instance,
    rcir_sample,
    repetition_set,
    srs_canonical_trace,
    srs_sample,
    worst_merge_rcir,
)
from qsilab.identity_tests import TestKind as Kind, run_circuit
from qsilab.instances import (
    QsiInstance,
    build_instance,
    haar_unitary,
    random_structured_instance,
    random_unstructured_instance,
)
from qsilab.limits import (
    RCIR_EXACT_MAX_N,
    SRS_EXACT_MAX_M,
    SRS_PATH_MAX_M,
    CapExceededError,
)
from qsilab.bounds import eq2_bound
from qsilab import protocols
from qsilab.cli import main as cli_main
from qsilab.protocols import (
    MC_BLOCK,
    mc_run,
    promise_labels,
    rcir_batch,
    rcir_exact,
    srs_batch,
    srs_closed_form,
    srs_exact,
    srs_path_sum,
    srs_round,
    wilson_interval,
)

TWO_IDENT = build_instance(Partition.of([[1, 3], [2]]).labels(), dim=2)
ALL_ORTH = all_orthogonal(3)
YES3 = yes_instance(3)

# exact YES probabilities computed by the branching evaluator and verified
# against the hand-derived closed forms for the first rounds
TWO_IDENT_EXACT = {
    1: Fraction(2, 3),
    2: Fraction(5, 12),
    3: Fraction(17, 48),
    4: Fraction(65, 192),
    5: Fraction(257, 768),
    6: Fraction(1025, 3072),
}
ALL_ORTH_EXACT = {
    1: Fraction(1, 2),
    2: Fraction(1, 4),
    3: Fraction(3, 16),
    4: Fraction(11, 64),
    5: Fraction(43, 256),
    6: Fraction(171, 1024),
}


THREE_STATE_PARTITIONS = (
    [[1, 2, 3]],
    [[1, 2], [3]],
    [[1, 3], [2]],
    [[2, 3], [1]],
    [[1], [2], [3]],
)


def branching_srs(inst, m: int, policy: str) -> Fraction:
    """Oracle: branch over every pair the policy may choose after each round.

    Amplitudes are kept on label tuples (one label per register) with the
    halving dropped; the uniform policy averages over both kept registers,
    the canonical one keeps the second. Costs 3 * 2^(m-1) branches.
    """

    def swapped(state, pair):
        out = {}
        for key, amp in state.items():
            k = list(key)
            k[pair[0] - 1], k[pair[1] - 1] = k[pair[1] - 1], k[pair[0] - 1]
            out[tuple(k)] = out.get(tuple(k), 0) + amp
        return out

    def norm2(state):
        return sum(amp * amp for amp in state.values())

    def recurse(state, pair, rounds):
        merged = dict(state)
        for key, amp in swapped(state, pair).items():
            merged[key] = merged.get(key, 0) + amp
        pass_prob = Fraction(norm2(merged), 4 * norm2(state))
        if pass_prob == 0 or rounds == 1:
            return pass_prob
        leftover = ({1, 2, 3} - set(pair)).pop()
        kept = pair if policy == "uniform" else pair[1:]
        branches = [recurse(merged, tuple(sorted((leftover, k))), rounds - 1) for k in kept]
        return pass_prob * sum(branches, Fraction(0)) / len(branches)

    start = {tuple(promise_labels(inst).tolist()): 1}
    return sum((recurse(start, pair, m) for pair in ((1, 2), (1, 3), (2, 3))), Fraction(0)) / 3


def _sizes(inst) -> list[int]:
    """Promise block sizes of an instance, as the CLI passes them to the exact evaluators."""
    return np.bincount(promise_labels(inst)).tolist()


def _sigma_bound(p_hat: float, p: Fraction, trials: int, k: float = 5.0) -> bool:
    sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
    return abs(p_hat - float(p)) <= k * sigma


class TestSrsClosedForm:
    def test_first_rounds(self):
        assert srs_closed_form(1) == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
        assert srs_closed_form(2) == (Fraction(3, 4), Fraction(1), Fraction(3, 8))
        assert srs_closed_form(3) == (Fraction(11, 12), Fraction(2), Fraction(11, 32))

    def test_cumulative_is_product(self):
        running = Fraction(1)
        for k in range(1, 9):
            cf = srs_closed_form(k)
            running *= cf.p
            assert cf.q == running
            assert cf.q == Fraction(1, 3) + Fraction(2, 3 * 4**k)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            srs_closed_form(0)


class TestSrsExact:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_yes_instance_always_accepts(self, m):
        assert srs_exact(_sizes(YES3), m) == 1

    @pytest.mark.parametrize("m,expected", sorted(TWO_IDENT_EXACT.items()))
    def test_two_identical_values(self, m, expected):
        assert srs_exact(_sizes(TWO_IDENT), m) == expected

    @pytest.mark.parametrize("m,expected", sorted(ALL_ORTH_EXACT.items()))
    def test_all_orthogonal_values(self, m, expected):
        assert srs_exact(_sizes(ALL_ORTH), m) == expected

    def test_all_orthogonal_first_two_rounds_by_hand(self):
        # every pair is orthogonal, so each of the first two rounds passes
        # with probability exactly 1/2 whatever pairs are chosen
        assert srs_exact(_sizes(ALL_ORTH), 1) == Fraction(1, 2)
        assert srs_exact(_sizes(ALL_ORTH), 2) == Fraction(1, 4)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_two_identical_matches_weighted_cumulative(self, m):
        # first pair the identical one (1/3): q_(m-1) after it; otherwise q_m
        q_m = srs_closed_form(m).q
        q_prev = srs_closed_form(m - 1).q if m > 1 else Fraction(1)
        weighted = Fraction(2, 3) * q_m + Fraction(1, 3) * q_prev
        assert chain_srs_exact(TWO_IDENT, m) == weighted
        assert srs_exact(_sizes(TWO_IDENT), m) == weighted

    @pytest.mark.parametrize("m", range(1, 7))
    def test_two_identical_resolved_closed_form(self, m):
        resolved = Fraction(1, 3) + Fraction(1, 3) / 4 ** (m - 1)
        assert chain_srs_exact(TWO_IDENT, m) == resolved
        assert srs_exact(_sizes(TWO_IDENT), m) == chain_srs_exact(TWO_IDENT, m)

    @pytest.mark.parametrize("blocks", THREE_STATE_PARTITIONS)
    def test_matches_chain_oracle(self, blocks):
        # the branching oracle, both policies, is test_matches_uniform_branching_oracle
        inst = build_instance(Partition.of(blocks).labels(), dim=3)
        for m in range(1, 41):
            assert srs_exact(_sizes(inst), m) == chain_srs_exact(inst, m)

    def test_round_cap(self):
        value = srs_exact(_sizes(ALL_ORTH), SRS_EXACT_MAX_M)
        assert value == Fraction(1, 6) + Fraction(1, 3 * 4 ** (SRS_EXACT_MAX_M - 1))
        assert len(str(value.denominator)) <= 4300
        with pytest.raises(CapExceededError, match=f"m={SRS_EXACT_MAX_M}"):
            srs_exact(_sizes(ALL_ORTH), SRS_EXACT_MAX_M + 1)

    def test_checks_rounds_before_the_instance(self):
        with pytest.raises(ValueError, match="round count"):
            srs_exact([2], 0)
        with pytest.raises(CapExceededError):
            srs_exact([2], SRS_EXACT_MAX_M + 1)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_upper_bound(self, m):
        bound = Fraction(1, 3) + Fraction(1, 4 ** (m - 1))
        assert srs_exact(_sizes(TWO_IDENT), m) <= bound
        assert srs_exact(_sizes(ALL_ORTH), m) <= bound

    def test_all_orthogonal_nonincreasing_and_small(self):
        values = [srs_exact(_sizes(ALL_ORTH), m) for m in range(1, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v < Fraction(1, 3) for v in values[1:])

    def test_policy_does_not_matter(self):
        shapes = [
            TWO_IDENT,
            build_instance(Partition.of([[1, 2], [3]]).labels(), dim=2),
            build_instance(Partition.of([[2, 3], [1]]).labels(), dim=2),
            ALL_ORTH,
        ]
        for inst in shapes:
            for m in range(1, 6):
                for policy in ("uniform", "canonical"):
                    assert srs_exact(_sizes(inst), m) == branching_srs(inst, m, policy)

    @pytest.mark.parametrize("blocks", THREE_STATE_PARTITIONS)
    def test_matches_uniform_branching_oracle(self, blocks):
        inst = build_instance(Partition.of(blocks).labels(), dim=3)
        for m in range(1, 9):
            for policy in ("uniform", "canonical"):
                assert srs_exact(_sizes(inst), m) == branching_srs(inst, m, policy)

    def test_two_identical_labelings_agree(self):
        for blocks in ([[1, 2], [3]], [[2, 3], [1]], [[1, 3], [2]]):
            inst = build_instance(Partition.of(blocks).labels(), dim=2)
            assert srs_exact(_sizes(inst), 3) == TWO_IDENT_EXACT[3]

    def test_rotation_invariance(self):
        rotated = build_instance(
            Partition.of([[1, 3], [2]]).labels(), dim=2, rotation=haar_unitary(2, 12)
        )
        assert srs_exact(_sizes(rotated), 4) == TWO_IDENT_EXACT[4]

    def test_requires_three_states_and_promise(self):
        with pytest.raises(ValueError, match="3 states"):
            srs_exact(_sizes(yes_instance(2)), 1)
        with pytest.raises(ValueError, match="3 states"):
            srs_exact([2, 0, 1], 1)
        with pytest.raises(ValueError, match="promise"):
            promise_labels(random_unstructured_instance(3, 2, seed=4))

    def test_unknown_policy(self, tmp_path, capsys):
        path = tmp_path / "two_ident.json"
        path.write_text('{"n": 3, "dim": 2, "partition": [[1, 3], [2]]}')
        with pytest.raises(SystemExit) as bad:
            cli_main(["protocol", "srs", "--instance", str(path), "--exact",
                      "--policy", "bogus"])
        assert bad.value.code == 2
        assert "--policy" in capsys.readouterr().err


class TestSrsCanonicalTrace:
    def test_pass_probs_match_closed_form(self):
        trace = srs_canonical_trace(TWO_IDENT, 6)
        for k, rnd in enumerate(trace, start=1):
            assert rnd.pass_prob == srs_closed_form(k).p

    def test_states_match_coefficient_patterns(self):
        # registers holding the lone orthogonal state: flat index 4/2/1
        reg_index = {1: 4, 2: 2, 3: 1}
        trace = srs_canonical_trace(TWO_IDENT, 6)
        for k, rnd in enumerate(trace, start=1):
            a = int(srs_closed_form(k).a)
            coeffs = {reg: rnd.state.get(reg_index[reg], 0) for reg in (1, 2, 3)}
            leftover = ({1, 2, 3} - set(rnd.pair)).pop()
            pair_vals = {coeffs[rnd.pair[0]], coeffs[rnd.pair[1]]}
            assert len(pair_vals) == 1
            if k % 2 == 1:
                assert pair_vals == {a + 1} and coeffs[leftover] == a
            else:
                assert pair_vals == {a} and coeffs[leftover] == a + 1

    def test_pair_sequence_keeps_second(self):
        trace = srs_canonical_trace(TWO_IDENT, 5, first_pair=(1, 2))
        assert [r.pair for r in trace] == [(1, 2), (2, 3), (1, 3), (2, 3), (1, 3)]

    def test_requires_promise(self):
        with pytest.raises(ValueError, match="promise"):
            srs_canonical_trace(random_unstructured_instance(3, 2, seed=4), 1)


class TestSrsPathSum:
    @pytest.mark.parametrize(
        "blocks,dim",
        [(b, d) for d in (2, 3, 5) for b in THREE_STATE_PARTITIONS if len(b) <= d],
    )
    @pytest.mark.parametrize("rotate", [False, True], ids=["plain", "rotated"])
    def test_matches_exact(self, blocks, dim, rotate):
        rotation = haar_unitary(dim, seed=90 + dim) if rotate else None
        inst = build_instance(Partition.of(blocks).labels(), dim, rotation)
        values = srs_path_sum(inst, SRS_PATH_MAX_M)
        assert values.shape == (SRS_PATH_MAX_M,)
        for m, value in enumerate(values, start=1):
            assert abs(value - float(srs_exact(_sizes(inst), m))) <= 1e-12, (blocks, dim, m)

    @pytest.mark.parametrize("blocks", THREE_STATE_PARTITIONS)
    def test_prefixes_are_shorter_runs(self, blocks):
        inst = build_instance(Partition.of(blocks).labels(), 3, haar_unitary(3, seed=91))
        values = srs_path_sum(inst, 12)
        for t in range(1, 13):
            assert values[t - 1] == srs_path_sum(inst, t)[-1]

    def test_input_validation(self):
        with pytest.raises(ValueError, match="round count"):
            srs_path_sum(YES3, 0)
        with pytest.raises(ValueError, match="3 states"):
            srs_path_sum(yes_instance(2), 1)
        with pytest.raises(ValueError, match="promise"):
            srs_path_sum(random_unstructured_instance(3, 2, seed=5), 1)
        with pytest.raises(CapExceededError, match=f"m={SRS_PATH_MAX_M}"):
            srs_path_sum(YES3, SRS_PATH_MAX_M + 1)


class TestSrsSample:
    def test_yes_instance_always_yes(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            outcome = srs_sample(YES3, 4, rng)
            assert outcome.verdict == "YES"
            assert outcome.rounds_executed == 4
            assert all(o == 0 for _, o in outcome.transcript)

    def test_no_verdict_ends_with_not_equal(self):
        rng = np.random.default_rng(1)
        seen_no = False
        for _ in range(50):
            outcome = srs_sample(ALL_ORTH, 3, rng)
            assert outcome.rounds_executed <= 3
            if outcome.verdict == "NO":
                seen_no = True
                assert outcome.transcript[-1][1] == 1
                assert outcome.rounds_executed == len(outcome.transcript)
        assert seen_no

    def test_transcript_is_stable_for_seed(self):
        outcome = srs_sample(TWO_IDENT, 4, np.random.default_rng(1234))
        again = srs_sample(TWO_IDENT, 4, np.random.default_rng(1234))
        assert outcome == again

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="3 states"):
            srs_sample(yes_instance(2), 1, rng)
        with pytest.raises(ValueError, match="promise"):
            srs_sample(random_unstructured_instance(3, 2, seed=5), 1, rng)
        with pytest.raises(ValueError):
            srs_sample(YES3, 0, rng)

    @pytest.mark.parametrize("shape", ["two_ident_13", "two_ident_12", "two_ident_23", "all_orth"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_monte_carlo_matches_exact(self, shape, m):
        inst = {
            "two_ident_13": TWO_IDENT,
            "two_ident_12": build_instance(Partition.of([[1, 2], [3]]).labels(), dim=2),
            "two_ident_23": build_instance(Partition.of([[2, 3], [1]]).labels(), dim=2),
            "all_orth": ALL_ORTH,
        }[shape]
        trials = 12_000
        expected = srs_exact(_sizes(inst), m)
        shape_idx = ["two_ident_13", "two_ident_12", "two_ident_23", "all_orth"].index(shape)
        est = mc_run(
            lambda rng, k: srs_batch(inst, m, rng, k),
            trials,
            base_seed=10_000 + 17 * shape_idx + m,
        )
        assert _sigma_bound(est.p_hat, expected, trials)


class TestRcirSample:
    def test_yes_always(self):
        rng = np.random.default_rng(3)
        assert rcir_batch(promise_labels(yes_instance(4)), rng, 20).all()

    def test_three_states_rejects_two_thirds(self):
        trials = 20_000
        labels = promise_labels(TWO_IDENT)
        est = mc_run(lambda rng, k: ~rcir_batch(labels, rng, k), trials, base_seed=77)
        assert _sigma_bound(est.p_hat, Fraction(2, 3), trials)

    def test_alternating_four_matches_exact(self):
        inst = build_instance(Partition.of([[1, 3], [2, 4]]).labels(), dim=2)
        trials = 20_000
        labels = promise_labels(inst)
        est = mc_run(lambda rng, k: rcir_batch(labels, rng, k), trials, base_seed=99)
        assert _sigma_bound(est.p_hat, rcir_exact([2, 2]), trials)

    def test_promise_checked(self):
        with pytest.raises(ValueError, match="promise"):
            promise_labels(random_unstructured_instance(3, 2, seed=6))


def _two_sample_bound(a, b, k: float = 5.0) -> bool:
    """Two estimates of one proportion agree within k pooled standard errors."""
    pooled = (a.successes + b.successes) / (a.trials + b.trials)
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / a.trials + 1 / b.trials))
    return abs(a.p_hat - b.p_hat) <= k * sigma


def _per_trial(run_one):
    """mc_run sampler that calls a one-trial oracle k times."""
    return lambda rng, k: np.array([run_one(rng) for _ in range(k)], dtype=bool)


class TestSrsBatch:
    @pytest.mark.parametrize(
        "blocks,dim",
        [(b, d) for d in (2, 3, 5) for b in THREE_STATE_PARTITIONS if len(b) <= d],
    )
    def test_rotated_matches_exact(self, blocks, dim):
        inst = build_instance(Partition.of(blocks).labels(), dim, haar_unitary(dim, seed=40 + dim))
        trials = 20_000
        for m in (1, 3, 6):
            expected = srs_exact(_sizes(inst), m)
            est = mc_run(lambda rng, k: srs_batch(inst, m, rng, k), trials, base_seed=500 + m)
            assert _sigma_bound(est.p_hat, expected, trials)

    @pytest.mark.parametrize("inst", [TWO_IDENT, ALL_ORTH], ids=["two_ident", "all_orth"])
    def test_matches_per_trial_oracle(self, inst):
        m, trials = 3, 3000
        batched = mc_run(lambda rng, k: srs_batch(inst, m, rng, k), trials, base_seed=61)
        oracle = mc_run(
            _per_trial(lambda rng: srs_sample(inst, m, rng).verdict == "YES"), trials, base_seed=62
        )
        assert _two_sample_bound(batched, oracle)

    def test_unstructured_promise_states_match_oracle(self):
        # equal-up-to-phase states: the promise holds though no file gave the blocks
        rot = haar_unitary(4, seed=3)
        states = [rot[:, 0], 1j * rot[:, 0], rot[:, 2]]
        inst = QsiInstance(states)
        m, trials = 2, 3000
        batched = mc_run(lambda rng, k: srs_batch(inst, m, rng, k), trials, base_seed=63)
        oracle = mc_run(
            _per_trial(lambda rng: srs_sample(inst, m, rng).verdict == "YES"), trials, base_seed=64
        )
        assert _two_sample_bound(batched, oracle)

    @pytest.mark.parametrize(
        "blocks,dim",
        [(b, d) for d in (2, 3, 5) for b in THREE_STATE_PARTITIONS if len(b) <= d],
    )
    def test_verdicts_equal_per_trial_state_oracle(self, blocks, dim):
        # one state per pair path must give exactly the verdicts of one state per trial
        inst = build_instance(Partition.of(blocks).labels(), dim, haar_unitary(dim, seed=80 + dim))
        cases = [(m, k) for m in range(1, 13) for k in (1, 7, MC_BLOCK)]
        for m, k in cases + [(16, MC_BLOCK), (20, MC_BLOCK)]:
            seed = [dim, len(blocks), m, k]
            got = srs_batch(inst, m, np.random.default_rng(seed), k)
            want = per_trial_srs_batch(inst, m, np.random.default_rng(seed), k)
            assert got.shape == (k,) and got.dtype == bool
            assert np.array_equal(got, want), (blocks, dim, m, k)

    @pytest.mark.parametrize("blocks", [[[1, 3], [2]], [[1], [2], [3]]], ids=["two", "three"])
    def test_verdicts_equal_oracle_where_rows_are_dropped(self, blocks):
        # k at, below and above the path counts 3 * 2^(t-1): rounds that keep every
        # path and rounds that drop the ones no trial holds must both match
        inst = build_instance(Partition.of(blocks).labels(), 3, haar_unitary(3, seed=84))
        for m in range(1, 13):
            for k in (2, 3, 5, 6, 12, 24, 47, 48, 96, 384):
                seed = [len(blocks), m, k]
                got = srs_batch(inst, m, np.random.default_rng(seed), k)
                want = per_trial_srs_batch(inst, m, np.random.default_rng(seed), k)
                assert np.array_equal(got, want), (blocks, m, k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(THREE_STATE_PARTITIONS),
        st.integers(2, 4),
        st.integers(1, 10),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_verdicts_equal_oracle_property(self, blocks, dim, m, k, seed):
        assume(len(blocks) <= dim)
        inst = build_instance(Partition.of(blocks).labels(), dim, haar_unitary(dim, seed=seed))
        got = srs_batch(inst, m, np.random.default_rng(seed), k)
        want = per_trial_srs_batch(inst, m, np.random.default_rng(seed), k)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 7, 100, MC_BLOCK])
    def test_rows_per_round_within_paths_and_block(self, monkeypatch, k):
        # every path has a row while the paths fit the block, and no round sees more
        # than max(k, 3) rows once they do not
        rows = []

        def spy(table, swap):
            equal, p0 = srs_round(table, swap)
            rows.append(len(p0))
            return equal, p0

        monkeypatch.setattr(protocols, "srs_round", spy)
        inst = build_instance(Partition.of([[1], [2], [3]]).labels(), 3, haar_unitary(3, seed=85))
        for m in range(1, 17):
            rows.clear()
            srs_batch(inst, m, np.random.default_rng([m, k]), k)
            assert len(rows) == m
            for t, seen in enumerate(rows, start=1):
                paths = 3 * 2 ** (t - 1)
                assert seen <= min(paths, max(k, 3)), (k, m, t, seen)
                if paths <= k:
                    assert seen == paths, (k, m, t, seen)

    def test_only_trial_dies_early(self):
        # a trial that fails in round 1 stays NO through the later rounds
        inst = build_instance(Partition.of([[1], [2], [3]]).labels(), 3, haar_unitary(3, seed=83))
        seed = next(s for s in range(100) if not srs_batch(inst, 1, np.random.default_rng(s), 1)[0])
        got = srs_batch(inst, 20, np.random.default_rng(seed), 1)
        want = per_trial_srs_batch(inst, 20, np.random.default_rng(seed), 1)
        assert not got[0] and np.array_equal(got, want)

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="3 states"):
            srs_batch(yes_instance(2), 1, rng, 4)
        with pytest.raises(ValueError, match="promise"):
            srs_batch(random_unstructured_instance(3, 2, seed=5), 1, rng, 4)
        with pytest.raises(ValueError, match="round count"):
            srs_batch(YES3, 0, rng, 4)


class TestRcirBatch:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_circle_probs_match_circuit(self, n):
        rng = np.random.default_rng(n)
        instances = [
            two_block(n, max(1, n // 3), dim=3, rotation=haar_unitary(3, seed=n)),
            random_unstructured_instance(n, 2, seed=n),
        ]
        for inst in instances:
            taus = rng.permuted(np.tile(np.arange(n), (6, 1)), axis=1)
            probs = circle_equal_probs(inst.gram(), taus)
            for tau, p in zip(taus, probs):
                want = run_circuit(Kind.CIRCLE, permuted_instance(inst, tau)).p_equal
                assert abs(p - want) <= 1e-12

    @pytest.mark.parametrize("n,r", [(3, 1), (6, 2), (9, 3)])
    def test_matches_per_trial_oracle(self, n, r):
        inst = two_block(n, r)
        trials = 3000
        labels = promise_labels(inst)
        batched = mc_run(lambda rng, k: rcir_batch(labels, rng, k), trials, base_seed=71)
        oracle = mc_run(
            _per_trial(lambda rng: rcir_sample(inst, rng) == "YES"), trials, base_seed=72
        )
        assert _two_sample_bound(batched, oracle)

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="promise"):
            rcir_batch(promise_labels(random_unstructured_instance(3, 2, seed=6)), rng, 4)
        with pytest.raises(ValueError, match="at least 2"):
            rcir_batch(promise_labels(yes_instance(1)), rng, 4)
        with pytest.raises(CapExceededError, match=f"capped at n={RCIR_EXACT_MAX_N}"):
            rcir_batch((0,) * RCIR_EXACT_MAX_N + (1,), rng, 4)

    @pytest.mark.parametrize("n", range(2, 25))
    def test_verdicts_equal_gram_oracle(self, n):
        # label rows must give exactly the verdicts of the Gram products on the same draws
        cases = [
            two_block(n, max(1, n // 2), dim=3, rotation=haar_unitary(3, seed=n)),
            random_structured_instance(n, seed=n, rotate=True, max_blocks=4),
            _phased_states(random_structured_instance(n, seed=100 + n, max_blocks=3), seed=n),
        ]
        for idx, inst in enumerate(cases):
            for k in (1, 7, MC_BLOCK):
                seed = [n, idx, k]
                got = rcir_batch(promise_labels(inst), np.random.default_rng(seed), k)
                want = gram_rcir_batch(inst, np.random.default_rng(seed), k)
                assert got.shape == (k,) and got.dtype == bool
                assert np.array_equal(got, want), (n, idx, k)

    @pytest.mark.parametrize("sizes", [(6, 6), (4, 4, 4), (2, 2, 2, 2), (8, 8, 8)])
    def test_equal_blocks_match_gram_oracle(self, sizes):
        # equal block sizes make the gcd g > 1, so rows are compared at every divisor of g
        n = sum(sizes)
        order = np.random.default_rng(n).permutation(n) + 1
        blocks = np.split(order, np.cumsum(sizes)[:-1])
        part = Partition.of([b.tolist() for b in blocks])
        dim = len(sizes) + 1
        rotated = build_instance(part.labels(), dim, haar_unitary(dim, seed=len(sizes)))
        for idx, inst in enumerate([rotated, _phased_states(rotated, seed=n)]):
            for k in (1, 7, MC_BLOCK):
                seed = [n, len(sizes), idx, k]
                got = rcir_batch(promise_labels(inst), np.random.default_rng(seed), k)
                want = gram_rcir_batch(inst, np.random.default_rng(seed), k)
                assert np.array_equal(got, want), (sizes, idx, k)

    def test_equal_blocks_match_exact(self):
        part = Partition.of([[1, 4, 7, 10], [2, 5, 8, 11], [3, 6, 9, 12]])
        inst = build_instance(part.labels(), dim=3)
        labels, trials = promise_labels(inst), 20_000
        est = mc_run(lambda rng, k: rcir_batch(labels, rng, k), trials, base_seed=73)
        assert _sigma_bound(est.p_hat, rcir_exact(_sizes(inst)), trials)


class TestPromiseLabels:
    def test_partition_labels(self, monkeypatch):
        # a partition file's labels come from its states: classes numbered by first member
        inst = build_instance(Partition.of([[2, 4], [1, 3]]).labels(), dim=2)
        calls = count_label_rows(monkeypatch)
        assert promise_labels(inst).tolist() == [0, 1, 0, 1]
        assert promise_labels(inst) is promise_labels(inst)
        assert calls == [4]

    def test_labels_computed_once(self, monkeypatch):
        # one label row per instance, however often the labels are read
        part = Partition.of([[1, 3], [2]])
        rotated = build_instance(part.labels(), dim=3, rotation=haar_unitary(3, seed=4))
        states_only = QsiInstance(rotated.states)
        plus = np.array([1, 1, 0]) / np.sqrt(2)
        broken = QsiInstance([*rotated.states[:2], plus])
        calls = count_label_rows(monkeypatch)
        for _ in range(3):
            assert promise_labels(states_only).tolist() == [0, 1, 0]
        assert calls == [3]
        for _ in range(2):
            with pytest.raises(ValueError, match="violates the equal-or-orthogonal promise"):
                promise_labels(broken)
        assert calls == [3, 3]
        # sampling reads the labels in every block, and computes them once in all
        for seed in range(3):
            srs_batch(rotated, 4, np.random.default_rng(seed), 64)
        assert calls == [3, 3, 3]

    def test_states_only_classes_numbered_by_first_member(self):
        rot = haar_unitary(3, seed=9)
        states = [rot[:, 2], 1j * rot[:, 0], -rot[:, 2], rot[:, 1], np.exp(0.3j) * rot[:, 0]]
        inst = QsiInstance(states)
        assert promise_labels(inst).tolist() == [0, 1, 0, 2, 1]


def _phased_states(inst: QsiInstance, seed: int) -> QsiInstance:
    """The same states, each times a random phase."""
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(inst.n))
    return QsiInstance(phases[:, None] * inst.states)


def brute_rcir(n: int, r: int) -> Fraction:
    """Alignment-by-alignment oracle using explicit shift checks."""
    total = sum(repetition_set(Alignment(n, frozenset(c))).s
                for c in combinations(range(1, n + 1), r))
    return Fraction(total, math.comb(n, r) * n)


def burnside_rcir(n: int, r: int) -> Fraction:
    """Independent count via the orbit-counting identity on fixed subsets."""
    total = 0
    for shift in range(n):
        g = math.gcd(n, shift)
        if (r * g) % n == 0:
            total += math.comb(g, r * g // n)
    return Fraction(total, math.comb(n, r) * n)


def mask_table_rcir(n: int) -> list[Fraction]:
    """Oracle indexed by r: sweep all 2^n subsets of the n-cycle as bitmasks.

    Each mask's minimal rotation period is found among the proper divisors
    of n, and its n // period preserving shifts are summed per subset size.
    """
    masks = np.arange(1 << n, dtype=np.uint32)
    full = np.uint32((1 << n) - 1)
    period = np.full(masks.shape, n, dtype=np.int64)
    for d in (d for d in range(1, n) if n % d == 0):
        rotated = ((masks << np.uint32(d)) | (masks >> np.uint32(n - d))) & full
        period = np.minimum(period, np.where(rotated == masks, d, n))
    sizes = np.bitwise_count(masks)
    shifts = np.bincount(sizes, weights=n // period, minlength=n + 1)
    # the sums stay far below 2**53, so the float64 bins are exact
    return [Fraction(int(shifts[r]), math.comb(n, r) * n) for r in range(n + 1)]


class TestRcirExact:
    def test_examples(self):
        assert rcir_exact([2, 2]) == Fraction(1, 3)
        assert all(rcir_exact([r, 7 - r]) == Fraction(1, 7) for r in range(1, 7))
        assert rcir_exact([6, 6]) == Fraction(20, 231)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_subset_oracle(self, n):
        for r in range(1, n):
            assert rcir_exact([r, n - r]) == brute_rcir(n, r)

    def test_matches_orbit_count_identity(self):
        for n in (14, 16, 18, 20, 24):
            for r in range(1, n // 2 + 1):
                assert rcir_exact([r, n - r]) == burnside_rcir(n, r)

    @pytest.mark.parametrize("n", range(13, 21))
    def test_matches_mask_table_oracle(self, n):
        table = mask_table_rcir(n)
        for r in range(1, n):
            assert rcir_exact([r, n - r]) == table[r]

    def test_complement_symmetry(self):
        for n in (4, 6, 9, 12, 15):
            for r in range(1, n):
                assert rcir_exact([r, n - r]) == rcir_exact([n - r, r])

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_prime_is_exactly_one_over_n(self, n):
        assert all(rcir_exact([r, n - r]) == Fraction(1, n) for r in range(1, n))

    def test_bounded_by_divisor_sum(self):
        for n in range(2, 13):
            for r in range(1, n // 2 + 1):
                assert rcir_exact([r, n - r]) <= eq2_bound(n, r)

    def test_large_n_beyond_mask_table(self):
        # n=26 is beyond a practical 2^n bitmask table, so the orbit count checks it
        assert rcir_exact([2, 24]) == burnside_rcir(26, 2)

    def test_forty_matches_orbit_count(self):
        assert rcir_exact([20, 20]) == burnside_rcir(40, 20)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            rcir_exact([0, 5])
        with pytest.raises(ValueError, match="positive"):
            rcir_exact([5, 0])
        with pytest.raises(ValueError, match="at least 2"):
            rcir_exact([1])
        with pytest.raises(CapExceededError):
            rcir_exact([1, RCIR_EXACT_MAX_N])


def _size_tuples(n: int):
    """Block sizes of every partition of n into at least two blocks, descending."""
    def parts(rest: int, top: int):
        if rest == 0:
            yield ()
            return
        for head in range(min(rest, top), 0, -1):
            for tail in parts(rest - head, head):
                yield (head,) + tail
    return [list(p) for p in parts(n, n) if len(p) >= 2]


def _consecutive_blocks(sizes) -> Partition:
    ends = np.cumsum(sizes)
    return Partition.of([list(range(end - sz + 1, end + 1)) for sz, end in zip(sizes, ends)])


class TestRcirExactForInstance:
    def test_two_block_instance(self):
        inst = build_instance(Partition.of([[1, 3], [2, 4]]).labels(), dim=2)
        assert rcir_exact(_sizes(inst)) == rcir_exact([2, 2])

    def test_multi_block_is_exact_below_worst_merge(self):
        # the worst two-block merge, max(rcir_exact([2, 4]), rcir_exact([3, 3])) = 1/5,
        # only bounds the three-block value
        inst = build_instance(Partition.of([[1, 2], [3, 4], [5, 6]]).labels(), dim=3)
        assert worst_merge_rcir(inst) == max(rcir_exact([2, 4]), rcir_exact([3, 3])) == Fraction(1, 5)
        assert rcir_exact(_sizes(inst)) == Fraction(8, 45)

    @pytest.mark.parametrize(
        "blocks,expected",
        [([[1, 2], [3], [4]], Fraction(1, 4)), ([[1, 2, 3, 4], [5, 6], [7, 8]], Fraction(9, 70))],
    )
    def test_multi_block_examples(self, blocks, expected):
        inst = build_instance(Partition.of(blocks).labels(), dim=len(blocks))
        assert rcir_exact(_sizes(inst)) == expected

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_arrangement_oracle(self, n):
        for sizes in _size_tuples(n):
            inst = build_instance(_consecutive_blocks(sizes).labels(), dim=len(sizes))
            exact = rcir_exact(_sizes(inst))
            assert exact == arrangement_rcir(sizes), sizes
            assert exact <= worst_merge_rcir(inst), sizes
            if len(sizes) == 2:
                assert exact == rcir_exact(sizes[::-1]) == worst_merge_rcir(inst)

    def test_worst_no_instance_has_two_blocks(self):
        # over every partition of n <= 40 the largest soundness value is reached by
        # two blocks, and no NO instance does better than the permutation test's 1/n
        argmax = {}
        for n in range(2, 41):
            values = {tuple(sizes): rcir_exact(sizes) for sizes in _size_tuples(n)}
            worst = max(values.values())
            assert worst == max(v for shape, v in values.items() if len(shape) == 2), n
            assert worst >= Fraction(1, n), n
            argmax[n] = [shape for shape, v in values.items() if v == worst]
        # reported, not asserted: the worst shapes at composite n, and those n where
        # (n - p, p) is not among them, p the smallest prime factor
        composite, off = {}, {}
        for n, shapes in argmax.items():
            p = next(p for p in range(2, n + 1) if n % p == 0)
            if p < n:
                composite[n] = shapes
                if (n - p, p) not in shapes:
                    off[n] = shapes
        print(f"worst shapes at composite n: {composite}; not (n - p, p): {off or 'none'}")

    def test_block_order_and_labels_do_not_matter(self):
        a = build_instance(Partition.of([[1, 5], [2], [3, 4, 6]]).labels(), dim=3)
        b = build_instance(_consecutive_blocks([3, 2, 1]).labels(), dim=3)
        assert rcir_exact(_sizes(a)) == rcir_exact(_sizes(b)) == arrangement_rcir([2, 1, 3])

    def test_needs_partition_and_cap(self):
        # states that break the promise have no block sizes to evaluate
        with pytest.raises(ValueError, match="promise"):
            rcir_exact(_sizes(random_unstructured_instance(4, 2, seed=1)))
        with pytest.raises(CapExceededError, match="capped"):
            rcir_exact([RCIR_EXACT_MAX_N - 1, 1, 1])

    def test_rejects_yes_instance(self):
        # a single block is a YES instance: every shift fixes it, as Monte Carlo finds
        assert rcir_exact(_sizes(yes_instance(4))) == 1


class TestMcRun:
    def test_deterministic_yes(self):
        est = mc_run(lambda rng, k: np.ones(k, dtype=bool), 100, base_seed=0)
        assert est == mc_run(lambda rng, k: np.ones(k, dtype=bool), 100, base_seed=0)
        assert est.p_hat == 1.0 and est.successes == 100
        assert est.ci95[0] <= est.p_hat <= est.ci95[1]

    def test_fair_coin(self):
        est = mc_run(lambda rng, k: rng.random(k) < 0.5, 100_000, base_seed=42)
        assert abs(est.p_hat - 0.5) <= 0.01
        assert est.ci95[0] <= est.p_hat <= est.ci95[1]

    def test_reproducible_across_runs(self):
        a = mc_run(lambda rng, k: rng.random(k) < 0.3, 500, base_seed=9)
        b = mc_run(lambda rng, k: rng.random(k) < 0.3, 500, base_seed=9)
        assert a == b

    def test_wilson_interval_brackets(self):
        lo, hi = wilson_interval(40, 80)
        assert lo <= 0.5 <= hi
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0

    @pytest.mark.parametrize("trials", [1, 7, 2000, 300_000])
    def test_wilson_interval_exact_edges(self, trials):
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0

    def test_wilson_interval_interior_is_textbook(self):
        z = 1.959963984540054
        s, t = 40, 80
        p = s / t
        center = (p + z * z / (2 * t)) / (1 + z * z / t)
        half = z * math.sqrt(p * (1 - p) / t + z * z / (4 * t * t)) / (1 + z * z / t)
        lo, hi = wilson_interval(s, t)
        assert abs(lo - (center - half)) <= 1e-12
        assert abs(hi - (center + half)) <= 1e-12

    @pytest.mark.parametrize("successes,trials", [(11, 10), (-1, 10), (3000, 2000)])
    def test_wilson_interval_rejects_successes_out_of_range(self, successes, trials):
        with pytest.raises(ValueError, match="successes.*trials"):
            wilson_interval(successes, trials)

    def test_adjacent_bases_draw_disjoint_streams(self):
        def first_draws(base_seed):
            draws = []
            mc_run(
                lambda rng, k: draws.extend(rng.random(k)) or np.ones(k, dtype=bool),
                64,
                base_seed=base_seed,
            )
            return set(draws)

        assert first_draws(0).isdisjoint(first_draws(1))

    def test_blocks_draw_from_their_own_streams(self):
        draws = []

        def sample(rng, k):
            draws.append(rng.random(k))
            return draws[-1] < 0.4

        trials = MC_BLOCK + 1
        est = mc_run(sample, trials, base_seed=5)
        assert [len(u) for u in draws] == [MC_BLOCK, 1]
        for block, u in enumerate(draws):
            assert np.array_equal(u, np.random.default_rng([5, block]).random(len(u)))
        assert est.trials == trials
        assert est.successes == sum(np.count_nonzero(u < 0.4) for u in draws)
        assert est == mc_run(sample, trials, base_seed=5)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            mc_run(lambda rng, k: np.ones(k, dtype=bool), 0, base_seed=0)


def _binomial_pmf(trials: int, p: float) -> np.ndarray:
    """P(X = x) for x = 0..trials, X ~ Binomial(trials, p), from log-gammas."""
    x = np.arange(trials + 1)
    log_comb = math.lgamma(trials + 1) - np.array(
        [math.lgamma(k + 1) + math.lgamma(trials - k + 1) for k in x])
    return np.exp(log_comb + x * math.log(p) + (trials - x) * math.log1p(-p))


class TestMcCalibration:
    """Monte Carlo runs over consecutive base seeds, against the exact value.

    Each case runs SEEDS base seeds of TRIALS = 2 * MC_BLOCK trials, so every
    run spans two blocks. Three checks, each within 5 standard errors: the
    share of Wilson intervals that hold the exact value against the exact
    binomial coverage of those intervals; the chi-square of the success
    counts, the sum of their squared z-scores, against its SEEDS degrees of
    freedom; and the lag-1 correlation of the z-scores of consecutive seeds
    against 0. The last is the case to catch: an ``mc_run`` that seeded block
    b by ``default_rng(base_seed + block)`` would draw seed s's second block
    from seed s + 1's first stream, a lag-1 correlation near 0.5.
    """

    SEEDS, TRIALS = 400, 2 * MC_BLOCK

    @pytest.mark.parametrize("case", ["rcir n=6 r=2", "srs [2, 1] m=3", "srs [1, 1, 1] m=8"])
    def test_calibrated_across_seeds(self, case):
        sample, p = {
            "rcir n=6 r=2": (lambda rng, k: rcir_batch([0, 0, 1, 1, 1, 1], rng, k),
                             rcir_exact([2, 4])),
            "srs [2, 1] m=3": (lambda rng, k: srs_batch(TWO_IDENT, 3, rng, k),
                               srs_exact([2, 1], 3)),
            "srs [1, 1, 1] m=8": (lambda rng, k: srs_batch(ALL_ORTH, 8, rng, k),
                                  srs_exact([1, 1, 1], 8)),
        }[case]
        seeds, trials, p = self.SEEDS, self.TRIALS, float(p)
        runs = [mc_run(sample, trials, base_seed=seed) for seed in range(seeds)]

        pmf = _binomial_pmf(trials, p)
        intervals = [wilson_interval(x, trials) for x in range(trials + 1)]
        coverage = float(pmf[[lo <= p <= hi for lo, hi in intervals]].sum())
        seen = np.mean([run.ci95[0] <= p <= run.ci95[1] for run in runs])
        assert abs(seen - coverage) <= 5 * math.sqrt(coverage * (1 - coverage) / seeds)

        pq = p * (1 - p)
        z = (np.array([run.successes for run in runs]) - trials * p) / math.sqrt(trials * pq)
        var_z2 = 2 + (1 - 6 * pq) / (trials * pq)  # Var(z^2) of a binomial z-score
        assert abs(float(z @ z) - seeds) <= 5 * math.sqrt(seeds * var_z2)

        assert abs(float(z[:-1] @ z[1:]) / (seeds - 1)) <= 5 / math.sqrt(seeds - 1)
