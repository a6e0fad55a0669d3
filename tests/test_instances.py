import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsilab

from conftest import all_orthogonal, basis_state, two_block, unit, yes_instance
from oracles import (
    Alignment,
    Partition,
    Verdict,
    alignment_from_pattern,
    equal_pairs,
    first_member_labels,
    instance_from_alignment,
    loop_promise_error,
    loop_rotated_states,
    loop_unstructured_states,
    partition_from_alignment,
    permuted_instance,
    verify_promise,
)
from qsilab.instances import (
    QsiInstance,
    _decode,
    build_instance,
    haar_unitary,
    instance_from_json,
    load_instance,
    random_structured_instance,
    random_unstructured_instance,
)
from qsilab.protocols import promise_labels


def selftest_unstructured_cases():
    """(n, dim, seed) of the unstructured instances of selftest criteria 2
    (every third group of four cases) and 4 (the dominance pool)."""
    for i in range(216):
        if (i // 4) % 3 == 2:
            n = (2, 2 + i % 5, 2 + i % 4, 2 + i % 4)[i % 4]
            yield n, 2 + i % 2, 90_000 + i
    for n in range(3, 9):
        for dim in (2, 3, 4):
            for s in range(5):
                yield n, dim, 7_800 + 100 * n + 10 * dim + s


def assert_matches_per_state_construction(n: int, dim: int, seed: int) -> None:
    got = random_unstructured_instance(n, dim, seed).states
    assert np.array_equal(got, loop_unstructured_states(n, dim, seed))
    labels = random_structured_instance(n, seed, max_blocks=3).labels
    rotation = haar_unitary(max(dim, max(labels) + 1), seed)
    got = build_instance(labels, len(rotation), rotation).states
    assert np.array_equal(got, loop_rotated_states(labels, rotation))


class TestBuildInstance:
    def test_single_block_dim_one(self):
        inst = build_instance([0, 0, 0], dim=1)
        assert np.array_equal(inst.states, np.ones((3, 1)))
        assert verify_promise(inst) is Verdict.YES_INSTANCE

    def test_canonical_embedding(self):
        inst = build_instance([0, 0, 1], dim=2)
        assert np.array_equal(inst.states, [[1, 0], [1, 0], [0, 1]])

    def test_three_singletons_mutually_orthogonal(self):
        inst = build_instance([0, 1, 2], dim=3)
        g = inst.gram()
        assert np.allclose(g, np.eye(3))

    def test_dim_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            build_instance([0, 1], dim=1)

    def test_non_unitary_rotation(self):
        with pytest.raises(ValueError, match="unitary"):
            build_instance([0, 1], dim=2, rotation=np.ones((2, 2)))

    def test_rotation_preserves_gram_moduli(self):
        for seed in range(5):
            plain = two_block(4, 2)
            rotated = two_block(4, 2, rotation=haar_unitary(2, seed))
            assert np.allclose(
                np.abs(plain.gram()), np.abs(rotated.gram()), atol=1e-10
            )
            assert verify_promise(rotated) is Verdict.NO_INSTANCE


class TestQsiInstance:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="state 2 has norm 1.41421356237"):
            QsiInstance([[1.0, 0.0], [1.0, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="state 1 has norm nan"):
            QsiInstance([[np.nan, 0.0]])

    @pytest.mark.parametrize("states", [[], [[]], [1.0, 0.0], np.ones((1, 1, 1))])
    def test_rejects_empty_or_not_a_matrix(self, states):
        with pytest.raises(ValueError, match=r"non-empty \(n, dim\) array"):
            QsiInstance(states)

    def test_states_are_read_only_copy(self):
        raw = np.eye(2, dtype=complex)
        inst = QsiInstance(raw)
        raw[0, 0] = 5.0
        assert inst.states[0, 0] == 1.0
        with pytest.raises(ValueError):
            inst.states[0, 0] = 5.0

    def test_labels_come_from_the_states(self):
        # two equal states are one block, whatever blocks a caller had in mind;
        # a pair at modulus 1/sqrt(2) has no labels
        equal = QsiInstance((basis_state(2, 0), basis_state(2, 0)))
        assert promise_labels(equal).tolist() == [0, 0]
        with pytest.raises(ValueError, match="equal-or-orthogonal promise"):
            promise_labels(QsiInstance((basis_state(2, 0), unit([1, 1]))))

    @pytest.mark.parametrize(
        "blocks", [[[1, 3], [2, 4]], [[1, 2], [3, 4, 5]], [[1], [2, 4], [3, 5]], [[1, 2, 3], [4], [5, 6]]]
    )
    def test_promise_verdict_matches_pair_loop(self, blocks):
        # perturb a random subset of states; the labels break exactly when the loop
        # finds a pair off its promised modulus, and otherwise are the blocks'
        part = Partition.of(blocks)
        rng = np.random.default_rng(part.n)
        clean = build_instance(part.labels(), 4, haar_unitary(4, seed=part.n)).states
        messages = []
        for _ in range(40):
            states = list(clean)
            for idx in rng.choice(part.n, size=rng.integers(1, 4), replace=False):
                noise = rng.choice([1e-12, 1e-6, 0.1]) * rng.standard_normal(4)
                states[idx] = unit(states[idx] + noise)
            want = loop_promise_error(states, part)
            if want is None:
                labels = promise_labels(QsiInstance(tuple(states)))
                assert labels.tolist() == first_member_labels(part.labels())
                continue
            with pytest.raises(ValueError, match="equal-or-orthogonal promise"):
                promise_labels(QsiInstance(tuple(states)))
            messages.append(want)
        assert len({m.split(":")[0] for m in messages}) >= 3

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            QsiInstance((basis_state(2, 0), basis_state(3, 0)))

    def test_gram(self):
        inst = yes_instance(2)
        assert np.allclose(inst.gram(), np.ones((2, 2)))


class TestVerifyPromise:
    def test_yes(self):
        assert verify_promise(yes_instance(3)) is Verdict.YES_INSTANCE

    def test_no(self):
        states = (basis_state(2, 0), basis_state(2, 1), basis_state(2, 0))
        assert verify_promise(QsiInstance(states)) is Verdict.NO_INSTANCE

    def test_violated(self):
        plus = unit([1, 1])
        assert verify_promise(QsiInstance((basis_state(2, 0), plus))) is Verdict.VIOLATED

    def test_single_state_is_yes(self):
        assert verify_promise(QsiInstance((basis_state(2, 1),))) is Verdict.YES_INSTANCE

    def test_violation_after_equal_and_orthogonal_pairs(self):
        plus = unit([1, 1, 0])
        states = (basis_state(3, 0), basis_state(3, 2), 1j * basis_state(3, 0), plus)
        assert verify_promise(QsiInstance(states)) is Verdict.VIOLATED

    def test_tolerance(self):
        near = unit([1e-10, 1])
        off = unit([1e-8, 1])
        assert verify_promise(QsiInstance((basis_state(2, 0), near))) is Verdict.NO_INSTANCE
        assert verify_promise(QsiInstance((basis_state(2, 0), off))) is Verdict.VIOLATED

    def test_self_overlaps_not_checked(self):
        # a norm within NORM_ATOL may put <i|i> past the promise tolerance
        long = np.array([1 + 8e-10, 0], dtype=complex)
        assert verify_promise(QsiInstance((long, basis_state(2, 1)))) is Verdict.NO_INSTANCE
        assert promise_labels(QsiInstance((long, basis_state(2, 1)))).tolist() == [0, 1]


class TestLabels:
    """``QsiInstance.labels`` against the ``equal_pairs`` and ``Partition`` oracles."""

    @pytest.mark.parametrize("first,second,want", [
        (basis_state(2, 0), unit([1e-10, 1]), [0, 1]),  # orthogonal within PROMISE_ATOL
        (basis_state(2, 0), unit([1e-8, 1]), None),     # modulus 1e-8 is neither 0 nor 1
        (np.array([1 + 8e-10, 0], dtype=complex), basis_state(2, 1), [0, 1]),  # long state
        (basis_state(2, 0), 1j * basis_state(2, 0), [0, 0]),
    ], ids=["near", "off", "long", "equal"])
    def test_none_exactly_when_equal_pairs_is(self, first, second, want):
        inst = QsiInstance((first, second))
        assert (inst.labels is None) == (equal_pairs(inst) is None)
        assert (None if inst.labels is None else inst.labels.tolist()) == want

    def test_nan_modulus_breaks_the_promise(self):
        # the constructor refuses NaN norms, so the NaN goes into a built instance
        inst = QsiInstance((basis_state(2, 0), basis_state(2, 1)))
        states = np.array([[1, 0], [np.nan, 1]], dtype=complex)
        states.setflags(write=False)
        object.__setattr__(inst, "states", states)
        assert inst.labels is None and equal_pairs(inst) is None

    def test_promise_checked_against_representatives(self):
        # x and y are each within PROMISE_ATOL of a's modulus 1, and 1.8e-9 short of
        # it with each other: labels checks only against a, equal_pairs every pair
        eps = np.sqrt(0.9e-9)
        inst = QsiInstance((basis_state(2, 0), unit([1, eps]), unit([1, -eps])))
        assert inst.labels.tolist() == [0, 0, 0]
        assert equal_pairs(inst) is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from([1e-12, 1e-6]))
    def test_labels_agree_with_equal_pairs_away_from_the_tolerance(self, n, seed, noise):
        # noise far inside or far outside PROMISE_ATOL: the labels are the
        # partition's exactly when the all-pairs check keeps the promise
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        dim = int(raw.max()) + 2
        states = build_instance(raw.tolist(), dim, haar_unitary(dim, seed)).states
        states = np.exp(2j * np.pi * rng.random(n))[:, None] * states
        states = states + noise * (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
        inst = QsiInstance(states / np.linalg.norm(states, axis=1, keepdims=True))
        agree = inst.labels is not None and inst.labels.tolist() == first_member_labels(raw)
        assert agree == (equal_pairs(inst) is not None), (n, seed, noise)

    def test_phased_and_permuted_copies_match_the_partition(self):
        rng = np.random.default_rng(21)
        for seed in range(40):
            n = int(rng.integers(2, 10))
            raw = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
            # blocks listed in a random order, so the partition's labels need renumbering
            order = rng.permutation(raw.max() + 1)
            part = Partition.of([np.flatnonzero(raw == b) + 1 for b in order if (raw == b).any()])
            dim = part.block_count + 1
            inst = build_instance(part.labels(), dim, haar_unitary(dim, seed))
            phases = np.exp(2j * np.pi * rng.random(n))
            tau = rng.permutation(n)
            copies = [
                (inst, part.labels()),
                (QsiInstance(phases[:, None] * inst.states), part.labels()),
                (permuted_instance(inst, tau), [part.labels()[t] for t in tau]),
            ]
            for copy, want in copies:
                assert equal_pairs(copy) is not None
                assert copy.labels.tolist() == first_member_labels(want), (seed, part)

    def test_read_only_and_built_once(self):
        inst = random_structured_instance(6, seed=4, rotate=True)
        labels = inst.labels
        assert labels is inst.labels
        with pytest.raises(ValueError, match="read-only"):
            labels[0] = 1


class TestAlignment:
    def test_pattern_repeats_around_cycle(self):
        a = alignment_from_pattern((1, 1, 0, 0), s=3)
        assert a.n == 12
        assert a.members == frozenset({1, 2, 5, 6, 9, 10})

    def test_alternating_pattern(self):
        a = alignment_from_pattern((1, 0), s=2)
        assert (a.n, a.members) == (4, frozenset({1, 3}))

    def test_constant_pattern_fills_cycle(self):
        a = alignment_from_pattern((1,), s=3)
        assert a.members == frozenset({1, 2, 3})

    def test_single_repeat_is_identity_embedding(self):
        pattern = (1, 0, 1, 1, 0)
        a = alignment_from_pattern(pattern, s=1)
        assert a.members == frozenset(i for i, b in enumerate(pattern, start=1) if b)

    def test_members_must_fit(self):
        with pytest.raises(ValueError):
            Alignment(3, frozenset({4}))

    def test_partition_and_instance(self):
        a = Alignment(4, frozenset({1, 3}))
        part = partition_from_alignment(a)
        assert set(part.blocks) == {frozenset({1, 3}), frozenset({2, 4})}
        inst = instance_from_alignment(a)
        assert verify_promise(inst) is Verdict.NO_INSTANCE

    def test_full_alignment_gives_single_block(self):
        a = alignment_from_pattern((1,), s=4)
        assert partition_from_alignment(a).block_count == 1


class TestHaarUnitary:
    def test_unitary(self):
        for dim in (2, 3, 5):
            u = haar_unitary(dim, seed=42)
            assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)

    def test_seed_determinism(self):
        assert np.array_equal(haar_unitary(3, 9), haar_unitary(3, 9))
        assert not np.allclose(haar_unitary(3, 9), haar_unitary(3, 10))


class TestRandomInstances:
    def test_structured_deterministic_and_valid(self):
        a = random_structured_instance(5, seed=3, rotate=True)
        b = random_structured_instance(5, seed=3, rotate=True)
        assert np.array_equal(a.states, b.states)
        assert verify_promise(a) is not Verdict.VIOLATED

    def test_max_blocks_respected(self):
        for seed in range(10):
            inst = random_structured_instance(6, seed=seed, max_blocks=2)
            assert max(inst.labels) + 1 <= 2

    def test_unstructured_deterministic(self):
        a = random_unstructured_instance(3, 2, seed=1)
        b = random_unstructured_instance(3, 2, seed=1)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("n,dim,seed", [(1, 1, 0), (1, 4, 1), (2, 2, 2), (5, 1, 3), (7, 6, 4)])
    def test_states_match_per_state_construction(self, n, dim, seed):
        assert_matches_per_state_construction(n, dim, seed)

    def test_selftest_states_match_per_state_construction(self):
        for n, dim, seed in selftest_unstructured_cases():
            assert_matches_per_state_construction(n, dim, seed)


class TestJsonFormat:
    def test_partition_roundtrip(self, tmp_path):
        payload = {"n": 3, "dim": 2, "partition": [[1, 3], [2]]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(payload))
        inst = load_instance(path)
        assert inst.n == 3 and inst.dim == 2
        assert verify_promise(inst) is Verdict.NO_INSTANCE

    def test_rotation_seed(self):
        plain = instance_from_json({"n": 2, "dim": 2, "partition": [[1], [2]]})
        rotated = instance_from_json(
            {"n": 2, "dim": 2, "partition": [[1], [2]], "rotation_seed": 5}
        )
        assert not np.allclose(plain.states[0], rotated.states[0])
        assert np.allclose(np.abs(plain.gram()), np.abs(rotated.gram()), atol=1e-10)

    def test_unstructured_form(self):
        payload = {
            "n": 2,
            "dim": 2,
            "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        inst = instance_from_json(payload)
        # orthogonal states keep the promise: two blocks, though no partition is given
        assert inst.labels.tolist() == [0, 1]
        assert verify_promise(inst) is Verdict.NO_INSTANCE

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"n": 2, "dim": 2}, "either 'partition' or 'states'"),
            ({"n": 2, "dim": 2, "states": [[[1.0, 0.0], [0.0, 0.0]]]}, "expected 2 states, got 1"),
            ({"dim": 2, "partition": [[1]]}, "missing field"),
            ([1, 2, 3], "must be an object"),
            ({"n": 2, "dim": 2, "states": [[[1, 0]], [[0, 1]]]}, "state length 1 != dim 2"),
            ({"n": 2, "dim": 2, "states": [[1, 0], [0, 1]]}, r"pairs, got shape \(2, 2\)"),
            ({"n": 2, "dim": 2, "states": 5}, r"pairs, got shape \(\)"),
            ({"n": 2, "dim": 2, "states": [[["x", 0], [0, 0]], [[1, 0], [0, 0]]]}, "not numeric"),
            ({"n": 2, "dim": 2, "states": [[[None, 0], [1, 0]], [[1, 0], [0, 0]]]},
             "state 1 has norm nan"),
            ({"n": 2, "dim": 2, "partition": 5}, "malformed partition"),
            ({"n": 2, "dim": 2, "partition": [[1], [2]], "rotation_seed": [5]},
             "malformed partition or rotation_seed"),
            ({"n": 2.9, "dim": "2", "partition": [[1.7], ["2"]], "rotation_seed": 3.5},
             "n must be an integer, got 2.9"),
            ({"n": 2.0, "dim": 2, "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
             "n must be an integer, got 2.0"),
            ({"n": None, "dim": 2, "partition": [[1], [2]]}, "n must be an integer, got None"),
            ({"n": 2, "dim": "2", "partition": [[1], [2]]}, "dim must be an integer, got '2'"),
            ({"n": 2, "dim": True, "partition": [[1, 2]]}, "dim must be an integer, got True"),
            ({"n": 2, "dim": 2, "partition": [[1.7], [2]]},
             "malformed partition or rotation_seed: partition entry must be an integer, got 1.7"),
            ({"n": 2, "dim": 2, "partition": [[1], ["2"]]},
             "partition entry must be an integer, got '2'"),
            ({"n": 2, "dim": 2, "partition": ["12"]},
             "partition entry must be an integer, got '1'"),
            ({"n": 2, "dim": 2, "partition": [[1], [2]], "rotation_seed": 3.5},
             "rotation_seed must be an integer, got 3.5"),
            ({"n": 2, "dim": 2, "partition": [[1], [2]], "rotation_seed": False},
             "rotation_seed must be an integer, got False"),
            ({"n": 2, "dim": 2, "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
              "partition": [[1], [2]]}, "both 'partition' and 'states'"),
        ],
    )
    def test_malformed_rejected(self, payload, message):
        with pytest.raises(ValueError, match=message):
            instance_from_json(payload)

    def test_states_are_the_pairs_as_complex(self):
        pairs = [[[0.6, -0.0], [0.0, 0.8]], [[-0.0, 1.0], [0.0, 0.0]]]
        inst = instance_from_json({"n": 2, "dim": 2, "states": pairs})
        want = [[complex(re, im) for re, im in row] for row in pairs]
        assert inst.states.tobytes() == np.array(want).tobytes()

    def test_examples_verdicts(self):
        assert verify_promise(all_orthogonal(3)) is Verdict.NO_INSTANCE
        assert verify_promise(two_block(3, 2)) is Verdict.NO_INSTANCE


class TestDecodeCache:
    PAYLOAD = {"n": 3, "dim": 3, "partition": [[1, 3], [2]], "rotation_seed": 4}

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        _decode.cache_clear()

    def write(self, path, payload):
        path.write_text(json.dumps(payload))
        return path

    def test_one_decode_per_text(self, tmp_path, monkeypatch):
        calls = []

        def counted(obj):
            calls.append(obj)
            return instance_from_json(obj)

        monkeypatch.setattr("qsilab.instances.instance_from_json", counted)
        path = self.write(tmp_path / "inst.json", self.PAYLOAD)
        first = load_instance(path)
        assert load_instance(str(path)) is first
        assert qsilab.load_instance(path) is first
        assert len(calls) == 1

    def test_rewritten_file_is_decoded_again(self, tmp_path):
        path = self.write(tmp_path / "inst.json", self.PAYLOAD)
        old = load_instance(path)
        self.write(path, {"n": 3, "dim": 3, "partition": [[1], [2], [3]]})
        new = load_instance(path)
        assert new is not old
        assert new.labels.tolist() == [0, 1, 2]
        assert old.labels.tolist() == [0, 1, 0]

    def test_identical_texts_share_an_instance(self, tmp_path):
        a = self.write(tmp_path / "a.json", self.PAYLOAD)
        b = self.write(tmp_path / "b.json", self.PAYLOAD)
        assert load_instance(a) is load_instance(b)
        assert _decode.cache_info().currsize == 1

    def test_malformed_file_fails_every_load(self, tmp_path):
        path = self.write(tmp_path / "bad.json", {"n": 2, "dim": 2.5, "partition": [[1], [2]]})
        for _ in range(2):
            with pytest.raises(ValueError, match="dim must be an integer"):
                load_instance(path)
        assert _decode.cache_info().currsize == 0

    def test_shared_states_refuse_assignment(self, tmp_path):
        inst = load_instance(self.write(tmp_path / "inst.json", self.PAYLOAD))
        with pytest.raises(ValueError, match="read-only"):
            inst.states[0, 0] = 0
        with pytest.raises(FrozenInstanceError):
            inst.states = np.eye(3, dtype=complex)
        assert np.array_equal(inst.states, instance_from_json(self.PAYLOAD).states)
