import json

import numpy as np
import pytest

from conftest import all_orthogonal, two_block, yes_instance
from oracles import (
    Alignment,
    alignment_from_pattern,
    instance_from_alignment,
    loop_promise_error,
    partition_from_alignment,
)
from qsilab.instances import (
    QsiInstance,
    Verdict,
    build_instance,
    haar_unitary,
    instance_from_json,
    load_instance,
    random_structured_instance,
    random_unstructured_instance,
    verify_promise,
)
from qsilab.permgroup import Partition
from qsilab.qmath import PureState, basis_state


class TestBuildInstance:
    def test_single_block_dim_one(self):
        inst = build_instance(Partition.of([[1, 2, 3]]), dim=1)
        assert all(np.array_equal(s.amps, [1.0]) for s in inst.states)
        assert verify_promise(inst) is Verdict.YES_INSTANCE

    def test_canonical_embedding(self):
        inst = build_instance(Partition.of([[1, 2], [3]]), dim=2)
        assert np.array_equal(inst.states[0].amps, basis_state(2, 0).amps)
        assert np.array_equal(inst.states[1].amps, basis_state(2, 0).amps)
        assert np.array_equal(inst.states[2].amps, basis_state(2, 1).amps)

    def test_three_singletons_mutually_orthogonal(self):
        inst = build_instance(Partition.of([[1], [2], [3]]), dim=3)
        g = inst.gram()
        assert np.allclose(g, np.eye(3))

    def test_dim_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            build_instance(Partition.of([[1], [2]]), dim=1)

    def test_non_unitary_rotation(self):
        with pytest.raises(ValueError, match="unitary"):
            build_instance(Partition.of([[1], [2]]), dim=2, rotation=np.ones((2, 2)))

    def test_rotation_preserves_gram_moduli(self):
        for seed in range(5):
            plain = two_block(4, 2)
            rotated = two_block(4, 2, rotation=haar_unitary(2, seed))
            assert np.allclose(
                np.abs(plain.gram()), np.abs(rotated.gram()), atol=1e-10
            )
            assert verify_promise(rotated) is Verdict.NO_INSTANCE


class TestQsiInstance:
    def test_partition_mismatch_rejected(self):
        states = (basis_state(2, 0), basis_state(2, 0))
        with pytest.raises(ValueError, match="promise violated"):
            QsiInstance(states, Partition.of([[1], [2]]))

    @pytest.mark.parametrize(
        "blocks", [[[1, 3], [2, 4]], [[1, 2], [3, 4, 5]], [[1], [2, 4], [3, 5]], [[1, 2, 3], [4], [5, 6]]]
    )
    def test_promise_message_matches_pair_loop(self, blocks):
        # perturb a random subset of states; the Gram check must name the loop's first bad pair
        part = Partition.of(blocks)
        rng = np.random.default_rng(part.n)
        clean = build_instance(part, 4, haar_unitary(4, seed=part.n)).states
        messages = []
        for _ in range(40):
            states = list(clean)
            for idx in rng.choice(part.n, size=rng.integers(1, 4), replace=False):
                noise = rng.choice([1e-12, 1e-6, 0.1]) * rng.standard_normal(4)
                states[idx] = PureState.from_unnormalized(states[idx].amps + noise)
            want = loop_promise_error(states, part)
            if want is None:
                QsiInstance(tuple(states), part)
                continue
            with pytest.raises(ValueError) as bad:
                QsiInstance(tuple(states), part)
            assert str(bad.value) == want
            messages.append(want)
        assert len({m.split(":")[0] for m in messages}) >= 3

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
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
        plus = PureState.from_unnormalized([1, 1])
        assert verify_promise(QsiInstance((basis_state(2, 0), plus))) is Verdict.VIOLATED

    def test_single_state_is_yes(self):
        assert verify_promise(QsiInstance((basis_state(2, 1),))) is Verdict.YES_INSTANCE

    def test_violation_after_equal_and_orthogonal_pairs(self):
        plus = PureState.from_unnormalized([1, 1, 0])
        states = (basis_state(3, 0), basis_state(3, 2), PureState(1j * basis_state(3, 0).amps), plus)
        assert verify_promise(QsiInstance(states)) is Verdict.VIOLATED

    def test_tolerance(self):
        near = PureState.from_unnormalized([1e-10, 1])
        off = PureState.from_unnormalized([1e-8, 1])
        assert verify_promise(QsiInstance((basis_state(2, 0), near))) is Verdict.NO_INSTANCE
        assert verify_promise(QsiInstance((basis_state(2, 0), off))) is Verdict.VIOLATED

    def test_self_overlaps_not_checked(self):
        # a norm within PureState's tolerance may put <i|i> past the promise tolerance
        long = PureState(np.array([1 + 8e-10, 0], dtype=complex))
        assert verify_promise(QsiInstance((long, basis_state(2, 1)))) is Verdict.NO_INSTANCE
        QsiInstance((long, basis_state(2, 1)), Partition.of([[1], [2]]))


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
        assert all(np.array_equal(x.amps, y.amps) for x, y in zip(a.states, b.states))
        assert verify_promise(a) is not Verdict.VIOLATED

    def test_max_blocks_respected(self):
        for seed in range(10):
            inst = random_structured_instance(6, seed=seed, max_blocks=2)
            assert inst.partition.block_count <= 2

    def test_unstructured_deterministic(self):
        a = random_unstructured_instance(3, 2, seed=1)
        b = random_unstructured_instance(3, 2, seed=1)
        assert all(np.array_equal(x.amps, y.amps) for x, y in zip(a.states, b.states))


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
        assert not np.allclose(plain.states[0].amps, rotated.states[0].amps)
        assert np.allclose(np.abs(plain.gram()), np.abs(rotated.gram()), atol=1e-10)

    def test_unstructured_form(self):
        payload = {
            "n": 2,
            "dim": 2,
            "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        inst = instance_from_json(payload)
        assert inst.partition is None
        assert verify_promise(inst) is Verdict.NO_INSTANCE

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 2, "dim": 2},
            {"n": 2, "dim": 2, "states": [[[1.0, 0.0], [0.0, 0.0]]]},
            {"dim": 2, "partition": [[1]]},
            [1, 2, 3],
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(ValueError):
            instance_from_json(payload)

    def test_examples_verdicts(self):
        assert verify_promise(all_orthogonal(3)) is Verdict.NO_INSTANCE
        assert verify_promise(two_block(3, 2)) is Verdict.NO_INSTANCE
