import math
import tracemalloc
from fractions import Fraction

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_block, yes_instance
from oracles import (
    Partition,
    control_group,
    cycle_power,
    dense_run_circuit,
    enumerate_alt,
    enumerate_sym,
    group_sum_formula,
    Alignment,
    instance_from_alignment,
    repetition_set,
    set_partitions,
    shift_count_rational,
    stabilizer_count,
)
from qsilab.bounds import ps_lower_bound
from qsilab.identity_tests import (
    TestKind,
    equal_prob_formula,
    equal_prob_rational,
    permanent,
    run_circuit,
)
from qsilab.instances import (
    QsiInstance,
    build_instance,
    haar_unitary,
    random_structured_instance,
    random_unstructured_instance,
)
from qsilab.limits import CapExceededError

ALL_KINDS = [TestKind.SWAP, TestKind.CIRCLE, TestKind.PERMUTATION, TestKind.ALTERNATION]
FLAVORS = ["plain", "rotated", "unstructured"]


def flavored_instance(flavor: str, n: int, seed: int, dim: int = 2):
    """A plain or rotated promise instance, or arbitrary states."""
    if flavor == "unstructured":
        return random_unstructured_instance(n, dim, seed=seed)
    return random_structured_instance(
        n, seed=seed, rotate=flavor == "rotated", dim=dim, max_blocks=3
    )


def partition_of_labels(labels):
    return Partition.of(
        [[i + 1 for i, lab in enumerate(labels) if lab == b] for b in range(max(labels) + 1)]
    )


def circuit_cases():
    for kind in ALL_KINDS:
        for n in [2] if kind is TestKind.SWAP else range(2, 6):
            for dim in (2, 3):
                yield kind, n, dim
    yield TestKind.PERMUTATION, 6, 2


class TestControlGroup:
    def test_circle_three(self):
        assert control_group(TestKind.CIRCLE, 3) == [cycle_power(3, k) for k in range(3)]

    def test_tests_coincide_at_two(self):
        swap = control_group(TestKind.SWAP, 2)
        assert control_group(TestKind.PERMUTATION, 2) == swap
        assert control_group(TestKind.CIRCLE, 2) == swap

    def test_alternation_three_is_circle(self):
        assert control_group(TestKind.ALTERNATION, 3) == control_group(TestKind.CIRCLE, 3)

    def test_identity_first(self):
        for kind in ALL_KINDS:
            n = 2 if kind is TestKind.SWAP else 4
            assert control_group(kind, n)[0].is_identity

    def test_matches_group_enumeration(self):
        assert control_group(TestKind.PERMUTATION, 4) == enumerate_sym(4)
        assert control_group(TestKind.ALTERNATION, 4) == enumerate_alt(4)

    def test_caps(self):
        with pytest.raises(ValueError):
            control_group(TestKind.SWAP, 3)
        with pytest.raises(CapExceededError):
            control_group(TestKind.PERMUTATION, 11)
        with pytest.raises(CapExceededError):
            control_group(TestKind.CIRCLE, 25)


class TestRunCircuit:
    def test_swap_equal_pair(self):
        assert run_circuit(TestKind.SWAP, yes_instance(2)).p_equal == pytest.approx(1.0, abs=1e-12)

    def test_swap_orthogonal_pair(self):
        assert run_circuit(TestKind.SWAP, two_block(2, 1)).p_equal == pytest.approx(0.5, abs=1e-12)

    def test_circle_alternating_instance(self):
        inst = build_instance(Partition.of([[1, 3], [2, 4]]).labels(), dim=2)
        assert run_circuit(TestKind.CIRCLE, inst).p_equal == pytest.approx(0.5, abs=1e-12)

    def test_outcome_distribution_sums_to_one(self):
        # run_circuit simulates outcome 0 only; the dense oracle has them all
        for kind in ALL_KINDS:
            n = 2 if kind is TestKind.SWAP else 3
            inst = random_structured_instance(n, seed=17, rotate=True)
            result = dense_run_circuit(kind, inst)
            total = sum(p for _, p in result.outcome_distribution)
            assert total == pytest.approx(1.0, abs=1e-10)
            zero_entry = dict(result.outcome_distribution).get(0, 0.0)
            assert abs(run_circuit(kind, inst).p_equal - zero_entry) <= 1e-12

    @pytest.mark.parametrize("kind,n,dim", [(TestKind.PERMUTATION, 7, 2), (TestKind.ALTERNATION, 6, 3),
                                            (TestKind.PERMUTATION, 10, 3), (TestKind.ALTERNATION, 10, 3)])
    def test_peak_memory_is_a_few_content_arrays(self, kind, n, dim):
        # the full circuit holds |G| d^n amplitudes; the EQUAL branch needs no such stack
        inst = random_unstructured_instance(n, dim, seed=n + dim)
        tracemalloc.start()
        try:
            run_circuit(kind, inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * dim**n * 16

    def test_post_equal_is_symmetrized(self):
        result = run_circuit(TestKind.SWAP, two_block(2, 1))
        want = np.zeros(4, dtype=complex)
        want[1] = want[2] = 1 / np.sqrt(2)
        assert result.equal.shape == (2, 2)
        assert np.allclose(result.equal.reshape(-1) / np.sqrt(result.p_equal), want)

    def test_alternation_on_two_equal_one_orthogonal(self):
        res = run_circuit(TestKind.ALTERNATION, QsiInstance([[1, 0], [0, 1], [0, 1]]))
        assert res.p_equal == pytest.approx(1 / 3, abs=1e-12)

    def test_works_on_unstructured_states(self):
        inst = random_unstructured_instance(3, 2, seed=8)
        result = run_circuit(TestKind.CIRCLE, inst)
        assert 0.0 <= result.p_equal <= 1.0 + 1e-12

    def test_circuit_caps(self, monkeypatch):
        # default budget 2^24: 54 * 4^10 and 20 * 2^20 amplitudes overflow it
        monkeypatch.delenv("QSI_MAX_AMPS", raising=False)
        with pytest.raises(CapExceededError, match="QSI_MAX_AMPS"):
            run_circuit(TestKind.PERMUTATION, yes_instance(10, dim=4))
        with pytest.raises(CapExceededError, match="QSI_MAX_AMPS"):
            run_circuit(TestKind.CIRCLE, yes_instance(20))

    @pytest.mark.parametrize(
        "kind,n,dim",
        [pytest.param(kind, n, 2, id=f"{kind}-{n}") for kind, n in (
            (TestKind.PERMUTATION, 7), (TestKind.ALTERNATION, 7),
            (TestKind.CIRCLE, 11), (TestKind.CIRCLE, 12), (TestKind.CIRCLE, 13),
            (TestKind.PERMUTATION, 9), (TestKind.ALTERNATION, 9),
            (TestKind.PERMUTATION, 10), (TestKind.ALTERNATION, 10))]
        + [(TestKind.PERMUTATION, 10, 3), (TestKind.ALTERNATION, 10, 3)],
    )
    def test_budget_alone_caps_the_circuit(self, kind, n, dim, monkeypatch):
        monkeypatch.delenv("QSI_MAX_AMPS", raising=False)
        for inst in (
            random_structured_instance(n, seed=90 + n, rotate=True, dim=dim, max_blocks=2),
            random_unstructured_instance(n, dim, seed=90 + n),
        ):
            assert inst.dim == dim
            circuit = run_circuit(kind, inst).p_equal
            assert abs(circuit - equal_prob_formula(kind, inst)) <= 1e-9

    def test_caps_checked_before_group_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("d^n content built before the cap check")

        monkeypatch.delenv("QSI_MAX_AMPS", raising=False)
        monkeypatch.setattr("qsilab.identity_tests.reduce", refuse)
        for kind in (TestKind.PERMUTATION, TestKind.ALTERNATION):
            with pytest.raises(CapExceededError, match="QSI_MAX_AMPS"):
                run_circuit(kind, yes_instance(10, dim=4))
        monkeypatch.setenv("QSI_MAX_AMPS", "100")  # 5 * 2^3 = 40 fits, 9 * 2^4 = 144 does not
        with pytest.raises(CapExceededError, match="QSI_MAX_AMPS"):
            run_circuit(TestKind.PERMUTATION, yes_instance(4))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_permutation_test_is_the_floor(self, n):
        # optimality of the permutation test: every test accepts at least perm(G)/n!
        for dim in (2, 3):
            inst = random_unstructured_instance(n, dim, seed=40 * n + dim)
            floor = ps_lower_bound(inst)
            for kind in ALL_KINDS[1:]:
                assert run_circuit(kind, inst).p_equal >= floor - 1e-12

    def test_amplitude_budget_env(self, monkeypatch):
        monkeypatch.setenv("QSI_MAX_AMPS", "7")  # swap on qubits needs 2 * 2^2 = 8
        with pytest.raises(CapExceededError, match="QSI_MAX_AMPS"):
            run_circuit(TestKind.SWAP, yes_instance(2))
        monkeypatch.setenv("QSI_MAX_AMPS", "8")
        run_circuit(TestKind.SWAP, yes_instance(2))


class TestEqualProbFormula:
    def test_yes_instance_is_one(self):
        for kind in ALL_KINDS:
            n = 2 if kind is TestKind.SWAP else 5
            assert equal_prob_formula(kind, yes_instance(n)) == pytest.approx(1.0, abs=1e-12)

    def test_two_block_example(self):
        assert equal_prob_formula(TestKind.PERMUTATION, two_block(3, 2)) == pytest.approx(1 / 3)

    def test_circle_lopsided_example(self):
        inst = build_instance(Partition.of([[1, 2, 3], [4]]).labels(), dim=2)
        assert equal_prob_formula(TestKind.CIRCLE, inst) == pytest.approx(0.25, abs=1e-12)

    def test_agrees_with_circuit(self):
        cases = []
        for seed in range(12):
            cases.append((TestKind.SWAP, random_structured_instance(2, seed=seed, rotate=seed % 2 == 0)))
            cases.append((TestKind.CIRCLE, random_structured_instance(2 + seed % 5, seed=100 + seed, max_blocks=3)))
            cases.append((TestKind.PERMUTATION, random_unstructured_instance(2 + seed % 3, 2, seed=200 + seed)))
            cases.append((TestKind.ALTERNATION, random_structured_instance(2 + seed % 4, seed=300 + seed, rotate=True, max_blocks=3)))
        for kind, inst in cases:
            circuit = run_circuit(kind, inst).p_equal
            formula = equal_prob_formula(kind, inst)
            assert abs(circuit - formula) <= 1e-9

    def test_circle_formula_large_n(self):
        # contiguous half-block on the 24-cycle: only the zero shift preserves it
        inst = build_instance(
            Partition.of([list(range(1, 13)), list(range(13, 25))]).labels(), dim=2
        )
        assert equal_prob_formula(TestKind.CIRCLE, inst) == pytest.approx(1 / 24, abs=1e-12)
        assert equal_prob_rational(TestKind.CIRCLE, inst) == Fraction(1, 24)

    def test_formula_cap(self):
        inst = yes_instance(11)
        with pytest.raises(CapExceededError):
            equal_prob_formula(TestKind.PERMUTATION, inst)


class TestPermanent:
    def test_small_matrices(self):
        assert permanent(np.eye(4)) == pytest.approx(1.0, abs=1e-15)
        assert permanent(np.ones((5, 5))) == pytest.approx(120.0, abs=1e-12)
        assert permanent(np.array([[7.0]])) == pytest.approx(7.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_permutation_sum(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = sum(np.prod([a[i, p[i]] for i in range(n)]) for p in permutations(range(n)))
        assert abs(permanent(a) - want) <= 1e-12 * max(1.0, abs(want))


class TestCircuitMatchesDenseOracle:
    @pytest.mark.parametrize("kind,n,dim", list(circuit_cases()))
    def test_distribution_and_post_state(self, kind, n, dim):
        for flavor in ("rotated", "unstructured"):
            inst = flavored_instance(flavor, n, seed=500 + 10 * n + dim, dim=dim)
            got, want = run_circuit(kind, inst), dense_run_circuit(kind, inst)
            assert abs(got.p_equal - want.p_equal) <= 1e-12
            assert got.equal.shape == want.post_equal.factor_dims
            post = got.equal.reshape(-1) / np.sqrt(got.p_equal)
            assert np.max(np.abs(post - want.post_equal.amps)) <= 1e-12


class TestFormulaMatchesGroupSum:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_up_to_nine(self, kind):
        for n in [2] if kind is TestKind.SWAP else range(2, 10):
            for flavor in FLAVORS:
                inst = flavored_instance(flavor, n, seed=700 + n)
                want = group_sum_formula(kind, inst)
                assert abs(equal_prob_formula(kind, inst) - want.real) <= 1e-11

    @pytest.mark.parametrize("kind", ALL_KINDS[1:])
    def test_ten(self, kind):
        rotated_yes = build_instance(
            Partition.of([list(range(1, 11))]).labels(), dim=2, rotation=haar_unitary(2, 11)
        )
        cases = [rotated_yes, flavored_instance("rotated", 10, seed=710),
                 flavored_instance("unstructured", 10, seed=711)]
        for inst in cases:
            want = group_sum_formula(kind, inst)
            assert abs(equal_prob_formula(kind, inst) - want.real) <= 1e-11


class TestRationalMatchesEnumeration:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_stabilizer_share_on_every_partition(self, n):
        for labels in set_partitions(n):
            part = partition_of_labels(labels)
            inst = build_instance(labels, dim=part.block_count)
            sym = Fraction(stabilizer_count(part, "sym"), math.factorial(n))
            alt = Fraction(stabilizer_count(part, "alt"), math.factorial(n) // 2)
            assert equal_prob_rational(TestKind.PERMUTATION, inst) == sym
            assert equal_prob_rational(TestKind.ALTERNATION, inst) == alt

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shift_share_on_every_label_sequence(self, n):
        kinds = [TestKind.SWAP, TestKind.CIRCLE] if n == 2 else [TestKind.CIRCLE]
        for labels in set_partitions(n):
            inst = build_instance(labels, dim=max(labels) + 1)
            for kind in kinds:
                assert equal_prob_rational(kind, inst) == shift_count_rational(labels)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    n=st.integers(2, 5),
    flavor=st.sampled_from(FLAVORS),
    seed=st.integers(0, 2**31 - 1),
)
def test_circuit_formula_group_sum_and_rational_agree(kind, n, flavor, seed):
    if kind is TestKind.SWAP:
        n = 2
    inst = flavored_instance(flavor, n, seed)
    circuit = run_circuit(kind, inst).p_equal
    formula = equal_prob_formula(kind, inst)
    assert abs(circuit - formula) <= 1e-10
    assert abs(formula - group_sum_formula(kind, inst).real) <= 1e-12
    if inst.labels is not None:
        assert abs(formula - float(equal_prob_rational(kind, inst))) <= 1e-10


class TestEqualProbRational:
    def test_requires_partition(self):
        with pytest.raises(ValueError, match="structured"):
            equal_prob_rational(TestKind.SWAP, random_unstructured_instance(2, 2, seed=0))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_two_block_matches_stabilizer_ratio(self, n):
        for l in range(1, n):
            inst = two_block(n, l)
            part = Partition.of([range(1, l + 1), range(l + 1, n + 1)])
            want_perm = Fraction(stabilizer_count(part, "sym"), math.factorial(n))
            assert equal_prob_rational(TestKind.PERMUTATION, inst) == want_perm
            if n >= 3:
                want_alt = Fraction(stabilizer_count(part, "alt"), math.factorial(n) // 2)
                assert equal_prob_rational(TestKind.ALTERNATION, inst) == want_alt
                assert want_alt == want_perm

    def test_circle_equals_repetition_ratio(self):
        for n, members in [(4, {1, 3}), (6, {1, 4}), (6, {1, 3, 5}), (12, {1, 2, 5, 6, 9, 10})]:
            a = Alignment(n, frozenset(members))
            inst = instance_from_alignment(a)
            s = repetition_set(a).s
            assert equal_prob_rational(TestKind.CIRCLE, inst) == Fraction(s, n)

    def test_rotation_does_not_change_rational(self):
        plain = two_block(4, 2)
        rotated = two_block(4, 2, rotation=haar_unitary(2, 3))
        for kind in (TestKind.CIRCLE, TestKind.PERMUTATION, TestKind.ALTERNATION):
            assert equal_prob_rational(kind, plain) == equal_prob_rational(kind, rotated)

    def test_block_relabeling_invariance(self):
        part = Partition.of([[1, 4], [2], [3, 5]])
        base = build_instance(part.labels(), dim=3)
        flip = np.zeros((3, 3))
        flip[[2, 0, 1], [0, 1, 2]] = 1.0  # permutation matrix reassigning basis vectors
        relabeled = build_instance(part.labels(), dim=3, rotation=flip)
        for kind in (TestKind.CIRCLE, TestKind.PERMUTATION, TestKind.ALTERNATION):
            assert abs(
                equal_prob_formula(kind, base) - equal_prob_formula(kind, relabeled)
            ) <= 1e-10

    def test_merging_blocks_never_decreases(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            inst = random_structured_instance(int(rng.integers(3, 7)), seed=int(rng.integers(10**6)))
            part = partition_of_labels(inst.labels)
            if part.block_count < 3:
                continue
            i, j = sorted(rng.choice(part.block_count, size=2, replace=False))
            blocks = list(part.blocks)
            merged_blocks = [b for k, b in enumerate(blocks) if k not in (i, j)]
            merged_blocks.append(blocks[i] | blocks[j])
            merged = build_instance(Partition(part.n, tuple(merged_blocks)).labels(), dim=inst.dim)
            for kind in (TestKind.PERMUTATION, TestKind.ALTERNATION):
                assert equal_prob_rational(kind, merged) >= equal_prob_rational(kind, inst)

    def test_prime_circle_at_most_one_over_n(self):
        for n in (5, 7):
            for mask in range(1, (1 << n) - 1):
                members = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                inst = instance_from_alignment(Alignment(n, members))
                assert equal_prob_rational(TestKind.CIRCLE, inst) == Fraction(1, n)


class TestRepetitionSet:
    def test_block_repeated_alignment(self):
        a = Alignment(12, frozenset({1, 2, 5, 6, 9, 10}))
        rep = repetition_set(a)
        assert (rep.s, rep.k) == (3, 4)
        assert rep.shifts == frozenset({0, 4, 8})

    def test_alternating(self):
        rep = repetition_set(Alignment(4, frozenset({1, 3})))
        assert rep.shifts == frozenset({0, 2})
        assert rep.s == 2

    def test_prime_cycle(self):
        for mask in range(1, 2**7 - 1):
            members = frozenset(i + 1 for i in range(7) if mask >> i & 1)
            assert repetition_set(Alignment(7, members)).s == 1

    def test_rejects_trivial_alignments(self):
        with pytest.raises(ValueError):
            repetition_set(Alignment(4, frozenset()))
        with pytest.raises(ValueError):
            repetition_set(Alignment(4, frozenset({1, 2, 3, 4})))

    def test_shift_set_structure(self):
        # the preserving shifts are exactly the multiples of n/s, and the set
        # is closed under scaling and gcd
        rng = np.random.default_rng(31)
        for n in list(range(2, 13)) + [16, 18, 20, 24]:
            masks: set[int] = set()
            if n <= 12:
                masks = set(range(1, (1 << n) - 1))
            else:
                while len(masks) < 300:
                    m = int(rng.integers(1, (1 << n) - 1))
                    masks.add(m)
            for mask in masks:
                members = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                rep = repetition_set(Alignment(n, members))
                assert rep.shifts == frozenset(j * rep.k for j in range(rep.s))
                for shift in rep.shifts:
                    for mult in (2, 3, 5):
                        assert (mult * shift) % n in rep.shifts
                    for other in rep.shifts:
                        if shift and other:
                            assert math.gcd(shift, other) % rep.k == 0
