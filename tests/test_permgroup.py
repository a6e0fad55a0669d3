import math
from itertools import permutations as lex_permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Alignment,
    Partition,
    Permutation,
    cycle_power,
    enumerate_alt,
    enumerate_sym,
    perm_table,
    repetition_set,
    setwise_stabilizes,
    shift_count_rational,
    sign,
    sign_table,
    stabilizer_count,
)
from qsilab.identity_tests import fixed_shifts
from qsilab.instances import instance_from_json
from qsilab.limits import CapExceededError


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_call_is_one_based(self):
        p = Permutation((2, 3, 1))
        assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]

    def test_compose_order(self):
        p = Permutation((2, 1, 3))
        q = Permutation((1, 3, 2))
        assert (p * q)(2) == p(q(2))

    def test_inverse(self):
        p = Permutation((3, 1, 2))
        assert (p * p.inverse()).is_identity
        assert (p.inverse() * p).is_identity

    def test_identity(self):
        assert Permutation.identity(4).images == (1, 2, 3, 4)


class TestEnumerateSym:
    def test_n1(self):
        assert enumerate_sym(1) == [Permutation((1,))]

    def test_n3_count_and_first(self):
        perms = enumerate_sym(3)
        assert len(perms) == 6
        assert perms[0].is_identity

    def test_n5_size(self):
        assert len(enumerate_sym(5)) == 120

    def test_lexicographic_and_distinct(self):
        perms = enumerate_sym(4)
        rows = [p.images for p in perms]
        assert rows == sorted(rows)
        assert len(set(rows)) == math.factorial(4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_sym(0)
        with pytest.raises(CapExceededError):
            enumerate_sym(11)


class TestSign:
    def test_identity_even(self):
        assert sign(Permutation.identity(3)) == 1

    def test_transposition_odd(self):
        assert sign(Permutation((2, 1))) == -1

    def test_even_count_in_s4(self):
        assert sum(1 for p in enumerate_sym(4) if sign(p) == 1) == 12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**31 - 1))
    def test_homomorphism(self, n, seed):
        rng = np.random.default_rng(seed)
        p = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        q = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        assert sign(p * q) == sign(p) * sign(q)

    def test_sign_table_matches(self):
        for n in range(1, 7):
            expected = [sign(p) for p in enumerate_sym(n)]
            assert list(sign_table(n)) == expected


class TestEnumerateAlt:
    def test_n2(self):
        assert enumerate_alt(2) == [Permutation((1, 2))]

    def test_n3_is_cyclic_group(self):
        assert enumerate_alt(3) == [cycle_power(3, 0), cycle_power(3, 1), cycle_power(3, 2)]

    def test_n5_size_and_signs(self):
        alts = enumerate_alt(5)
        assert len(alts) == 60
        assert all(sign(p) == 1 for p in alts)

    def test_order_preserved(self):
        sym = [p.images for p in enumerate_sym(4)]
        alt = [p.images for p in enumerate_alt(4)]
        assert alt == [r for r in sym if r in set(alt)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_alt(1)


class TestCyclePower:
    def test_zero_is_identity(self):
        assert cycle_power(4, 0).is_identity

    def test_basic_shift(self):
        p = cycle_power(4, 1)
        assert [p(i) for i in (1, 2, 3, 4)] == [2, 3, 4, 1]

    def test_order_n(self):
        assert cycle_power(4, 4).is_identity

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 30), st.integers(0, 30))
    def test_powers_add(self, n, j, k):
        assert cycle_power(n, j) * cycle_power(n, k) == cycle_power(n, j + k)


class TestPartition:
    # the oracle and the instance file decoder refuse the same block lists
    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Partition(3, (frozenset({1, 2}), frozenset({2, 3})))
        with pytest.raises(ValueError, match="partition blocks must be disjoint"):
            instance_from_json({"n": 3, "dim": 2, "partition": [[1, 2], [2, 3]]})

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            Partition(3, (frozenset({1, 2}),))
        with pytest.raises(ValueError, match=r"blocks must cover 1..3 exactly, got \[1, 2\]"):
            instance_from_json({"n": 3, "dim": 2, "partition": [[1, 2]]})

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="nonempty"):
            Partition(2, (frozenset({1, 2}), frozenset()))
        with pytest.raises(ValueError, match="partition blocks must be nonempty"):
            instance_from_json({"n": 2, "dim": 2, "partition": [[1, 2], []]})

    def test_labels(self):
        part = Partition.of([[1, 3], [2]])
        assert part.labels() == (0, 1, 0)
        inst = instance_from_json({"n": 3, "dim": 2, "partition": [[2], [1, 3]]})
        assert inst.labels.tolist() == [0, 1, 0]


class TestFixedShifts:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_two_block_rows_match_repetition_set(self, n):
        rows = np.arange(1, (1 << n) - 1)[:, None] >> np.arange(n) & 1
        want = [repetition_set(Alignment(n, frozenset(np.flatnonzero(row) + 1))).s for row in rows]
        assert fixed_shifts(rows, n).tolist() == want

    @pytest.mark.parametrize("blocks", [3, 4])
    def test_many_block_rows_match_all_shift_count(self, blocks):
        rng = np.random.default_rng(blocks)
        rows = [np.tile(np.arange(blocks), 24 // blocks)]  # (0,1,2)*8 and (0,1,2,3)*6
        for _ in range(200):
            base = rng.permutation(np.resize(np.arange(blocks), int(rng.integers(blocks, 9))))
            rows.append(np.tile(base, int(rng.integers(1, 5))))
            rows.append(rng.integers(blocks, size=int(rng.integers(2, 25))))
        for row in rows:
            g = math.gcd(*np.bincount(row).tolist())
            want = shift_count_rational(tuple(row.tolist())) * len(row)
            assert fixed_shifts(row[None], g)[0] == want, row


class TestSetwiseStabilizes:
    def test_identity_always(self):
        part = Partition.of([[1, 2], [3]])
        assert setwise_stabilizes(Permutation.identity(3), part)

    def test_block_crossing(self):
        part = Partition.of([[1, 2], [3]])
        assert not setwise_stabilizes(Permutation((3, 2, 1)), part)

    def test_count_over_s3(self):
        part = Partition.of([[1, 2], [3]])
        count = sum(1 for p in enumerate_sym(3) if setwise_stabilizes(p, part))
        assert count == 2  # 2! * 1!


class TestStabilizerCount:
    def test_examples(self):
        part = Partition.of([[1, 2], [3, 4]])
        assert stabilizer_count(part, "sym") == 4
        assert stabilizer_count(part, "alt") == 2
        assert stabilizer_count(Partition.of([[1], [2, 3]]), "alt") == 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_two_block_sym_formula(self, n):
        for l in range(1, n):
            part = Partition.of([list(range(1, l + 1)), list(range(l + 1, n + 1))])
            assert stabilizer_count(part, "sym") == math.factorial(l) * math.factorial(n - l)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_two_block_alt_formula(self, n):
        for l in range(1, n):
            part = Partition.of([list(range(1, l + 1)), list(range(l + 1, n + 1))])
            assert stabilizer_count(part, "alt") == math.factorial(l) * math.factorial(n - l) // 2

    def test_multi_block_product_of_factorials(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            cuts = sorted(set(rng.integers(1, n, size=rng.integers(1, 3)).tolist()))
            edges = [0, *cuts, n]
            blocks = [list(range(a + 1, b + 1)) for a, b in zip(edges, edges[1:])]
            part = Partition.of(blocks)
            expected = math.prod(math.factorial(len(b)) for b in blocks)
            assert stabilizer_count(part, "sym") == expected

    def test_matches_direct_enumeration(self):
        part = Partition.of([[1, 4], [2, 3], [5]])
        direct = sum(1 for p in enumerate_sym(5) if setwise_stabilizes(p, part))
        assert stabilizer_count(part, "sym") == direct

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            stabilizer_count(Partition.of([[1]]), "dihedral")


def test_perm_table_matches_itertools():
    for n in range(1, 9):
        table = perm_table(n)
        assert table.dtype == np.int8
        assert not table.flags.writeable
        np.testing.assert_array_equal(table, np.array(list(lex_permutations(range(1, n + 1)))))
