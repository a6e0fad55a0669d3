import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import all_orthogonal, two_block, yes_instance
from oracles import (
    group_sum_formula,
    lex_ps_lower_bound,
    mixture,
    pure_density,
    symmetric_projector,
    tensor,
    trace_distance,
)
from qsilab.bounds import (
    basel_asymptote,
    eq2_bound,
    inverse_square_tail_bracket,
    ps_lower_bound,
    q_case,
    q_value,
    two_block_soundness,
    two_sided_gap_check,
)
from qsilab.identity_tests import TestKind, equal_prob_formula, equal_prob_rational
from qsilab.instances import (
    build_instance,
    random_structured_instance,
    random_unstructured_instance,
)
from qsilab.limits import RCIR_EXACT_MAX_N, CapExceededError


class TestTwoBlockSoundness:
    def test_examples(self):
        assert two_block_soundness(3, 2) == Fraction(1, 3)
        assert two_block_soundness(6, 3) == Fraction(1, 20)
        for n in range(2, 10):
            assert two_block_soundness(n, 1) == Fraction(1, n)

    def test_float_view_consistent(self):
        value = two_block_soundness(8, 3)
        assert type(value) is Fraction
        assert float(value) == pytest.approx(6 * 120 / 40320, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_exact_group_probability(self, n):
        for l in range(1, n):
            inst = two_block(n, l)
            assert (
                equal_prob_rational(TestKind.PERMUTATION, inst)
                == two_block_soundness(n, l)
            )

    def test_never_exceeds_one_over_n(self):
        for n in range(2, 41):
            for l in range(1, n):
                assert two_block_soundness(n, l) <= Fraction(1, n)

    def test_input_validation(self):
        assert two_block_soundness(RCIR_EXACT_MAX_N, 1) == Fraction(1, RCIR_EXACT_MAX_N)
        with pytest.raises(CapExceededError, match=f"n={RCIR_EXACT_MAX_N}"):
            two_block_soundness(RCIR_EXACT_MAX_N + 1, 1)
        with pytest.raises(ValueError):
            two_block_soundness(5, 5)
        with pytest.raises(ValueError):
            two_block_soundness(5, 0)


class TestQValue:
    def test_examples(self):
        assert q_value(12, 6, 3) == Fraction(1, 616)
        assert q_value(4, 2, 2) == Fraction(1, 6)
        for n, r in [(6, 3), (10, 4), (9, 3)]:
            assert q_value(n, r, 1) == Fraction(1, n)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            q_value(12, 6, 5)
        with pytest.raises(ValueError):
            q_value(12, 5, 2)

    def test_r_range(self):
        with pytest.raises(ValueError):
            q_value(12, 7, 1)

    def test_n_cap(self):
        assert q_value(RCIR_EXACT_MAX_N, 1, 1) == Fraction(1, RCIR_EXACT_MAX_N)
        with pytest.raises(CapExceededError, match=f"n={RCIR_EXACT_MAX_N}"):
            q_value(RCIR_EXACT_MAX_N + 1, 1, 1)


class TestQBoundCheck:
    def test_case_labels(self):
        assert q_case(12, 6, 3) == ("s=r/2", Fraction(6, 990))
        assert q_case(8, 4, 4) == ("s=r", Fraction(2, 56))
        assert q_case(18, 9, 3) == ("s<=r/3", Fraction(1, 162))
        with pytest.raises(ValueError, match="must divide"):
            q_value(10, 5, 2)  # 2 does not divide 5, so q_case is not asked

    def test_examples_hold(self):
        assert q_value(12, 6, 3) <= q_case(12, 6, 3)[1]  # 1/616 <= 6/990
        assert q_value(8, 4, 4) <= q_case(8, 4, 4)[1]    # 1/70 <= 2/56
        assert q_value(18, 9, 3) <= q_case(18, 9, 3)[1]

    def test_grid_holds_everywhere(self):
        # every divisor s of r is <= r/3, = r/2, or = r, so every triple has a case
        for n in range(4, 31):
            for r in range(1, n // 2 + 1):
                for s in range(2, r + 1):
                    if n % s or r % s:
                        continue
                    assert q_value(n, r, s) <= q_case(n, r, s)[1], (n, r, s)


class TestEq2Bound:
    def test_prime_is_one_over_n(self):
        for n in (5, 7, 11, 13):
            for r in range(1, n // 2 + 1):
                assert eq2_bound(n, r) == Fraction(1, n)

    def test_small_examples(self):
        assert eq2_bound(4, 2) == Fraction(1, 4) + Fraction(1, 6)
        expected = (
            Fraction(1, 12)
            + q_value(12, 6, 2)
            + q_value(12, 6, 3)
            + q_value(12, 6, 6)
        )
        assert eq2_bound(12, 6) == expected
        assert eq2_bound(12, 6) == Fraction(71, 792)

    def test_n_cap(self):
        n = RCIR_EXACT_MAX_N
        assert len(str(eq2_bound(n, n // 2).denominator)) <= 4300
        with pytest.raises(CapExceededError, match=f"n={n}"):
            eq2_bound(n + 1, 1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eq2_bound(8, 5)


class TestBasel:
    def test_point_value(self):
        assert basel_asymptote(6) == pytest.approx(math.pi**2 / 36)
        assert basel_asymptote(6) == pytest.approx(0.27416, abs=5e-6)

    def test_leading_constant_below_seventeen_tenths(self):
        assert basel_asymptote(10) < 1.7 / 10
        assert math.pi**2 / 6 < 1.7

    def test_tail_bracket(self):
        lo, hi = inverse_square_tail_bracket(20_000)
        target = math.pi**2 / 6 - 1
        assert lo <= target <= hi
        assert hi - lo <= 1e-8

    def test_bracket_requires_terms(self):
        with pytest.raises(ValueError):
            inverse_square_tail_bracket(1)


class TestSymmetricProjector:
    def test_single_register_is_identity(self):
        assert np.allclose(symmetric_projector(3, 1), np.eye(3))

    @pytest.mark.parametrize(
        "dim,n,trace", [(2, 2, 3), (2, 3, 4), (3, 2, 6), (2, 4, 5)]
    )
    def test_trace_counts_symmetric_dimension(self, dim, n, trace):
        proj = symmetric_projector(dim, n)
        assert np.trace(proj).real == pytest.approx(trace, abs=1e-10)
        assert math.comb(dim + n - 1, n) == trace

    def test_idempotent_and_hermitian(self):
        for dim, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            proj = symmetric_projector(dim, n)
            assert np.allclose(proj @ proj, proj, atol=1e-10)
            assert np.allclose(proj, proj.conj().T, atol=1e-10)

    def test_fixes_product_powers(self):
        psi = np.array([1, 2j, -0.5]) / np.linalg.norm([1, 2j, -0.5])
        vec = tensor([psi, psi, psi])
        proj = symmetric_projector(3, 3)
        assert np.allclose(proj @ vec, vec, atol=1e-10)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            symmetric_projector(2, 13)


class TestPsLowerBound:
    def test_yes_instance(self):
        assert ps_lower_bound(yes_instance(4)) == pytest.approx(1.0, abs=1e-12)

    def test_worst_case_no_instance(self):
        inst = build_instance([0, 1, 1], dim=2)
        assert ps_lower_bound(inst) == pytest.approx(1 / 3, abs=1e-14)

    def test_all_orthogonal_three(self):
        assert ps_lower_bound(all_orthogonal(3)) == pytest.approx(1 / 6, abs=1e-14)

    def test_matches_dense_projector(self):
        cases = [
            two_block(3, 2),
            two_block(4, 1),
            all_orthogonal(3),
            random_structured_instance(3, seed=5, rotate=True),
            random_structured_instance(4, seed=6, rotate=True, max_blocks=2),
            random_unstructured_instance(3, 2, seed=3),
            random_unstructured_instance(2, 3, seed=11),
            random_unstructured_instance(4, 2, seed=12),
            random_unstructured_instance(3, 4, seed=13),
        ]
        for inst in cases:
            proj = symmetric_projector(inst.dim, inst.n)
            rho = pure_density(tensor(list(inst.states)))
            dense = float(np.trace(proj @ rho.entries).real)
            assert abs(dense - ps_lower_bound(inst)) <= 1e-9

    def test_floors_every_test(self):
        for seed in range(8):
            inst = random_structured_instance(2 + seed % 4, seed=40 + seed, max_blocks=3)
            floor = ps_lower_bound(inst)
            for kind in TestKind:
                if kind is TestKind.SWAP and inst.n != 2:
                    continue
                assert equal_prob_formula(kind, inst) >= floor - 1e-9

    def test_matches_lex_permutation_oracle(self):
        # under the promise every |G[i,j]| is 0 or 1 and the phases cancel
        # around each cycle, so the |G|^2 products equal the G products;
        # arbitrary states need the complex group sum
        promise = [two_block(5, 2), all_orthogonal(4), yes_instance(6)]
        for n in range(2, 9):
            promise.append(random_structured_instance(n, seed=60 + n, rotate=True))
            inst = random_unstructured_instance(n, 2, seed=70 + n)
            want = group_sum_formula(TestKind.PERMUTATION, inst).real
            assert abs(ps_lower_bound(inst) - want) <= 1e-12
        for inst in promise:
            assert abs(ps_lower_bound(inst) - lex_ps_lower_bound(inst)) <= 1e-12

    def test_cap(self):
        # the permutation test's own range and cap, since its formula evaluates the bound
        with pytest.raises(CapExceededError,
                           match="permutation and alternation tests capped at n=10, got 11"):
            ps_lower_bound(yes_instance(11))
        with pytest.raises(ValueError, match="at least 2 states, got 1"):
            ps_lower_bound(yes_instance(1))

    def test_is_the_permutation_formula(self):
        # one evaluator, so one rounding: the real part of perm(G) over n!
        cases = [build_instance([0] + [1] * (n - 1), dim=2) for n in range(2, 9)]
        cases += [random_unstructured_instance(n, 3, seed=90 + n) for n in range(2, 9)]
        for inst in cases:
            assert ps_lower_bound(inst) == equal_prob_formula(TestKind.PERMUTATION, inst)
        assert ps_lower_bound(cases[4]) == 1 / 6


class TestTwoSidedGap:
    def test_report_values(self):
        report = two_sided_gap_check()
        assert report.trace_dist == pytest.approx(0.5, abs=1e-10)
        assert report.completeness_error == pytest.approx(0.0, abs=1e-12)
        assert report.soundness_error == pytest.approx(0.5, abs=1e-12)
        assert report.error_sum == pytest.approx(0.5, abs=1e-10)
        assert report.achieves_lower_bound

    def test_trace_distance_matches_density_oracle(self):
        zero, one = np.eye(2, dtype=complex)
        plus, minus = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        rho_equal = mixture([(0.5, tensor([zero, zero])), (0.5, tensor([one, one]))])
        rho_orth = mixture([(0.5, tensor([plus, minus])), (0.5, tensor([minus, plus]))])
        assert two_sided_gap_check().trace_dist == trace_distance(rho_equal, rho_orth)


class TestRationalBound:
    def test_float_view(self):
        # every rational bound is a plain Fraction, its float view float(value)
        for value in (two_block_soundness(8, 3), q_value(12, 6, 3), q_case(12, 6, 3)[1],
                      q_case(12, 6, 6)[1], q_case(12, 6, 2)[1], eq2_bound(12, 6)):
            assert type(value) is Fraction
            assert float(value) == value.numerator / value.denominator
