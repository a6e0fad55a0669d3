"""The state-algebra oracles: tensor and inner products, the DFT, the
control measurement, and the joint-state and density-matrix objects. A pure
state is a plain 1-D complex array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_state, random_psd_density, unit
from oracles import (
    DensityMatrix,
    JointState,
    dft,
    inner,
    measure_first_register,
    mixture,
    pure_density,
    tensor,
    trace_distance,
)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brute-force Kronecker product, independent of np.kron."""
    out = np.empty(a.size * b.size, dtype=complex)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i * b.size + j] = x * y
    return out


class TestTensor:
    def test_single_state_identity(self):
        s = basis_state(2, 0)
        assert np.array_equal(tensor([s]), s)

    def test_computational_basis(self):
        t = tensor([basis_state(2, 0), basis_state(2, 1)])
        assert np.array_equal(t, np.array([0, 1, 0, 0], dtype=complex))

    def test_plus_minus_expansion(self):
        t = tensor([PLUS, MINUS])
        expected = kron_oracle(PLUS, MINUS)
        assert np.allclose(t, expected)
        assert np.allclose(t, np.array([1, -1, 1, -1]) / 2)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty tensor"):
            tensor([])

    def test_dim_multiplies(self):
        t = tensor([basis_state(2, 1), basis_state(3, 2), basis_state(2, 0)])
        assert t.size == 12

    def test_associativity_exact_on_dyadic_states(self):
        # amplitudes with tiny mantissas multiply exactly, so the two
        # association orders must agree bit for bit
        half4 = np.array([0.5, -0.5, 0.5, 0.5], dtype=complex)
        halfi = np.array([0.5j, 0.5, -0.5j, 0.5], dtype=complex)
        for a, b, c in [(half4, basis_state(2, 1), halfi),
                        (basis_state(3, 2), half4, half4),
                        (halfi, halfi, basis_state(2, 0))]:
            left = tensor([tensor([a, b]), c])
            right = tensor([a, tensor([b, c])])
            assert np.array_equal(left, right)

    def test_associativity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = (
                unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                for d in rng.integers(2, 4, size=3)
            )
            left = tensor([tensor([a, b]), c])
            right = tensor([a, tensor([b, c])])
            assert np.allclose(left, right, atol=1e-15, rtol=0)


class TestInner:
    def test_basis_cases(self):
        assert inner(basis_state(2, 0), basis_state(2, 0)) == 1
        assert inner(basis_state(2, 0), basis_state(2, 1)) == 0

    def test_plus_zero(self):
        assert inner(PLUS, basis_state(2, 0)) == pytest.approx(1 / np.sqrt(2))

    def test_conjugate_linear_in_first(self):
        s = unit([1j, 1])
        t = basis_state(2, 0)
        assert inner(s, t) == pytest.approx(np.conj(1j) / np.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(basis_state(2, 0), basis_state(3, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 6))
    def test_cauchy_schwarz(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = unit(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        b = unit(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        assert abs(inner(a, b)) <= 1 + 1e-12


class TestDft:
    def test_size_one(self):
        assert np.allclose(dft(1), [[1.0]])

    def test_size_two_is_hadamard(self):
        assert np.allclose(dft(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_positive_sign_convention(self):
        # entry (1,1) of the 4-point transform is +i under w = exp(+2*pi*i/4)
        assert dft(4)[1, 1] == pytest.approx(1j / 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 24, 120, 720])
    def test_unitary(self, n):
        f = dft(n)
        assert np.allclose(f @ f.conj().T, np.eye(n), atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dft(0)


class TestMeasureFirstRegister:
    def test_control_already_zero(self):
        s = JointState((2, 2), tensor([basis_state(2, 0), PLUS]))
        results = measure_first_register(s)
        assert len(results) == 1
        outcome, prob, post = results[0]
        assert outcome == 0 and prob == pytest.approx(1.0)
        assert np.allclose(post.amps, s.amps)

    def test_uniform_control_unentangled(self):
        s = JointState((2, 2), tensor([PLUS, basis_state(2, 1)]))
        results = measure_first_register(s)
        assert [o for o, _, _ in results] == [0, 1]
        for _, prob, post in results:
            assert prob == pytest.approx(0.5)
            assert np.linalg.norm(post.amps) == pytest.approx(1.0)

    def test_swap_test_joint_state_on_orthogonal_pair(self):
        # pre-measurement state (|0>(|ab>+|ba>) + |1>(|ab>-|ba>))/2
        ab = tensor([basis_state(2, 0), basis_state(2, 1)])
        ba = tensor([basis_state(2, 1), basis_state(2, 0)])
        amps = np.concatenate([(ab + ba) / 2, (ab - ba) / 2])
        results = measure_first_register(JointState((2, 2, 2), amps))
        probs = {o: p for o, p, _ in results}
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        _, _, post = results[0]
        content = post.amps.reshape(2, -1)[0]
        assert np.allclose(content, (ab + ba) / np.sqrt(2))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dims = (int(rng.integers(2, 5)), 2, 3)
            raw = rng.standard_normal(np.prod(dims)) + 1j * rng.standard_normal(np.prod(dims))
            s = JointState(dims, raw / np.linalg.norm(raw))
            results = measure_first_register(s)
            assert sum(p for _, p, _ in results) == pytest.approx(1.0, abs=1e-10)
            for _, _, post in results:
                assert np.linalg.norm(post.amps) == pytest.approx(1.0, abs=1e-10)

    def test_tiny_outcomes_omitted(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        results = measure_first_register(JointState((2, 2), amps))
        assert [o for o, _, _ in results] == [0]


class TestJointState:
    def test_length_must_match_dims(self):
        with pytest.raises(ValueError, match="product"):
            JointState((2, 3), np.ones(5) / np.sqrt(5))

    def test_norm_checked(self):
        with pytest.raises(ValueError, match="norm"):
            JointState((2,), np.array([1.0, 1.0]))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_pure_density(self):
        rho = pure_density(PLUS)
        assert np.allclose(rho.entries, np.full((2, 2), 0.5))


class TestTraceDistance:
    def test_identical_states(self):
        rho = pure_density(PLUS)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        r0 = pure_density(basis_state(2, 0))
        r1 = pure_density(basis_state(2, 1))
        assert trace_distance(r0, r1) == pytest.approx(1.0, abs=1e-12)

    def test_equal_vs_orthogonal_ensembles(self):
        zero, one = basis_state(2, 0), basis_state(2, 1)
        rho_y = mixture([(0.5, tensor([zero, zero])), (0.5, tensor([one, one]))])
        rho_n = mixture([(0.5, tensor([PLUS, MINUS])), (0.5, tensor([MINUS, PLUS]))])
        assert trace_distance(rho_y, rho_n) == pytest.approx(0.5, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(pure_density(PLUS), pure_density(basis_state(4, 0)))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            a, b, c = (random_psd_density(3, rng) for _ in range(3))
            ab, ba = trace_distance(a, b), trace_distance(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert ab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9
            assert -1e-12 <= ab <= 1 + 1e-12
