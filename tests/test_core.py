import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ball_bloch_vectors, pure_states, unit_bloch_vectors
from oracles import rodrigues, scaled_taylor_expm, taylor_expm

from scqsim.core import (
    IDENTITY_2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_from_density,
    bloch_from_state,
    density_from_bloch,
    density_from_state,
    expectation,
    is_unitary,
    matrix_exponential,
    normalize_state,
    phase_distance,
    rotate_bloch,
    rotation_operator,
    state_from_bloch,
)
from scqsim.errors import (
    DimensionMismatchError,
    InvalidAxisError,
    InvalidBlochError,
    InvalidStateError,
    NumericError,
)


class TestBlochFromState:
    def test_charge_example(self):
        psi = np.array([2, -1j]) / np.sqrt(5)
        assert np.allclose(bloch_from_state(psi), [0, -4 / 5, 3 / 5], atol=1e-12)

    def test_north_pole(self):
        assert np.allclose(bloch_from_state([1, 0]), [0, 0, 1], atol=1e-15)

    def test_charge_final_state(self):
        psi = np.array([1, 2 + 1j]) / np.sqrt(6)
        assert np.allclose(bloch_from_state(psi), [2 / 3, 1 / 3, -2 / 3], atol=1e-12)

    def test_phase_initial_state_x_sign(self):
        # direct formula gives x = -6/11, not the +0.545 sometimes quoted
        psi = np.array([-2, 3 - 3j]) / np.sqrt(22)
        assert np.allclose(bloch_from_state(psi), [-6 / 11, 6 / 11, -7 / 11], atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            bloch_from_state(np.array([2.0, -1j]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            bloch_from_state(np.array([1.0, 0, 0]))

    @given(pure_states())
    def test_unit_norm_and_roundtrip(self, psi):
        r = bloch_from_state(psi)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-9
        # sqrt(eps) is the conditioning floor of Bloch coordinates at the poles
        assert np.allclose(bloch_from_state(state_from_bloch(r)), r, atol=1e-7)


class TestNormalizeState:
    def test_large_amplitude_does_not_overflow(self):
        # the squared norm 1e400 overflows; scaling first keeps the small part
        psi = normalize_state([1e200, 1])
        assert psi[0] == 1.0 and psi[1] == pytest.approx(1e-200, rel=1e-15)

    def test_tiny_amplitudes_do_not_underflow(self):
        assert np.allclose(normalize_state([1e-200, 1e-200j]), np.array([1, 1j]) / np.sqrt(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidStateError):
            normalize_state([0, 0])


class TestDensityFromBloch:
    def test_north_pole(self):
        assert np.allclose(density_from_bloch([0, 0, 1]), [[1, 0], [0, 0]])

    def test_maximally_mixed(self):
        assert np.allclose(density_from_bloch([0, 0, 0]), 0.5 * IDENTITY_2)

    def test_plus_x(self):
        assert np.allclose(density_from_bloch([1, 0, 0]), 0.5 * np.ones((2, 2)))

    def test_rejects_outside_ball(self):
        with pytest.raises(InvalidBlochError):
            density_from_bloch([1.0, 1.0, 0.0])

    @given(ball_bloch_vectors())
    def test_hermitian_trace_one_psd(self, r):
        rho = density_from_bloch(r)
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    @given(ball_bloch_vectors())
    def test_pauli_expectations_recover_components(self, r):
        rho = density_from_bloch(r)
        assert np.allclose(bloch_from_density(rho), r, atol=1e-10)


class TestExpectation:
    def test_ground_state_sz(self):
        assert expectation(density_from_bloch([0, 0, 1]), SIGMA_Z) == pytest.approx(1.0)

    def test_plus_state_sx(self):
        rho = density_from_state(normalize_state([1, 1]))
        assert expectation(rho, SIGMA_X) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(np.eye(2) / 2, np.eye(3))

    @given(ball_bloch_vectors(), unit_bloch_vectors(),
           st.floats(min_value=-6.0, max_value=6.0))
    def test_unitary_invariance(self, r, axis, angle):
        rho = density_from_bloch(r)
        X = SIGMA_X + 0.3 * SIGMA_Z
        U = rotation_operator(axis, angle)
        lhs = expectation(U @ rho @ U.conj().T, X)
        rhs = expectation(rho, U.conj().T @ X @ U)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_half_pi_sigma_x(self):
        A = -1j * (np.pi / 2) * SIGMA_X
        expected = taylor_expm(A)
        result = matrix_exponential(A)
        assert np.abs(result - expected).max() < 1e-12
        assert np.abs(result - (-1j * SIGMA_X)).max() < 1e-12

    def test_diagonal_closed_form(self):
        theta = 0.7
        result = matrix_exponential(1j * theta * SIGMA_Z)
        expected = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        assert np.abs(result - expected).max() < 1e-12
        assert np.abs(result - taylor_expm(1j * theta * SIGMA_Z)).max() < 1e-12

    def test_non_finite_entries(self):
        with pytest.raises(NumericError):
            matrix_exponential(np.array([[np.nan, 0], [0, 1]]))

    def test_non_square(self):
        with pytest.raises(DimensionMismatchError):
            matrix_exponential(np.ones((2, 3)))

    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4))
    def test_skew_hermitian_gives_unitary(self, coeffs):
        H = (coeffs[0] * SIGMA_X + coeffs[1] * SIGMA_Y + coeffs[2] * SIGMA_Z
             + coeffs[3] * IDENTITY_2)
        U = matrix_exponential(-1j * H)
        assert is_unitary(U, tol=1e-10)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
    def test_matches_taylor_oracle_up_to_norm_ten(self, dim, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        A *= 10.0 / max(np.linalg.norm(A, 2), 10.0)  # clip to norm <= 10
        assert np.abs(matrix_exponential(A) - scaled_taylor_expm(A)).max() < 1e-9


class TestRotationOperator:
    def test_zero_angle(self):
        assert np.allclose(rotation_operator([0, 0, 1], 0.0), IDENTITY_2)

    def test_pi_about_z(self):
        expected = taylor_expm(-1j * (np.pi / 2) * SIGMA_Z)
        assert np.abs(rotation_operator([0, 0, 1], np.pi) - expected).max() < 1e-12
        assert np.abs(rotation_operator([0, 0, 1], np.pi) - (-1j * SIGMA_Z)).max() < 1e-12

    @given(unit_bloch_vectors())
    def test_two_pi_is_minus_identity(self, axis):
        assert np.abs(rotation_operator(axis, 2 * np.pi) + IDENTITY_2).max() < 1e-12

    def test_rejects_non_unit_axis(self):
        with pytest.raises(InvalidAxisError):
            rotation_operator([0.5, 0.5, 0.5], 1.0)

    @given(unit_bloch_vectors(), st.floats(min_value=-6.0, max_value=6.0),
           st.floats(min_value=-6.0, max_value=6.0))
    def test_group_property(self, axis, a, b):
        Uab = rotation_operator(axis, a) @ rotation_operator(axis, b)
        assert phase_distance(Uab, rotation_operator(axis, a + b)) < 1e-9

    @given(unit_bloch_vectors(), unit_bloch_vectors(),
           st.floats(min_value=-6.0, max_value=6.0))
    def test_conjugation_matches_rotation_matrix(self, axis, r, angle):
        rotated = rotate_bloch(axis, angle, r)
        assert np.allclose(rotated, rodrigues(axis, angle) @ r, atol=1e-9)
