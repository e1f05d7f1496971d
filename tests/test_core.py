import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import kernel_states, pure_states, unit_bloch_vectors
from oracles import scaled_taylor_expm, taylor_expm

from scqsim.constants import HBAR
from scqsim.core import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_from_state, scaled_norm
from scqsim.errors import ConfigError, NumericError
from scqsim.evolution import _propagate_eigen, _state_blocks


def kernel_accepts(H) -> bool:
    """Whether the eigen kernel propagates under H; it refuses a non-Hermitian one."""
    try:
        next(_state_blocks(H, np.eye(len(H), dtype=complex)[0], np.zeros(1)))
    except ConfigError:
        return False
    return True


def kernel_propagator(H, theta) -> np.ndarray:
    """exp(-i theta H) as the eigen kernel forms it at elapsed time hbar theta, by
    linearity from the states e_0 and e_0 + e_j."""
    def propagate(psi):
        return kernel_states(H, psi, [HBAR * theta])[0]

    basis = np.eye(len(H), dtype=complex)
    first = propagate(basis[0])
    return np.column_stack([first] + [propagate(basis[0] + e) - first for e in basis[1:]])


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

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ConfigError):
            bloch_from_state(np.array([1.0, 0, 0]))

    @given(pure_states())
    def test_unit_norm_and_pauli_expectations(self, psi):
        r = bloch_from_state(psi)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-9
        expected = [np.vdot(psi, P @ psi).real for P in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        assert np.allclose(r, expected, atol=1e-12)

    @given(unit_bloch_vectors())
    def test_unit_norm_and_roundtrip(self, r):
        # (cos(theta/2), e^(i phi) sin(theta/2)) has Bloch vector r
        theta = np.arccos(np.clip(r[2], -1.0, 1.0))
        phi = np.arctan2(r[1], r[0])
        psi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        back = bloch_from_state(psi)
        assert abs(np.linalg.norm(back) - 1.0) < 1e-12
        # sqrt(eps) is the conditioning floor of Bloch coordinates at the poles
        assert np.allclose(back, r, atol=1e-7)


class TestPaulis:
    def test_squares_are_the_identity(self):
        for P in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert np.array_equal(P @ P, IDENTITY_2)

    def test_product_rule_and_anticommutation(self):
        assert np.array_equal(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
        assert np.array_equal(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
        assert np.array_equal(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)
        for P, Q in ((SIGMA_X, SIGMA_Y), (SIGMA_Y, SIGMA_Z), (SIGMA_Z, SIGMA_X)):
            assert np.array_equal(P @ Q + Q @ P, np.zeros((2, 2)))


class TestScaledNorm:
    def test_large_amplitude_does_not_overflow(self):
        # the squared norm 1e400 overflows; scaling first keeps the small part
        scaled, norm, _ = scaled_norm(np.array([1e200, 1], dtype=complex))
        psi = scaled / norm
        assert psi[0] == 1.0 and psi[1] == pytest.approx(1e-200, rel=1e-15)

    def test_tiny_amplitudes_do_not_underflow(self):
        scaled, norm, _ = scaled_norm(np.array([1e-200, 1e-200j]))
        assert np.allclose(scaled / norm, np.array([1, 1j]) / np.sqrt(2))

    def test_zero_vector_has_zero_norm(self):
        # callers reject it: there is no direction to normalize to
        _, norm, _ = scaled_norm(np.zeros(2, dtype=complex))
        assert norm == 0.0

    def test_scaled_part_and_exponent_rebuild_the_input(self):
        x = np.array([3e150, -4e150j])
        scaled, norm, exponent = scaled_norm(x)
        assert 0.5 <= np.abs(scaled.view(float)).max() < 1.0
        assert np.array_equal(np.ldexp(scaled.view(float), exponent), x.view(float))
        assert norm * 2.0**exponent == pytest.approx(5e150, rel=1e-15)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: abs(v) > 1e-3),
                    min_size=3, max_size=3),
           st.integers(min_value=-900, max_value=900))
    def test_direction_is_bitwise_scale_free(self, parts, shift):
        x = np.array(parts)
        plain = x / np.linalg.norm(x)
        scaled, norm, _ = scaled_norm(np.ldexp(x, shift))
        assert np.array_equal(scaled / norm, plain)


class TestIsHermitian:
    """The Hermitian test of the eigen kernel, run before every eigh: to 1e-12 of
    max(1, |H|max)."""

    def test_accepts_a_hermitian_matrix(self):
        assert kernel_accepts(0.3 * SIGMA_X + 0.7 * SIGMA_Y - 2.0 * SIGMA_Z)

    def test_rejects_a_skew_part(self):
        assert not kernel_accepts(SIGMA_X + 1e-6j * IDENTITY_2)

    def test_tolerance_is_relative_to_the_largest_entry(self):
        # an asymmetry of 1e10 on entries of 1e23 is below 1e-12 of the scale, 1e12 is not
        A = 1e23 * SIGMA_X
        A[0, 1] += 1e10
        assert kernel_accepts(A)
        A[0, 1] += 1e12
        assert not kernel_accepts(A)


class TestMatrixExponential:
    """The propagator exp(-i H t / hbar) that the eigen kernel forms, against
    closed forms and the Taylor oracles, and the kernel's input checks."""

    def test_zero_matrix(self):
        assert np.allclose(kernel_propagator(np.zeros((3, 3), dtype=complex), 1.0), np.eye(3))

    def test_half_pi_sigma_x(self):
        expected = taylor_expm(-1j * (np.pi / 2) * SIGMA_X)
        result = kernel_propagator(SIGMA_X, np.pi / 2)
        assert np.abs(result - expected).max() < 1e-12
        assert np.abs(result - (-1j * SIGMA_X)).max() < 1e-12

    def test_diagonal_closed_form(self):
        theta = 0.7
        result = kernel_propagator(-SIGMA_Z, theta)  # exp(i theta sigma_z)
        expected = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        assert np.abs(result - expected).max() < 1e-12
        assert np.abs(result - taylor_expm(1j * theta * SIGMA_Z)).max() < 1e-12

    def test_non_finite_entries(self):
        with pytest.raises(NumericError):
            kernel_accepts(np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(NumericError):
            kernel_accepts(np.array([[1, np.inf], [np.inf, 1]], dtype=complex))

    def test_non_square(self):
        with pytest.raises(ConfigError):
            _propagate_eigen(np.ones((2, 3), dtype=complex), [1, 0], np.zeros(1), np.zeros(1))

    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4))
    def test_skew_hermitian_gives_unitary(self, coeffs):
        H = (coeffs[0] * SIGMA_X + coeffs[1] * SIGMA_Y + coeffs[2] * SIGMA_Z
             + coeffs[3] * IDENTITY_2)
        U = kernel_propagator(H, 1.0)
        assert np.abs(U.conj().T @ U - IDENTITY_2).max() <= 1e-10

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
    def test_matches_taylor_oracle_up_to_norm_ten(self, dim, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = (B + B.conj().T) / 2
        H *= 10.0 / max(np.linalg.norm(H, 2), 10.0)  # clip to norm <= 10
        assert np.abs(kernel_propagator(H, 1.0) - scaled_taylor_expm(-1j * H)).max() < 1e-9
