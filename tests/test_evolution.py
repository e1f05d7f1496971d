import io
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import unit_bloch_vectors, unit_state
from oracles import cf4_states, naive_trajectory_csv, rodrigues

from scqsim.constants import HBAR
from scqsim.core import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from scqsim.errors import DimensionMismatchError, DomainError, IntegrationError
from scqsim.evolution import (
    DRIFT_WARN,
    BlochTrajectory,
    TimeGrid,
    _check_drift,
    propagate_static,
)
from scqsim.export import write_trajectory_csv
from scqsim.hamiltonians import (
    QubitParams,
    build_approximate,
    build_exact_two_level,
    build_fock,
    default_params,
)

E_J_REF = 1.359e-24
PSI0 = unit_state(1, 0)


def rabi_hamiltonian():
    return 0.5 * E_J_REF * SIGMA_X


class TestTimeGrid:
    def test_times(self):
        grid = TimeGrid(0.5, 4)
        assert np.array_equal(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            TimeGrid(0.0, 10)

    def test_rejects_zero_steps(self):
        with pytest.raises(DomainError):
            TimeGrid(1.0, 0)


class TestPropagateStatic:
    def test_identity_offset_freezes_bloch(self):
        # no gate charge: the exact two-level operator is a pure offset, a global phase
        H = build_exact_two_level(QubitParams("charge", E_c=7.55e-23,
                                              E_J=1.359e-24, E_LJ0=1.359e-24))
        psi0 = unit_state(2, -1j)
        traj = propagate_static(H + 3e-23 * IDENTITY_2, psi0, TimeGrid(1e-13, 1000))
        assert np.abs(traj.bloch - traj.bloch[0]).max() < 1e-12

    def test_rabi_rotation_closed_form(self):
        grid = TimeGrid(2e-13, 500)
        traj = propagate_static(rabi_hamiltonian(), PSI0, grid)
        theta = E_J_REF * grid.times / HBAR
        expected = np.column_stack([np.zeros_like(theta), -np.sin(theta), np.cos(theta)])
        assert np.abs(traj.bloch - expected).max() < 1e-9

    def test_tiny_step_returns_initial_state(self):
        traj = propagate_static(rabi_hamiltonian(), PSI0, TimeGrid(1e-25, 1))
        assert np.abs(traj.bloch[-1] - traj.bloch[0]).max() < 1e-9

    def test_norm_preserved(self):
        traj = propagate_static(rabi_hamiltonian(), PSI0, TimeGrid(1e-13, 200))
        assert np.abs(traj.norms - 1.0).max() < 1e-10

    def test_equals_matrix_exponential_per_sample(self):
        H = build_approximate(default_params("charge"))
        psi0 = unit_state(2, -1j)
        grid = TimeGrid(5e-14, 20)
        traj = propagate_static(H, psi0, grid)
        for t, psi in zip(grid.times, traj.states):
            U = expm(-1j * H * t / HBAR)
            assert np.abs(psi - U @ psi0).max() < 1e-12

    def test_energy_conserved(self):
        H = build_approximate(default_params("charge"))
        psi0 = unit_state(2, -1j)  # nonzero mean energy
        traj = propagate_static(H, psi0, TimeGrid(2.5e-15, 500))
        energy = np.einsum("ki,ij,kj->k", traj.states.conj(), H, traj.states).real
        assert (energy.max() - energy.min()) < 1e-9 * np.abs(energy).max()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            propagate_static(np.eye(3), PSI0, TimeGrid(1e-15, 1))

    @given(unit_bloch_vectors(), unit_bloch_vectors())
    def test_exact_on_a_coarse_grid(self, axis, r0):
        # ||H|| dt / hbar = 2: no step size limit, the Bloch vector turns about the
        # field axis by 2 ||H|| t / hbar at every sample
        energy = 1e-22
        H = energy * (axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z)
        theta = np.arccos(np.clip(r0[2], -1.0, 1.0))
        psi0 = np.array([np.cos(theta / 2),
                         np.exp(1j * np.arctan2(r0[1], r0[0])) * np.sin(theta / 2)])
        grid = TimeGrid(2 * HBAR / energy, 50)
        traj = propagate_static(H, psi0, grid)
        expected = np.array([rodrigues(axis, 2 * energy * t / HBAR) @ traj.bloch[0]
                             for t in grid.times])
        assert np.abs(traj.bloch - expected).max() < 1e-9


class TestCf4Oracle:
    def test_constant_matches_static(self):
        # a constant H: CF4 is exact and agrees with the eigendecomposition kernel
        H = build_approximate(default_params("charge"))
        psi0 = unit_state(1, 1j)
        grid = TimeGrid(6.25e-16, 200)
        states = cf4_states(lambda t: H, psi0, grid.times)
        assert np.abs(states - propagate_static(H, psi0, grid).states).max() < 1e-10

    def test_cf4_fourth_order_on_a_non_commuting_drive(self):
        # H(t) does not commute with itself at other times; h ||H|| / hbar about 1
        energy = 1e-22
        omega = 0.7 * energy / HBAR

        def h_of_t(t):
            return energy * (0.5 * SIGMA_Z + 0.6 * np.cos(omega * t) * SIGMA_X
                             + 0.3 * np.sin(omega * t) * SIGMA_Y)

        psi0 = unit_state(1, 0.5j)
        t_final = 20 * HBAR / energy
        exact = solve_ivp(lambda t, y: (-1j / HBAR) * (h_of_t(t) @ y), (0.0, t_final),
                          psi0, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
        errors = []
        for steps in (16, 32):
            grid = TimeGrid(t_final / steps, steps)
            step_angle = max(np.linalg.norm(h_of_t(t), 2) for t in grid.times) * grid.dt / HBAR
            assert 0.45 < step_angle < 1.0
            states = cf4_states(h_of_t, psi0, grid.times)
            assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12
            errors.append(np.abs(states[-1] - exact).max())
        assert errors[0] / errors[1] >= 12.0

    def test_zero_amplitude_drive_is_constant(self):
        psi0 = unit_state(1, 2j)
        states = cf4_states(lambda t: 0.0 * SIGMA_Z, psi0, TimeGrid(1e-14, 100).times)
        assert np.abs(states - psi0).max() < 1e-15

    def test_magnus_bound_raises_for_a_callable(self):
        # h ||H(t)|| / hbar about 9.5, with the drive varying inside the step
        h_of_t = lambda t: 1e-20 * (np.cos(1e13 * t) * SIGMA_X + SIGMA_Z)  # noqa: E731
        with pytest.raises(AssertionError, match="CF4 step angle .* reaches pi"):
            cf4_states(h_of_t, PSI0, TimeGrid(1e-13, 50).times)

    def test_identity_part_does_not_trip_the_magnus_bound(self):
        # 1e-20 I alone is about 9.5 per step, but only a global phase
        times = TimeGrid(1e-13, 50).times
        shifted = cf4_states(lambda t: 1e-20 * IDENTITY_2 + 1e-23 * SIGMA_X, PSI0, times)
        plain = cf4_states(lambda t: 1e-23 * SIGMA_X, PSI0, times)
        phase = np.exp(-1j * 1e-20 * times / HBAR)
        assert np.abs(shifted - phase[:, None] * plain).max() < 1e-12


def test_three_methods_agree():
    # the eigendecomposition kernel, CF4 and one matrix exponential per sample
    H = build_approximate(default_params("charge"))
    psi0 = unit_state(2, -1j)
    grid = TimeGrid(2.5e-15, 400)
    a = propagate_static(H, psi0, grid).states
    b = cf4_states(lambda t: H, psi0, grid.times)
    c = np.array([expm(-1j * H * t / HBAR) @ psi0
                  for t in grid.times])
    assert np.abs(a - b).max() < 1e-10
    assert np.abs(a - c).max() < 1e-10


class TestReadout:
    """The Bloch vector, <sigma> and leakage columns read from a state history."""

    def test_sigma_x_equals_bloch_x(self):
        traj = propagate_static(rabi_hamiltonian(), unit_state(1, 1j), TimeGrid(1e-13, 300))
        direct = np.einsum("ki,ij,kj->k", traj.states.conj(), SIGMA_X, traj.states).real
        assert np.abs(traj.expectations["sx"] - direct).max() < 1e-12
        assert np.abs(traj.expectations["sx"] - traj.bloch[:, 0]).max() < 1e-15

    def test_sigma_z_rabi_cosine(self):
        grid = TimeGrid(2e-13, 400)
        traj = propagate_static(rabi_hamiltonian(), PSI0, grid)
        expected = np.cos(E_J_REF * grid.times / HBAR)
        assert np.abs(traj.expectations["sz"] - expected).max() < 1e-9

    def test_two_level_run_has_no_leakage(self):
        traj = propagate_static(rabi_hamiltonian(), PSI0, TimeGrid(1e-13, 50))
        assert traj.leakage is None
        assert traj.states.shape == (51, 2)

    def test_fock_bloch_is_the_renormalized_qubit_projection(self):
        H = build_fock(default_params("charge"), 8)
        psi0 = np.zeros(8, dtype=complex)
        psi0[:2] = unit_state(0.6, 0.8j)
        traj = propagate_static(H, psi0, TimeGrid(1e-14, 100))
        captured = (np.abs(traj.states[:, :2]) ** 2).sum(axis=1)
        assert np.abs(traj.leakage - (1.0 - captured)).max() < 1e-12
        sigma = np.column_stack([traj.expectations[k] for k in ("sx", "sy", "sz")])
        assert np.abs(traj.bloch * captured[:, None] - sigma).max() < 1e-12
        # the qubit projection of a pure state is pure: the Bloch vector stays unit length
        assert np.abs(np.linalg.norm(traj.bloch, axis=1) - 1.0).max() < 1e-12


class TestBlochTrajectory:
    def test_final_bloch_is_the_last_sample(self):
        traj = propagate_static(rabi_hamiltonian(), PSI0, TimeGrid(1e-13, 20))
        assert np.array_equal(traj.final_bloch, traj.bloch[-1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BlochTrajectory(np.array([0.0, 1.0]), np.array([[0.0, 0.0, 1.0]]))

    def test_rejects_outside_ball(self):
        with pytest.raises(DomainError, match="unit ball"):
            BlochTrajectory(np.array([0.0]), np.array([[1.0, 1.0, 0.0]]))


class TestDriftCheck:
    def test_abort_threshold_raises(self):
        with pytest.raises(IntegrationError, match="state norm drifted by 2.000e-04"):
            _check_drift(2e-4, "state norm")

    def test_nan_drift_raises(self):
        # an overflowed run's norms are nan, which no threshold comparison catches
        with pytest.raises(IntegrationError, match="state norm drifted by nan"):
            _check_drift(float("nan"), "state norm")

    def test_degraded_run_is_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="scqsim.evolution"):
            _check_drift(1e-6, "state norm")
        assert "state norm drift 1.000e-06 exceeds 1e-08" in caplog.text

    def test_clean_run_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="scqsim.evolution"):
            _check_drift(DRIFT_WARN, "state norm")
        assert caplog.text == ""


class TestTrajectoryCsv:
    """The CSV writer against a repr-per-cell oracle, byte for byte."""

    def test_zero_drive_run_reuses_rows(self):
        # no gate charge: the exact two-level operator is a pure offset, every row repeats
        H = build_exact_two_level(replace(default_params("charge"), n_g=0.0))
        traj = propagate_static(H, PSI0, TimeGrid(1e-15, 50))
        stream = io.StringIO()
        write_trajectory_csv(traj, stream)
        lines = stream.getvalue().splitlines()
        assert len({line.split(",", 1)[1] for line in lines[1:]}) == 1
        assert stream.getvalue() == naive_trajectory_csv(traj)

    def test_fock_run_with_leakage_column(self):
        H = build_fock(default_params("charge"), 8)
        psi0 = np.zeros(8, dtype=complex)
        psi0[:2] = unit_state(0.6, 0.8j)
        traj = propagate_static(H, psi0, TimeGrid(1e-14, 100))
        stream = io.StringIO()
        write_trajectory_csv(traj, stream)
        assert stream.getvalue().splitlines()[0].endswith(",norm,leakage")
        assert traj.leakage.max() > 0
        assert stream.getvalue() == naive_trajectory_csv(traj)
