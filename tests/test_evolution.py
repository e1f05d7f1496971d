import io
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import naive_trajectory_csv

from scqsim.constants import HBAR
from scqsim.core import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    density_from_state,
    normalize_state,
)
from scqsim.errors import (
    DimensionMismatchError,
    DomainError,
    IntegrationError,
    MissingDataError,
)
from scqsim.evolution import (
    BlochTrajectory,
    TimeGrid,
    evolve_master,
    evolve_time_dependent,
    observable_series,
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
PSI0 = normalize_state([1, 0])


def rabi_hamiltonian():
    return 0.5 * E_J_REF * SIGMA_X


class TestTimeGrid:
    def test_times(self):
        grid = TimeGrid(1.0, 0.5, 4)
        assert np.allclose(grid.times, [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            TimeGrid(0.0, 0.0, 10)

    def test_rejects_zero_steps(self):
        with pytest.raises(DomainError):
            TimeGrid(0.0, 1.0, 0)


class TestPropagateStatic:
    def test_identity_offset_freezes_bloch(self):
        H = build_exact_two_level(QubitParams("charge", E_c=7.55e-23,
                                              E_J=1.359e-24, E_LJ0=1.359e-24))
        psi0 = normalize_state([2, -1j])
        traj = propagate_static(H, psi0, TimeGrid(0.0, 1e-13, 1000))
        assert np.abs(traj.bloch - traj.bloch[0]).max() < 1e-12

    def test_rabi_rotation_closed_form(self):
        grid = TimeGrid(0.0, 2e-13, 500)
        traj = propagate_static(rabi_hamiltonian(), PSI0, grid)
        theta = E_J_REF * grid.times / HBAR
        expected = np.column_stack([np.zeros_like(theta), -np.sin(theta), np.cos(theta)])
        assert np.abs(traj.bloch - expected).max() < 1e-9

    def test_tiny_step_returns_initial_state(self):
        traj = propagate_static(rabi_hamiltonian(), PSI0, TimeGrid(0.0, 1e-25, 1))
        assert np.abs(traj.bloch[-1] - traj.bloch[0]).max() < 1e-9

    def test_norm_preserved(self):
        traj = propagate_static(rabi_hamiltonian(), PSI0, TimeGrid(0.0, 1e-13, 200))
        assert np.abs(traj.norms - 1.0).max() < 1e-10

    def test_equals_matrix_exponential_per_sample(self):
        from scqsim.core import matrix_exponential
        H = build_approximate(default_params("charge"))
        psi0 = normalize_state([2, -1j])
        grid = TimeGrid(0.0, 5e-14, 20)
        traj = propagate_static(H, psi0, grid)
        for t, psi in zip(grid.times, traj.states):
            U = matrix_exponential(-1j * H.traceless() * t / HBAR)
            assert np.abs(psi - U @ psi0).max() < 1e-12

    def test_energy_conserved(self):
        H = build_approximate(default_params("charge"))
        psi0 = normalize_state([2, -1j])  # nonzero mean energy
        traj = propagate_static(H, psi0, TimeGrid(0.0, 2.5e-15, 500))
        energy = observable_series(traj, H.matrix)
        assert (energy.max() - energy.min()) < 1e-9 * np.abs(energy).max()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            propagate_static(np.eye(3), PSI0, TimeGrid(0.0, 1e-15, 1))


class TestTimeDependent:
    def test_constant_matches_static(self):
        H = build_approximate(default_params("charge"))
        psi0 = normalize_state([1, 1j])
        grid = TimeGrid(0.0, 2.5e-15, 500)
        static = propagate_static(H, psi0, grid)
        rk4 = evolve_time_dependent(H, psi0, grid, substeps=4)
        assert np.abs(static.bloch - rk4.bloch).max() < 1e-8

    def test_zero_amplitude_drive_is_constant(self):
        h_of_t = lambda t: 0.0 * SIGMA_Z  # noqa: E731
        psi0 = normalize_state([1, 2j])
        traj = evolve_time_dependent(h_of_t, psi0, TimeGrid(0.0, 1e-14, 100))
        assert np.abs(traj.bloch - traj.bloch[0]).max() < 1e-12

    def test_halving_dt_converges(self):
        H = build_approximate(default_params("charge"))
        psi0 = normalize_state([1, 1j])
        coarse = evolve_time_dependent(H, psi0, TimeGrid(0.0, 5e-15, 1000))
        fine = evolve_time_dependent(H, psi0, TimeGrid(0.0, 2.5e-15, 2000))
        assert np.abs(coarse.bloch[-1] - fine.bloch[-1]).max() < 1e-6

    def test_norm_drift_detected(self):
        # deliberately unstable: omega * dt >> 1
        H = 1e-20 * SIGMA_X
        with pytest.raises(IntegrationError, match="dt"):
            evolve_time_dependent(H, PSI0, TimeGrid(0.0, 1e-13, 50))

    def test_magnus_bound_raises_for_a_callable(self):
        # h ||H(t)|| / hbar about 9.5, with the drive varying inside the step
        h_of_t = lambda t: 1e-20 * (np.cos(1e13 * t) * SIGMA_X + SIGMA_Z)  # noqa: E731
        with pytest.raises(IntegrationError, match=r"Magnus convergence bound \(dt = 1\.000e-13"):
            evolve_time_dependent(h_of_t, PSI0, TimeGrid(0.0, 1e-13, 50))

    def test_identity_part_does_not_trip_the_magnus_bound(self):
        # 1e-20 I alone is about 9.5 per step, but only a global phase
        grid = TimeGrid(0.0, 1e-13, 50)
        shifted = evolve_time_dependent(lambda t: 1e-20 * IDENTITY_2 + 1e-23 * SIGMA_X, PSI0, grid)
        plain = evolve_time_dependent(lambda t: 1e-23 * SIGMA_X, PSI0, grid)
        assert np.abs(shifted.bloch - plain.bloch).max() < 1e-12

    def test_cf4_fourth_order_on_a_non_commuting_drive(self):
        # H(t) does not commute with itself at other times; h ||H|| / hbar about 1
        energy = 1e-22
        omega = 0.7 * energy / HBAR

        def h_of_t(t):
            return energy * (0.5 * SIGMA_Z + 0.6 * np.cos(omega * t) * SIGMA_X
                             + 0.3 * np.sin(omega * t) * SIGMA_Y)

        psi0 = normalize_state([1, 0.5j])
        t_final = 20 * HBAR / energy
        exact = solve_ivp(lambda t, y: (-1j / HBAR) * (h_of_t(t) @ y), (0.0, t_final),
                          psi0, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
        errors = []
        for steps in (16, 32):
            grid = TimeGrid(0.0, t_final / steps, steps)
            step_angle = max(np.linalg.norm(h_of_t(t), 2) for t in grid.times) * grid.dt / HBAR
            assert 0.45 < step_angle < 1.0
            traj = evolve_time_dependent(h_of_t, psi0, grid)
            assert np.abs(traj.norms - 1.0).max() < 1e-12
            errors.append(np.abs(traj.states[-1] - exact).max())
        assert errors[0] / errors[1] >= 12.0

    @pytest.mark.parametrize("h_of_t", [np.eye(3), lambda t: t * np.eye(3)],
                             ids=["constant", "callable"])
    def test_dimension_mismatch(self, h_of_t):
        with pytest.raises(DimensionMismatchError):
            evolve_time_dependent(h_of_t, PSI0, TimeGrid(0.0, 1e-15, 2))

    def test_substeps_validation(self):
        with pytest.raises(DomainError):
            evolve_time_dependent(rabi_hamiltonian(), PSI0, TimeGrid(0.0, 1e-15, 1),
                                  substeps=0)


class TestMaster:
    def test_maximally_mixed_is_stationary(self):
        rho0 = 0.5 * IDENTITY_2
        traj = evolve_master(rho0, rabi_hamiltonian(), TimeGrid(0.0, 1e-14, 200))
        assert np.abs(traj.densities - rho0).max() < 1e-12

    def test_energy_eigenstate_is_stationary(self):
        H = 0.5 * 7.55e-23 * SIGMA_Z
        rho0 = density_from_state(PSI0)
        traj = evolve_master(rho0, H, TimeGrid(0.0, 1e-14, 200))
        assert np.abs(traj.bloch - traj.bloch[0]).max() < 1e-10

    def test_matches_pure_state_path(self):
        # the commutator sign convention must reproduce Schrodinger evolution
        H = build_approximate(default_params("charge"))
        psi0 = normalize_state([2, -1j])
        grid = TimeGrid(0.0, 2.5e-15, 400)
        pure = propagate_static(H, psi0, grid)
        mixed = evolve_master(density_from_state(psi0), H, grid)
        assert np.abs(pure.bloch - mixed.bloch).max() < 1e-8

    def test_trace_and_hermiticity_preserved(self):
        H = build_approximate(default_params("charge"))
        rho0 = density_from_state(normalize_state([1, 1j]))
        traj = evolve_master(rho0, H, TimeGrid(0.0, 2.5e-15, 400))
        assert np.abs(traj.norms - 1.0).max() < 1e-10
        assert np.abs(traj.densities - traj.densities.conj().transpose(0, 2, 1)).max() < 1e-10


    def test_exact_on_a_coarse_grid(self):
        # ||H|| dt / hbar about 2: no step size limit, the eigenbasis phases are exact
        H = 1e-22 * (0.3 * SIGMA_X + 0.9 * SIGMA_Z)
        grid = TimeGrid(0.0, 2 * HBAR / np.linalg.norm(H, 2), 50)
        psi0 = normalize_state([2, -1j])
        pure = propagate_static(H, psi0, grid)
        mixed = evolve_master(density_from_state(psi0), H, grid)
        assert np.abs(pure.bloch - mixed.bloch).max() < 1e-12
        assert np.abs(mixed.norms - 1.0).max() < 1e-12
        assert np.abs(mixed.densities - mixed.densities.conj().transpose(0, 2, 1)).max() < 1e-12


class TestObservableSeries:
    def test_sigma_x_equals_bloch_x(self):
        traj = propagate_static(rabi_hamiltonian(), normalize_state([1, 1j]),
                                TimeGrid(0.0, 1e-13, 300))
        assert np.abs(observable_series(traj, SIGMA_X) - traj.bloch[:, 0]).max() < 1e-10

    def test_identity_gives_one(self):
        traj = propagate_static(rabi_hamiltonian(), PSI0, TimeGrid(0.0, 1e-13, 50))
        assert np.abs(observable_series(traj, IDENTITY_2) - 1.0).max() < 1e-12

    def test_sigma_z_rabi_cosine(self):
        grid = TimeGrid(0.0, 2e-13, 400)
        traj = propagate_static(rabi_hamiltonian(), PSI0, grid)
        expected = np.cos(E_J_REF * grid.times / HBAR)
        assert np.abs(observable_series(traj, SIGMA_Z) - expected).max() < 1e-9

    def test_missing_history(self):
        traj = BlochTrajectory(np.array([0.0]), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(MissingDataError):
            observable_series(traj, SIGMA_Z)

    def test_shape_mismatch(self):
        traj = propagate_static(rabi_hamiltonian(), PSI0, TimeGrid(0.0, 1e-14, 5))
        with pytest.raises(DimensionMismatchError):
            observable_series(traj, np.eye(3))


def test_three_methods_agree():
    H = build_approximate(default_params("charge"))
    psi0 = normalize_state([2, -1j])
    grid = TimeGrid(0.0, 2.5e-15, 400)
    a = propagate_static(H, psi0, grid).bloch
    b = evolve_time_dependent(H, psi0, grid, substeps=4).bloch
    c = evolve_master(density_from_state(psi0), H, grid).bloch
    assert np.abs(a - b).max() < 1e-8
    assert np.abs(a - c).max() < 1e-8


class TestTrajectoryCsv:
    """The CSV writer against a repr-per-cell oracle, byte for byte."""

    def test_zero_drive_run_reuses_rows(self):
        # no gate charge: the exact two-level operator is a pure offset, every row repeats
        H = build_exact_two_level(replace(default_params("charge"), n_g=0.0))
        traj = propagate_static(H, PSI0, TimeGrid(0.0, 1e-15, 50))
        stream = io.StringIO()
        write_trajectory_csv(traj, stream)
        lines = stream.getvalue().splitlines()
        assert len({line.split(",", 1)[1] for line in lines[1:]}) == 1
        assert stream.getvalue() == naive_trajectory_csv(traj)

    def test_fock_run_with_leakage_column(self):
        H = build_fock(default_params("charge"), 8)
        psi0 = np.zeros(8, dtype=complex)
        psi0[:2] = normalize_state([0.6, 0.8j])
        traj = propagate_static(H, psi0, TimeGrid(0.0, 1e-14, 100))
        stream = io.StringIO()
        write_trajectory_csv(traj, stream)
        assert stream.getvalue().splitlines()[0].endswith(",norm,leakage")
        assert traj.leakage.max() > 0
        assert stream.getvalue() == naive_trajectory_csv(traj)
