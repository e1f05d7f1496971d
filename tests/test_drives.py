import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import kernel_states, pure_states, unit_bloch_vectors, unit_state
from oracles import (cf4_states, pauli_coefficients, reconstruct_rotation, rodrigues,
                     scaled_taylor_expm)

from scqsim.constants import E_CHARGE, HBAR
from scqsim.core import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_from_state
from scqsim.drives import (
    DrivePlan,
    bisector_axis,
    bloch_fidelity,
    carrier_frequency,
    closed_loop_experiment,
    design_drive,
    design_transfer,
    effective_rotating_hamiltonian,
    plan_to_dict,
)
from scqsim.errors import ConfigError
from scqsim.evolution import TimeGrid
from scqsim.hamiltonians import (DRIVE_KINDS, QubitParams, build_approximate,
                                 build_exact_two_level, default_params, induced_charge)

CHARGE = default_params("charge")
PSI0 = unit_state(2, -1j)
PSIF = unit_state(1, 2 + 1j)
T_F = 1e-12


@pytest.fixture(scope="module")
def charge_plan():
    *_, plan = design_transfer(PSI0, PSIF, T_F, CHARGE)
    return plan


class TestBisector:
    def test_charge_reference_axis(self):
        n_hat = bisector_axis([0, -4 / 5, 3 / 5], [2 / 3, 1 / 3, -2 / 3])
        assert np.abs(n_hat - [0.816, -0.571, -0.0816]).max() < 1e-3

    def test_flux_reference_axis(self):
        r0 = bloch_from_state(unit_state(-1, 1j))
        rf = bloch_from_state(unit_state(2, 1 + 8j))
        n_hat = bisector_axis(r0, rf)
        assert np.abs(n_hat - [0.056, -0.517, -0.853]).max() < 1e-3

    def test_phase_reference_axis(self):
        # r0 taken from the state itself (x = -6/11)
        r0 = bloch_from_state(unit_state(-2, 3 - 3j))
        rf = bloch_from_state(unit_state(2, 2 - 1j) / 1.0)
        n_hat = bisector_axis(r0, rf)
        assert np.abs(n_hat - [0.414, 0.122, -0.902]).max() < 1e-3

    def test_same_state_is_fixed_axis(self):
        r = np.array([0.6, 0.0, 0.8])
        n_hat = bisector_axis(r, r)
        assert np.allclose(n_hat, r)

    def test_antipodal_states_rejected(self):
        with pytest.raises(ConfigError):
            bisector_axis([0, 0, 1], [0, 0, -1])

    @given(unit_bloch_vectors(), unit_bloch_vectors())
    def test_pi_rotation_about_bisector_maps_r0_to_rf(self, r0, rf):
        if np.linalg.norm(r0 + rf) < 1e-3:
            return
        n_hat = bisector_axis(r0, rf)
        assert np.abs(rodrigues(n_hat, math.pi) @ r0 - rf).max() < 1e-9


class TestDesignDrive:
    def test_charge_reference_plan(self, charge_plan):
        assert charge_plan.lam == pytest.approx(1.234, rel=5e-3)
        assert charge_plan.amplitude == pytest.approx(-0.00715, rel=1e-2)
        assert charge_plan.dc_offset == pytest.approx(0.00093, rel=1e-2)
        assert charge_plan.omega_c == pytest.approx(703035393816, rel=1e-3)

    def test_carrier_frequencies(self):
        assert carrier_frequency(default_params("phase")) == \
            pytest.approx(309697312116, rel=1e-3)
        assert carrier_frequency(default_params("flux")) == \
            pytest.approx(408312678393, rel=1e-3)

    def test_phase_lambda_follows_the_formula(self):
        *_, plan = design_transfer(unit_state(-2, 3 - 3j), unit_state(2, 2 - 1j),
                                   T_F, default_params("phase"))
        nx, ny = plan.n_hat[0], plan.n_hat[1]
        assert plan.lam == pytest.approx(math.atan(-4 * nx / ny), abs=1e-12)
        assert plan.lam == pytest.approx(-1.4974, abs=1e-4)

    def test_pure_z_rotation_is_dc_only(self):
        plan = design_drive("charge", [0, 0, 1], math.pi / T_F, CHARGE, T_F)
        assert plan.lam == 0.0
        assert plan.amplitude == 0.0
        assert plan.dc_offset == pytest.approx(HBAR * (math.pi / T_F) / (2 * plan.k))

    def test_equatorial_y_axis_uses_the_ny_identity(self):
        omega_q = math.pi / T_F
        plan = design_drive("charge", [0, 1, 0], omega_q, CHARGE, T_F)
        assert plan.lam == 0.0
        assert plan.amplitude == pytest.approx(-2 * HBAR * omega_q / plan.k)
        recon = reconstruct_rotation(plan)
        assert np.abs(recon - omega_q * np.array([0, 1, 0])).max() < 1e-9 * omega_q

    def test_x_axis_with_zero_ny_rejected(self):
        with pytest.raises(ConfigError):
            design_drive("charge", [1, 0, 0], math.pi / T_F, CHARGE, T_F)

    @pytest.mark.parametrize("kind", ["charge", "phase", "flux"])
    @pytest.mark.parametrize("n_hat, lam", [([1, 1e-310, 0], -math.pi / 2),
                                            ([1, -1e-310, 0], math.pi / 2),
                                            ([-1, 1e-310, 0], math.pi / 2)])
    def test_subnormal_ny_overflows_to_the_pole(self, kind, n_hat, lam):
        # -tan_ratio * nx / ny overflows to +-inf (float division never raises)
        plan = design_drive(kind, n_hat, 1e12, default_params(kind), math.pi / 1e12)
        assert plan.lam == lam
        assert math.isfinite(plan.amplitude) and math.isfinite(plan.dc_offset)

    def test_lcjj_has_no_drive_inversion(self):
        # the reference L-C-JJ circuit has its inductive branch open (E_L = 0): its
        # coupling k is zero, and the design refuses it before inverting anything
        with pytest.raises(ConfigError, match="the lcjj qubit's drive coupling is zero"):
            design_drive("lcjj", [0.0, 0.0, 1.0], 1e12, default_params("lcjj"), math.pi / 1e12)

    @pytest.mark.parametrize("kind, channel", [("charge", SIGMA_Z), ("phase", SIGMA_X),
                                               ("flux", SIGMA_X)])
    def test_plan_coupling_is_the_approximate_drive_term(self, kind, channel):
        # the plan is designed on the model it is checked against: the approximate
        # matrix moves by k s channel when the drive field goes from 0 to s
        p = default_params(kind)
        plan = design_drive(kind, [0.6, -0.8, 0.0], 1e12, p, math.pi / 1e12)
        field, s, value = {"charge": ("n_g", 1e-3, induced_charge(p.C_g, 1e-3)),
                           "phase": ("I_g", 1e-3, 1e-3), "flux": ("phi_e", 0.5, 0.5)}[kind]
        H0 = build_approximate(replace(p, **{field: 0.0}))
        H1 = build_approximate(replace(p, **{field: value}))
        assert np.allclose(H1 - H0, plan.k * s * channel, rtol=0, atol=1e-12 * abs(plan.k * s))

    def test_degenerate_carrier_rejected(self):
        p = QubitParams("charge", E_c=1e-23, E_J=1e-23, C_g=1e-15)
        with pytest.raises(ConfigError):
            design_drive("charge", [0, 1, 0], 1e12, p, math.pi / 1e12)

    @pytest.mark.parametrize("kind", ["charge", "phase", "flux"])
    @given(n_hat=unit_bloch_vectors(),
           log_wq=st.floats(min_value=10.0, max_value=13.0))
    def test_roundtrip_identities(self, kind, n_hat, log_wq):
        omega_q = 10.0**log_wq
        if n_hat[1] == 0.0 and n_hat[0] != 0.0:
            return
        plan = design_drive(kind, n_hat, omega_q, default_params(kind), math.pi / omega_q)
        recon = reconstruct_rotation(plan)
        assert np.abs(recon - omega_q * n_hat).max() < 1e-9 * omega_q


def rwa_part(plan, delta_omega, t):
    """The drive part of the rotating-frame generator at carrier detuning delta_omega
    and time t: the resonant generator without its dc term, at phase delta_omega t + lambda."""
    return effective_rotating_hamiltonian(replace(plan, dc_offset=0.0,
                                                  lam=delta_omega * t + plan.lam))


class TestRwaHamiltonian:
    def test_charge_quadrature_only(self, charge_plan):
        plan = replace(charge_plan, lam=math.pi / 2)
        H = rwa_part(plan, 0.0, 0.0)
        expected = plan.k * plan.amplitude / 8 * (SIGMA_X + SIGMA_Z)
        assert np.allclose(H, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_charge_in_phase_only(self, charge_plan):
        plan = replace(charge_plan, lam=0.0)
        H = rwa_part(plan, 0.0, 0.0)
        expected = -plan.k * plan.amplitude / 4 * SIGMA_Y
        assert np.allclose(H, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_phase_pattern(self):
        *_, plan = design_transfer(unit_state(-2, 3 - 3j), unit_state(2, 2 - 1j),
                                   T_F, default_params("phase"))
        H = rwa_part(plan, 0.0, 0.0)
        Q, I = math.sin(plan.lam), math.cos(plan.lam)
        expected = plan.k * plan.amplitude / 16 * (Q * SIGMA_X - 4 * I * SIGMA_Y
                                                   - 4 * Q * SIGMA_Z)
        assert np.allclose(H, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @given(st.sampled_from(sorted(DRIVE_KINDS)), unit_bloch_vectors(),
           st.floats(min_value=-1e11, max_value=1e11),
           st.floats(min_value=0.0, max_value=1e-12))
    @example("charge", np.array([3.60535685e-296, 3.60535685e-296, 1.0]), 0.0, 0.0)  # subnormal
    def test_axes_table_matches_per_kind_formulas(self, kind, n_hat, delta_omega, t):
        # the literal per-kind forms the (ax, ay, az) table replaced; equal bits,
        # also where products are subnormal, while the sign of a zero imaginary
        # part may differ
        if n_hat[1] == 0.0 and n_hat[0] != 0.0:
            return
        plan = design_drive(kind, n_hat, 1e12, default_params(kind), math.pi / 1e12)
        H = rwa_part(plan, delta_omega, t)
        p = delta_omega * t + plan.lam
        scale = plan.k * plan.amplitude
        if kind == "charge":
            expected = scale / 8 * (math.sin(p) * SIGMA_X - 2 * math.cos(p) * SIGMA_Y
                                    + math.sin(p) * SIGMA_Z)
        else:
            expected = scale / 16 * (math.sin(p) * SIGMA_X - 4 * math.cos(p) * SIGMA_Y
                                     - 4 * math.sin(p) * SIGMA_Z)
        assert np.array_equal(H, expected)

    @given(st.floats(min_value=-1e11, max_value=1e11),
           st.floats(min_value=0.0, max_value=1e-12))
    def test_hermitian(self, delta_omega, t):
        *_, plan = design_transfer(PSI0, PSIF, T_F, CHARGE)
        H = rwa_part(plan, delta_omega, t)
        assert np.abs(H - H.conj().T).max() < 1e-30


def interaction_frame_average(plan, params, omega_c, window, samples):
    """Hann-windowed mean of the drive Hamiltonian in the factorized rotating
    frame exp(-i wz t sz/2) followed by exp(-i wx t sx/2)."""
    wz = params.E_c / HBAR
    wx = params.E_J / HBAR
    ts = np.linspace(0.0, window, samples)
    cz, sz_ = np.cos(wz * ts / 2), np.sin(wz * ts / 2)
    cx, sx_ = np.cos(wx * ts / 2), np.sin(wx * ts / 2)
    Rz = np.zeros((samples, 2, 2), complex)
    Rx = np.zeros((samples, 2, 2), complex)
    Rz[:, 0, 0] = cz - 1j * sz_
    Rz[:, 1, 1] = cz + 1j * sz_
    Rx[:, 0, 0] = Rx[:, 1, 1] = cx
    Rx[:, 0, 1] = Rx[:, 1, 0] = -1j * sx_
    U = np.einsum("nij,njk->nik", Rx, Rz)
    Ud = U.conj().transpose(0, 2, 1)
    frame = np.einsum("nij,jk,nkl->nil", Ud, SIGMA_Z, U)
    drive = plan.k * plan.amplitude * np.sin(omega_c * ts + plan.lam)
    w = 0.5 - 0.5 * np.cos(2 * np.pi * ts / window)
    avg = np.einsum("n,nij->ij", w * drive, frame) / w.sum()
    return pauli_coefficients(avg)


class TestRotatingFrameAveraging:
    def test_resonant_average_reproduces_rwa_quadratures(self, charge_plan):
        # the frame average carries the full in-phase quadrature on sigma_x;
        # the printed rotating-frame form splits it evenly between sigma_x
        # and sigma_z, so compare sigma_y and the quadrature total
        window = 300 * 2 * math.pi / charge_plan.omega_c
        avg = interaction_frame_average(charge_plan, CHARGE, charge_plan.omega_c,
                                        window, 600_001)
        ref = pauli_coefficients(rwa_part(charge_plan, 0.0, 0.0))
        ratio = CHARGE.E_J / CHARGE.E_c
        assert abs(avg[1] - ref[1]) < ratio * abs(ref[1])
        assert abs(avg[0] - (ref[0] + ref[2])) < ratio * abs(ref[0] + ref[2])
        assert abs(avg[2]) < 1e-3 * np.linalg.norm(avg)

    def test_low_carrier_kills_the_transverse_drive(self, charge_plan):
        delta = (CHARGE.E_c - CHARGE.E_J) / HBAR
        omega_lo = 0.01 * delta
        window = 10 * 2 * math.pi / abs(omega_lo - delta)
        lo = interaction_frame_average(charge_plan, CHARGE, omega_lo,
                                       window, 300_001)
        res_window = 300 * 2 * math.pi / charge_plan.omega_c
        res = interaction_frame_average(charge_plan, CHARGE, charge_plan.omega_c,
                                        res_window, 600_001)
        assert np.linalg.norm(lo[:2]) < 0.01 * np.linalg.norm(res[:2])


class TestClosedLoopExperiment:
    def test_rotating_frame_model_reaches_target(self, charge_plan):
        rf = bloch_from_state(PSIF)
        grid = TimeGrid(T_F / 2000, 2000)
        res = closed_loop_experiment(charge_plan, PSI0, "approximate_rotating",
                                     grid, CHARGE, r_target=rf)
        assert np.linalg.norm(res.r_final - rf) < 1e-3
        assert res.fidelity > 0.999

    @given(kind=st.sampled_from(DRIVE_KINDS), psi0=pure_states(), psif=pure_states(),
           log_tf=st.floats(min_value=-13.0, max_value=-8.0),
           steps=st.integers(min_value=1, max_value=3000))
    @example(kind="flux", psi0=np.array([1.0 + 0j, 0j]), psif=np.array([1.0 + 0j, 0j]),
             log_tf=-8.0, steps=1)  # r0 = rf: a dc-only z rotation
    def test_designed_transfer_lands_on_the_target(self, kind, psi0, psif, log_tf, steps):
        # rf comes from psif alone; the rotating-frame replay of the designed plan,
        # sampled on any grid, ends there
        rf = bloch_from_state(psif)
        total = bloch_from_state(psi0) + rf
        assume(np.linalg.norm(total) >= 0.1)
        assume(total[1] != 0.0 or total[0] == 0.0)  # else the axis is unreachable
        params = default_params(kind)
        t_f = 10.0**log_tf
        *_, plan = design_transfer(psi0, psif, t_f, params)
        res = closed_loop_experiment(plan, psi0, "approximate_rotating",
                                     TimeGrid(t_f / steps, steps), params, rf)
        assert np.linalg.norm(res.r_final - rf) < 1e-10

    def test_exact_lab_model_misses_target(self, charge_plan):
        # exact two-level charge drive only generates sigma_y rotations, so
        # the lab-frame run must land far from the designed target
        r0, rf = bloch_from_state(PSI0), bloch_from_state(PSIF)
        grid = TimeGrid(T_F / 2000, 2000)
        res = closed_loop_experiment(charge_plan, PSI0, "exact_lab", grid,
                                     CHARGE, r_target=rf)
        n_zpf, _ = CHARGE.zpf()
        wc, lam = charge_plan.omega_c, charge_plan.lam
        integral = (charge_plan.amplitude * (math.cos(lam) - math.cos(wc * T_F + lam)) / wc
                    + charge_plan.dc_offset * T_F)
        theta = (2 / HBAR) * (-2 * CHARGE.E_c * n_zpf * CHARGE.C_g / (2 * 1.602176634e-19)) * integral
        expected = rodrigues([0, 1, 0], theta) @ r0
        assert np.abs(res.r_final - expected).max() < 1e-6
        assert res.fidelity < bloch_fidelity(rf, rf) - 0.05

    def test_zero_amplitude_plan_is_stationary(self, charge_plan):
        plan = replace(charge_plan, amplitude=0.0, dc_offset=0.0)
        target_rf = bloch_from_state(PSIF)
        grid = TimeGrid(T_F / 200, 200)
        res = closed_loop_experiment(plan, PSI0, "exact_lab", grid, CHARGE,
                                     r_target=target_rf)
        assert np.abs(res.trajectory.bloch - res.trajectory.bloch[0]).max() < 1e-12
        r0 = bloch_from_state(PSI0)
        assert res.fidelity == pytest.approx((1 + r0 @ target_rf) / 2, abs=1e-9)


def _exact_lab_oracle(plan, params, grid):
    """Closed-form single-axis rotation angle and axis of the exact lab-frame replay."""
    n_zpf, phi_zpf = params.zpf()
    if plan.qubit_kind == "charge":
        axis, coeff = [0, 1, 0], -params.E_c * n_zpf * params.C_g / E_CHARGE
    elif plan.qubit_kind == "phase":
        axis, coeff = [1, 0, 0], -(HBAR / (2 * E_CHARGE)) * phi_zpf
    else:
        axis, coeff = [1, 0, 0], -params.E_L * phi_zpf
    wc, lam = plan.omega_c, plan.lam
    integral = (plan.amplitude * (np.cos(lam) - np.cos(wc * grid.times + lam)) / wc
                + plan.dc_offset * grid.times)
    return axis, (2 / HBAR) * coeff * integral


class TestExactReplays:
    @pytest.mark.parametrize("kind", ["charge", "phase", "flux"])
    def test_exact_lab_is_closed_form_rotation(self, kind):
        params = default_params(kind)
        r0, rf, plan = design_transfer(PSI0, PSIF, T_F, params)
        grid = TimeGrid(T_F / 500, 500)
        traj = closed_loop_experiment(plan, PSI0, "exact_lab", grid, params, rf).trajectory
        axis, theta = _exact_lab_oracle(plan, params, grid)
        expected = np.array([rodrigues(axis, th) @ r0 for th in theta])
        assert np.abs(theta).max() > 0.1  # the drive does rotate the state
        assert np.abs(traj.bloch - expected).max() < 1e-10
        assert np.abs(traj.norms - 1.0).max() < 1e-12

    @given(kind=st.sampled_from(["charge", "phase", "flux"]), psi0=pure_states(),
           psif=pure_states(), log_tf=st.floats(min_value=-13.0, max_value=-11.0))
    def test_exact_lab_matches_cf4_on_a_fine_grid(self, kind, psi0, psif, log_tf):
        # CF4 integrates the exact model rebuilt with the plan's signal s(t) in its
        # drive field, step by step; the replay takes the closed-form integral of s
        r0, rf = bloch_from_state(psi0), bloch_from_state(psif)
        total = r0 + rf
        assume(np.linalg.norm(total) > 1e-3)  # antipodal: no bisector
        assume(total[1] != 0.0 or total[0] == 0.0)  # else the axis is unreachable
        params = default_params(kind)
        t_f = 10.0**log_tf
        *_, plan = design_transfer(psi0, psif, t_f, params)

        def h_of_t(t):
            signal = plan.amplitude * math.sin(plan.omega_c * t + plan.lam) + plan.dc_offset
            fields = {"charge": {"n_g": induced_charge(params.C_g, signal)},
                      "phase": {"I_g": signal}, "flux": {"phi_e": signal}}
            return build_exact_two_level(replace(params, **fields[kind]))

        grid = TimeGrid(t_f / 200, 200)
        traj = closed_loop_experiment(plan, psi0, "exact_lab", grid, params, rf).trajectory
        cf4 = np.array([bloch_from_state(psi) for psi in cf4_states(h_of_t, psi0, grid.times)])
        assert np.abs(traj.bloch - cf4).max() < 1e-8

    @pytest.mark.parametrize("kind", ["charge", "phase", "flux"])
    def test_approximate_rotating_is_designed_rotation(self, kind):
        params = default_params(kind)
        r0, rf, plan = design_transfer(PSI0, PSIF, T_F, params)
        grid = TimeGrid(T_F / 400, 400)
        traj = closed_loop_experiment(plan, PSI0, "approximate_rotating", grid,
                                      params, rf).trajectory
        expected = np.array([rodrigues(plan.n_hat, plan.omega_q * t) @ r0
                             for t in grid.times])
        assert np.abs(traj.bloch - expected).max() < 1e-10
        assert np.abs(traj.norms - 1.0).max() < 1e-12



class TestControlPropagator:
    """The rotating-frame control propagator: the approximate_rotating replay of the
    constant resonant generator the drive inversion solves for."""

    @pytest.mark.parametrize("kind", ["charge", "phase", "flux"])
    def test_is_the_designed_rotation(self, kind):
        *_, plan = design_transfer(PSI0, PSIF, T_F, default_params(kind))
        H = effective_rotating_hamiltonian(plan)
        n = plan.n_hat
        expected = 0.5 * HBAR * plan.omega_q * (n[0] * SIGMA_X + n[1] * SIGMA_Y
                                                 + n[2] * SIGMA_Z)
        assert np.abs(H - expected).max() < 1e-9 * np.abs(expected).max()

    def test_zero_plan_is_identity(self, charge_plan):
        plan = replace(charge_plan, amplitude=0.0, dc_offset=0.0)
        grid = TimeGrid(1e-14, 100)
        traj = closed_loop_experiment(plan, PSI0, "approximate_rotating", grid, CHARGE,
                                      bloch_from_state(PSIF)).trajectory
        states = kernel_states(effective_rotating_hamiltonian(plan), PSI0, grid.times)
        assert np.abs(states - PSI0).max() < 1e-15
        assert np.abs(traj.bloch - bloch_from_state(PSI0)).max() < 1e-15

    def test_one_parameter_group(self, charge_plan):
        # running a then b from the state reached equals one run of a + b
        a, b = 2.7e-13, 4.1e-13
        H = effective_rotating_hamiltonian(charge_plan)
        first = kernel_states(H, PSI0, [a])[-1]
        second = kernel_states(H, first, [b])[-1]
        whole = kernel_states(H, PSI0, [a + b])[-1]
        assert np.abs(second - whole).max() < 1e-12

    def test_matches_rwa_exponential_without_dc(self, charge_plan):
        plan = replace(charge_plan, dc_offset=0.0)
        Q, I = math.sin(plan.lam), math.cos(plan.lam)
        H = plan.k * plan.amplitude / 8 * (Q * SIGMA_X - 2 * I * SIGMA_Y + Q * SIGMA_Z)
        assert np.allclose(effective_rotating_hamiltonian(plan), H, rtol=0,
                           atol=1e-15 * np.abs(H).max())
        grid = TimeGrid(1e-13, 6)
        traj = closed_loop_experiment(plan, PSI0, "approximate_rotating", grid, CHARGE,
                                      bloch_from_state(PSIF)).trajectory
        for t, r in zip(grid.times, traj.bloch):
            psi = scaled_taylor_expm(-1j * H * t / HBAR) @ PSI0
            assert np.abs(r - bloch_from_state(psi)).max() < 1e-9


class TestBlochFidelity:
    def test_target_itself_scores_one(self):
        r = bloch_from_state(PSIF)
        assert bloch_fidelity(r, r) == pytest.approx(1.0, abs=1e-15)

    def test_antipode_scores_zero(self):
        r = bloch_from_state(PSIF)
        assert bloch_fidelity(-r, r) == pytest.approx(0.0, abs=1e-15)

    @given(pure_states(), pure_states())
    def test_equals_state_overlap(self, psi, phi):
        overlap = abs(np.vdot(phi, psi)) ** 2
        assert bloch_fidelity(bloch_from_state(psi), bloch_from_state(phi)) == pytest.approx(
            overlap, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize("field", ["lam", "amplitude", "dc_offset", "k"])
    def test_non_finite_plan_rejected(self, charge_plan, field):
        with pytest.raises(ConfigError, match="non-finite"):
            replace(charge_plan, **{field: math.nan})

    @pytest.mark.parametrize("kind, field", [("charge", "C_g"), ("charge", "E_c"),
                                             ("flux", "E_L"), ("phase", "phi_zpf")])
    def test_zero_coupling_rejected(self, kind, field):
        # no signal can rotate the qubit; phi_zpf = 3e-309 underflows the phase k to 0
        p = replace(default_params(kind), **{field: 3e-309 if field == "phi_zpf" else 0.0})
        with pytest.raises(ConfigError, match=f"the {kind} qubit's drive coupling is zero"):
            design_drive(kind, [0.6, -0.8, 0.0], 1e12, p, math.pi / 1e12)


class TestPlanSerialization:
    def test_roundtrip(self, charge_plan):
        back = json.loads(json.dumps(plan_to_dict(charge_plan)))
        assert back["kind"] == "charge"
        assert back["lambda_rad"] == charge_plan.lam
        assert back["amplitude"] == charge_plan.amplitude
        assert back["dc_offset"] == charge_plan.dc_offset
        assert back["omega_c_rad_s"] == charge_plan.omega_c
        assert back["t_f_s"] == charge_plan.t_f
        assert back["omega_q_rad_s"] == charge_plan.omega_q
        assert back["n_hat"] == charge_plan.n_hat.tolist()

    def test_schema_field_names(self, charge_plan):
        data = plan_to_dict(charge_plan)
        assert set(data) == {"kind", "lambda_rad", "amplitude", "dc_offset",
                             "omega_c_rad_s", "t_f_s", "n_hat", "omega_q_rad_s"}

    def test_serialization_requires_t_f(self, charge_plan):
        # t_f is a required field and design argument: no plan exists without the
        # transfer time that plan_to_dict writes as t_f_s
        given = {f.name: getattr(charge_plan, f.name) for f in fields(DrivePlan)}
        del given["t_f"]
        with pytest.raises(TypeError, match="t_f"):
            DrivePlan(**given)
        with pytest.raises(TypeError, match="t_f"):
            design_drive("charge", charge_plan.n_hat, charge_plan.omega_q, CHARGE)

