import io
import math
import time
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import unit_bloch_vectors
from oracles import (
    bilinear_rhs,
    dop853_closed_loop,
    naive_closed_loop,
    naive_lyapunov_csv,
    reduced_loop_rk4,
)

from scqsim.constants import HBAR
from scqsim.errors import DomainError, IntegrationError
from scqsim.evolution import BlochTrajectory, TimeGrid
from scqsim.export import write_lyapunov_csv
from scqsim.hamiltonians import default_params
from scqsim.lyapunov import (
    HOLD_DISTANCE,
    NORM_CEILING,
    NORM_FLOOR,
    BilinearParams,
    Gains,
    LyapunovRun,
    _adaptive_loop,
    _check_norm_band,
    _closed_loop_steps,
    feedback_controls,
    lyapunov_value,
    simulate_closed_loop,
)

R0 = np.array([4 / 9, -8 / 9, -1 / 9])
RF = np.array([0.0, 0.0, 1.0])
PARAMS = BilinearParams.from_qubit(default_params("lcjj"))
GAINS = Gains(2.0, 10.0)

param_scale = st.floats(min_value=0.05, max_value=20.0)


def scaled_params(s):
    return BilinearParams(E_c=PARAMS.E_c * s, C_g=PARAMS.C_g * s,
                          n_zpf=PARAMS.n_zpf * s, phi_zpf=PARAMS.phi_zpf * s)


class TestBilinearRhs:
    @given(unit_bloch_vectors())
    def test_zero_drive_is_equilibrium(self, r):
        assert np.all(bilinear_rhs(r, 0.0, 0.0, 0.0, 0.0, PARAMS) == 0.0)

    @given(st.floats(min_value=-1e-3, max_value=1e-3),
           st.floats(min_value=-1e-6, max_value=1e-6))
    def test_equator_freezes_xy(self, V, I):
        rdot = bilinear_rhs([0.6, -0.8, 0.0], V, I, 0.0, 0.0, PARAMS)
        assert rdot[0] == 0.0 and rdot[1] == 0.0

    def test_voltage_channel(self):
        rdot = bilinear_rhs([0, 0, 1], 1e-6, 0.0, 0.0, 0.0, PARAMS)
        assert rdot[0] == pytest.approx(-PARAMS.c_V * 1e-6, rel=1e-12)
        assert rdot[1] == 0.0 and rdot[2] == 0.0

    @given(unit_bloch_vectors(), st.floats(min_value=-1e-4, max_value=1e-4),
           st.floats(min_value=-1e-7, max_value=1e-7),
           st.floats(min_value=-0.5, max_value=0.5))
    def test_tangent_to_the_sphere(self, r, V, I, phi):
        c_phi = 2 * 6e-23 * PARAMS.phi_zpf / HBAR  # E_L = 6e-23 J
        rdot = bilinear_rhs(r, V, I, phi, c_phi, PARAMS)
        scale = max(np.abs(rdot).max(), 1e-300)
        assert abs(np.dot(r, rdot)) < 1e-12 * scale


class TestFeedbackControls:
    def test_zero_error_means_zero_drive(self):
        V, I = feedback_controls(RF, RF, GAINS, PARAMS)
        assert V == 0.0 and I == 0.0

    def test_polar_axis_states_need_no_drive(self):
        V, I = feedback_controls([0.0, 0.0, -1.0], RF, GAINS, PARAMS)
        assert V == 0.0 and I == 0.0

    def test_reference_point(self):
        V, I = feedback_controls(R0, RF, GAINS, PARAMS)
        assert V == pytest.approx(GAINS.alpha / PARAMS.c_V * (4 / 9), rel=1e-12)
        assert I == pytest.approx(GAINS.beta / PARAMS.c_I * (-8 / 9), rel=1e-12)

    @given(unit_bloch_vectors(), unit_bloch_vectors(), param_scale)
    def test_closed_loop_reduces_to_gain_only_form(self, r, rf, s):
        # the physical coefficients cancel exactly between controls and rhs;
        # keep components out of subnormal territory where rounding degrades
        for v in (r, rf):
            if np.any((np.abs(v) < 1e-30) & (v != 0.0)):
                return
        p = scaled_params(s)
        V, I = feedback_controls(r, rf, GAINS, p)
        rdot = bilinear_rhs(r, V, I, 0.0, 0.0, p)
        w = r[0] * rf[2] - rf[0] * r[2]
        u = rf[1] * r[2] - r[1] * rf[2]
        expected = np.array([-GAINS.alpha * w * r[2], GAINS.beta * u * r[2],
                             GAINS.alpha * w * r[0] - GAINS.beta * u * r[1]])
        scale = max(np.abs(expected).max(), 1e-300)
        assert np.abs(rdot - expected).max() < 1e-12 * scale


class TestLyapunovValue:
    def test_zero_at_target(self):
        assert lyapunov_value(RF, RF) == 0.0

    def test_antipodal_pair(self):
        assert lyapunov_value([0, 0, -1], [0, 0, 1]) == pytest.approx(2.0)

    def test_reference_point(self):
        assert lyapunov_value(R0, RF) == pytest.approx(10 / 9, rel=1e-12)

    def test_nonnegative(self):
        assert lyapunov_value([1, 0, 0], [0, 1, 0]) > 0

    def test_array_matches_per_row_dot(self):
        bloch = simulate_closed_loop(R0, RF, GAINS, PARAMS,
                                     TimeGrid(1e-3, 2000)).trajectory.bloch
        per_row = [0.5 * np.dot(e, e) for e in bloch - RF]
        assert np.array_equal(lyapunov_value(bloch, RF), per_row)
        assert lyapunov_value(bloch.reshape(-1, 1, 3), RF).shape == (2001, 1)


class TestArrayControls:
    def test_leading_dimensions(self):
        r = np.array([[R0, -RF], [RF, [0.6, 0.0, 0.8]]])
        V, I = feedback_controls(r, [0.0, 0.6, 0.8], GAINS, PARAMS)
        assert V.shape == I.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            assert (V[idx], I[idx]) == feedback_controls(r[idx], [0.0, 0.6, 0.8],
                                                         GAINS, PARAMS)


class TestSimulateClosedLoop:
    def test_start_at_target_stays(self):
        run = simulate_closed_loop(RF, RF, GAINS, PARAMS, TimeGrid(1e-3, 100))
        assert np.abs(run.trajectory.bloch - RF).max() == 0.0
        assert np.abs(run.V_series).max() == 0.0
        assert np.abs(run.I_series).max() == 0.0

    def test_substepped_run_held_from_the_first_sample(self):
        # at the target the feedback speed is 0: the kernel returns before its first
        # step, and every row repeats r0
        run = simulate_closed_loop(RF, RF, Gains(1e4, 5e4), PARAMS, TimeGrid(1e-3, 10),
                                   integrator="substepped")
        assert run.trajectory.bloch.shape == (11, 3)
        assert (run.trajectory.bloch == RF).all()
        assert run.converged

    def test_reference_run_against_fine_oracle(self):
        grid = TimeGrid(1e-3, 20000)
        run = simulate_closed_loop(R0, RF, GAINS, PARAMS, grid)
        assert run.final_error < 1e-3
        assert run.converged
        assert np.all(np.diff(run.gamma_series) <= 1e-9)
        assert np.all(np.diff(run.trajectory.bloch[:, 2]) >= -1e-12)
        norms = np.linalg.norm(run.trajectory.bloch, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-8
        oracle = reduced_loop_rk4(R0, RF, GAINS.alpha, GAINS.beta, 1e-4, 20000)
        assert np.abs(run.trajectory.bloch[2000] - oracle[-1]).max() < 1e-9

    def test_gamma_derivative_identity(self):
        # d(gamma)/dt = -alpha w^2 - beta u^2, checked at interval midpoints
        grid = TimeGrid(1e-4, 2000)
        run = simulate_closed_loop(R0, RF, GAINS, PARAMS, grid)
        r = run.trajectory.bloch
        mid = 0.5 * (r[:-1] + r[1:])
        w = mid[:, 0] * RF[2] - RF[0] * mid[:, 2]
        u = RF[1] * mid[:, 2] - mid[:, 1] * RF[2]
        predicted = -GAINS.alpha * w**2 - GAINS.beta * u**2
        measured = np.diff(run.gamma_series) / grid.dt
        big = np.abs(predicted) > 1e-3 * np.abs(predicted).max()
        rel = np.abs(measured[big] - predicted[big]) / np.abs(predicted[big])
        assert rel.max() < 1e-6

    @given(param_scale)
    def test_trajectory_independent_of_physical_parameters(self, s):
        grid = TimeGrid(1e-3, 2000)
        base = simulate_closed_loop(R0, RF, GAINS, PARAMS, grid)
        other = simulate_closed_loop(R0, RF, GAINS, scaled_params(s), grid)
        assert np.abs(base.trajectory.bloch - other.trajectory.bloch).max() < 1e-10

    def test_antipodal_start_is_stationary_but_unstable(self):
        grid = TimeGrid(1e-3, 20000)
        run = simulate_closed_loop(-RF, RF, GAINS, PARAMS, grid)
        assert np.abs(run.trajectory.bloch + RF).max() == 0.0
        assert not run.converged
        # a small perturbation escapes the antipode and reaches the target
        r0 = np.array([1e-6, 1e-6, -1.0])
        r0 /= np.linalg.norm(r0)
        perturbed = simulate_closed_loop(r0, RF, GAINS, PARAMS, grid)
        assert perturbed.final_error < 1e-3
        assert perturbed.converged

    def test_physical_gains_give_microvolt_nanoamp_controls(self):
        start = time.perf_counter()
        run = simulate_closed_loop(R0, RF, Gains(1e10, 5e10), PARAMS,
                                   TimeGrid(1e-6, 20000),
                                   integrator="substepped")
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        assert 1e-7 <= np.abs(run.V_series).max() <= 1e-4
        assert 1e-10 <= np.abs(run.I_series).max() <= 1e-7
        assert np.all(np.diff(run.gamma_series) <= 1e-9)
        assert run.final_error < 1e-3

    def test_fixed_step_diverges_on_stiff_gains(self):
        with pytest.raises(IntegrationError, match="substepped"):
            simulate_closed_loop(R0, RF, Gains(1e10, 5e10), PARAMS,
                                 TimeGrid(1e-6, 100))

    def test_rejects_non_unit_start(self):
        with pytest.raises(DomainError):
            simulate_closed_loop([0.5, 0, 0], RF, GAINS, PARAMS,
                                 TimeGrid(1e-3, 10))

    def test_rejects_unknown_integrator(self):
        with pytest.raises(DomainError):
            simulate_closed_loop(R0, RF, GAINS, PARAMS, TimeGrid(1e-3, 10),
                                 integrator="euler")


RF_OFF_AXIS = np.array([0.6, 0.0, 0.8])

#: largest difference allowed between a substepped run's rows and DOP853 at rtol 1e-13
SUBSTEP_AGREEMENT = 1e-10


def per_row_series(bloch, rf, gains):
    """V, I and gamma of each row on its own, as naive_closed_loop forms them."""
    controls = np.array([feedback_controls(b, rf, gains, PARAMS) for b in bloch])
    return controls[:, 0], controls[:, 1], np.array([lyapunov_value(b, rf) for b in bloch])


def check_against_references(run, integrator, r0, rf, gains, grid):
    """A fixed_rk4 run equals naive_closed_loop bit for bit. A substepped run has no
    bitwise reference: its rows agree with DOP853 within SUBSTEP_AGREEMENT, and its V,
    I and gamma equal the per-row values of its rows bit for bit. Returns the rows."""
    if integrator == "fixed_rk4":
        bloch, *series = naive_closed_loop(r0, rf, gains, PARAMS, grid)
        assert np.array_equal(run.trajectory.bloch, bloch)
    else:
        bloch = run.trajectory.bloch
        reference = dop853_closed_loop(r0, rf, gains.alpha, gains.beta, grid.times)
        assert np.abs(bloch - reference).max() <= SUBSTEP_AGREEMENT
        series = per_row_series(bloch, rf, gains)
    for got, want in zip((run.V_series, run.I_series, run.gamma_series), series):
        assert np.array_equal(got, want)
    return bloch


class TestBitwiseOracle:
    """simulate_closed_loop and write_lyapunov_csv against per-row references: bit for
    bit for fixed_rk4 runs and CSVs, see check_against_references for substepped runs."""

    @pytest.mark.parametrize("integrator, gains, grid, rf", [
        ("fixed_rk4", GAINS, TimeGrid(1e-3, 1500), RF),
        ("fixed_rk4", GAINS, TimeGrid(2e-3, 1500), RF_OFF_AXIS),
        ("substepped", Gains(1e4, 5e4), TimeGrid(1e-3, 200), RF),
        ("substepped", Gains(1e4, 5e4), TimeGrid(1e-3, 200), RF_OFF_AXIS),
    ])
    def test_closed_loop(self, integrator, gains, grid, rf):
        run = simulate_closed_loop(R0, rf, gains, PARAMS, grid, integrator=integrator)
        bloch = check_against_references(run, integrator, R0, rf, gains, grid)
        if integrator == "substepped":  # the held tail is filled, not stepped
            assert np.all(bloch[-100:] == bloch[-1])

    @pytest.mark.parametrize("integrator, gains, grid, rf", [
        ("fixed_rk4", GAINS, TimeGrid(2e-3, 5000), RF_OFF_AXIS),
        ("substepped", Gains(1e10, 5e10), TimeGrid(1e-6, 300), RF),
    ])
    def test_closed_loop_in_benchmark_envelope(self, integrator, gains, grid, rf):
        # desk gains over a long fixed-step grid; physical gains to the pole,
        # where the state is held within the first sample and the tail is filled
        run = simulate_closed_loop(R0, rf, gains, PARAMS, grid, integrator=integrator)
        bloch = check_against_references(run, integrator, R0, rf, gains, grid)
        repeats = np.all(bloch[1:] == bloch[:-1], axis=1).sum()
        assert repeats == (grid.steps - 1 if integrator == "substepped" else 0)

    def test_drift_error_names_the_first_row_out_of_band(self):
        # a start near the antipode escapes slowly, then outruns dt = 0.07
        r0 = -RF_OFF_AXIS + np.array([1e-6, 1e-6, 0.0])
        r0 /= np.linalg.norm(r0)
        grid = TimeGrid(0.07, 60)
        with np.errstate(over="ignore", invalid="ignore"):
            bloch = naive_closed_loop(r0, RF_OFF_AXIS, GAINS, PARAMS, grid)[0]
        first = next(k for k, row in enumerate(bloch)
                     if not NORM_FLOOR <= math.hypot(*row) <= NORM_CEILING)
        assert first > 1
        with pytest.raises(IntegrationError, match=f"at sample {first};"):
            simulate_closed_loop(r0, RF_OFF_AXIS, GAINS, PARAMS, grid)

    @pytest.mark.parametrize("integrator, gains, grid", [
        ("fixed_rk4", GAINS, TimeGrid(1e-3, 500)),
        ("substepped", Gains(1e4, 5e4), TimeGrid(1e-3, 200)),
    ])
    def test_csv(self, integrator, gains, grid):
        run = simulate_closed_loop(R0, RF, gains, PARAMS, grid, integrator=integrator)
        b = run.trajectory.bloch
        repeats = np.all(b[1:] == b[:-1], axis=1).sum()
        assert (repeats > 100) == (integrator == "substepped")
        stream = io.StringIO()
        write_lyapunov_csv(run, stream)
        assert stream.getvalue() == naive_lyapunov_csv(run)

    def test_csv_keeps_signed_zeros_apart(self):
        bloch = np.array([[0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [-0.0, 0.0, 1.0]])
        zeros = np.array([0.0, -0.0, -0.0])
        run = LyapunovRun(BlochTrajectory(np.arange(3.0), bloch), zeros, zeros,
                          np.zeros(3), converged=True, final_error=0.0)
        stream = io.StringIO()
        write_lyapunov_csv(run, stream)
        assert stream.getvalue() == naive_lyapunov_csv(run)
        assert stream.getvalue().splitlines()[2] == "1.0,-0.0,0.0,1.0,-0.0,-0.0,0.0"


class TestKernel:
    @given(unit_bloch_vectors(), unit_bloch_vectors(),
           st.floats(min_value=1e-3, max_value=1e4), st.floats(min_value=1e-3, max_value=1e4),
           st.floats(min_value=1e-6, max_value=2.5))
    def test_two_steps_in_one_call_equal_two_calls(self, r, rf, alpha, beta, scale):
        steps = _closed_loop_steps(tuple(rf.tolist()), Gains(alpha, beta), PARAMS)
        h = scale / max(alpha, beta)
        r = tuple(r.tolist())
        assert (array("d", steps(r, h, 2)).tobytes()
                == array("d", steps(steps(r, h, 1), h, 1)).tobytes())


def drift_text(norm, sample):
    return (f"Bloch norm drifted by {norm - 1.0:.3e} at sample {sample}; "
            "use integrator='substepped' or shrink dt")


def first_out_of_band(rows):
    """(index, norm) of the first row the per-row test fails as each row is
    appended, or None; row 0 is the start state and is not tested."""
    for k, row in enumerate(rows[1:], 1):
        norm = math.hypot(*row)
        if not NORM_FLOOR <= norm <= NORM_CEILING:
            return k, norm
    return None


def near_edge(edge, ulps):
    for _ in range(abs(ulps)):
        edge = math.nextafter(edge, math.copysign(math.inf, ulps))
    return edge


class TestNormBand:
    """The band pass after the loop gives each row the verdict, and the first
    failure the text, of the per-row math.hypot test made as it is appended."""

    @given(st.floats(min_value=0.5, max_value=1.5), st.lists(
        st.tuples(unit_bloch_vectors(), st.sampled_from([NORM_FLOOR, NORM_CEILING]),
                  st.integers(min_value=-4, max_value=4)), min_size=1, max_size=8))
    def test_rows_at_the_edges_get_the_per_row_verdict(self, start, drawn):
        rows = [(start, 0.0, 0.0)]  # row 0 is never checked, in band or not
        rows += [tuple((v * near_edge(edge, ulps)).tolist()) for v, edge, ulps in drawn]
        flat = array("d", [c for row in rows for c in row])
        first = first_out_of_band(rows)
        if first is None:
            _check_norm_band(flat)
        else:
            with pytest.raises(IntegrationError) as failure:
                _check_norm_band(flat)
            assert str(failure.value) == drift_text(first[1], first[0])

    @pytest.mark.parametrize("row", [
        (-0.9497895555911886, -0.31241317325379847, 0.00989036234849114),
        (0.20040147223941515, 0.17222297673110407, -0.9644576186697645),
    ])
    def test_hypot_decides_rows_the_vectorised_norm_rounds_into_band(self, row):
        # one ulp from an edge: in band by the vectorised norm, out by math.hypot
        assert NORM_FLOOR <= math.sqrt(np.vecdot(row, row)) <= NORM_CEILING
        with pytest.raises(IntegrationError) as failure:
            _check_norm_band(array("d", tuple(R0.tolist()) + row))
        assert str(failure.value) == drift_text(math.hypot(*row), 1)

    @pytest.mark.parametrize("row", [
        (math.inf, 0.0, 0.0), (math.nan, 0.0, 0.0), (-math.inf, math.inf, math.nan),
        (1e200, -1e200, 0.0), (1e-200, 0.0, 0.0),
    ])
    def test_non_finite_and_huge_rows_fail_without_warnings(self, row):
        rows = [tuple(R0.tolist()), tuple(RF.tolist()), tuple(RF_OFF_AXIS.tolist()), row,
                (math.nan,) * 3]
        with pytest.raises(IntegrationError) as failure:
            _check_norm_band(array("d", [c for r in rows for c in r]))
        assert str(failure.value) == drift_text(math.hypot(*row), 3)

    def test_a_fixed_run_that_overflows_names_its_first_row_out_of_band(self):
        # dt = 2 is far past the RK4 bound 2.5/beta: the rows grow to inf and nan
        # over the rest of the grid, and the error still names sample 1
        steps = _closed_loop_steps(tuple(RF.tolist()), GAINS, PARAMS)
        norm = math.hypot(*steps(tuple(R0.tolist()), 2.0, 1))
        assert norm > NORM_CEILING
        with pytest.raises(IntegrationError) as failure:
            simulate_closed_loop(R0, RF, GAINS, PARAMS, TimeGrid(2.0, 2000))
        assert str(failure.value) == drift_text(norm, 1)


def unit_rows(seed, count):
    """``count`` (r0, rf) pairs of unit vectors from a seeded normal draw."""
    pairs = np.random.default_rng(seed).standard_normal((count, 2, 3))
    return [tuple(v / np.linalg.norm(v) for v in pair) for pair in pairs]


class TestSubsteppedKernel:
    """The adaptive Dormand-Prince loop: on the sphere, descending, held for good once
    it has arrived, bounded in steps, and in agreement with DOP853."""

    def test_a_frozen_state_ends_the_call(self):
        # once held, the kernel returns: no step starts after the hold, and every
        # later row repeats the held state bit for bit
        dense = array("d")
        t_hold, held = _adaptive_loop(tuple(R0.tolist()), tuple(RF.tolist()), Gains(1e4, 5e4),
                                      1e-3, 200, dense)
        assert 0.0 < t_hold < 0.01
        assert math.hypot(*(np.array(held) - RF)) <= HOLD_DISTANCE
        starts = np.frombuffer(dense).reshape(-1, 17)[:, 0]
        assert 0 < len(starts) <= round(t_hold / 1e-3) and starts.max() < t_hold
        bloch = simulate_closed_loop(R0, RF, Gains(1e4, 5e4), PARAMS, TimeGrid(1e-3, 200),
                                     integrator="substepped").trajectory.bloch
        later = TimeGrid(1e-3, 200).times > t_hold
        assert later.sum() > 100 and (bloch[later] == held).all()

    gains = st.floats(min_value=0.1, max_value=10.0)

    @given(unit_bloch_vectors(), unit_bloch_vectors(), gains, gains,
           st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=2, max_value=200))
    @example(R0, RF, 2.0, 10.0, 0.5, 200)  # held after about 80 of 200 samples
    # long steps: an interpolated DOP853 reference was 5.7e-10 off here
    @example(np.array([1.0, 0.0, 0.0]), np.array([0.79993751, 0.01249902, 0.59995313]),
             1.5, 0.125, 1.0, 4)
    # w grows from 1e-19 by 13 decades: a step error held only against |r - rf| was 2.8e-10
    # off here, and a DOP853 reference at atol 1e-16 4.9e-10
    @example(np.array([0.0, 0.0, 1.0]),
             np.array([1.1329099625600371e-19, 0.7071067811865475, -0.7071067811865475]),
             5.0, 0.125, 1.0, 2)
    # w grows from 1e-14 to order 1 and sends the state around before it returns: both were
    # about 1e-5 off here
    @example(np.array([0.0, 0.0, 1.0]), np.array([1e-14, 0.7071067811865475, -0.7071067811865475]),
             10.0, 0.1, 1.0, 200)
    def test_on_the_sphere_descending_and_near_dop853(self, r0, rf, alpha, beta, scale, steps):
        # a start near -rf or a target near the equator leaves the loop ill-conditioned or
        # stiff; both are slow for DOP853, not wrong
        assume(np.linalg.norm(r0 + rf) >= 0.1 and abs(rf[2]) >= 0.2)
        gains, grid = Gains(alpha, beta), TimeGrid(scale / min(alpha, beta), steps)
        run = simulate_closed_loop(r0, rf, gains, PARAMS, grid, integrator="substepped")
        bloch, eps = run.trajectory.bloch, np.finfo(float).eps
        assert np.abs(np.linalg.norm(bloch[1:], axis=1) - 1.0).max() <= 4 * eps
        assert np.diff(run.gamma_series).max() <= eps
        t_hold, held = _adaptive_loop(tuple(r0.tolist()), tuple(rf.tolist()), gains, grid.dt,
                                      grid.steps, array("d"))
        assert (bloch[grid.times > t_hold] == held).all()
        check_against_references(run, "substepped", r0, rf, gains, grid)

    def test_step_budget(self, monkeypatch):
        # a pole run at physical gains takes about 1k steps
        monkeypatch.setattr("scqsim.lyapunov.LOOP_STEP_BUDGET", 100)
        with pytest.raises(IntegrationError, match="took 100 steps and reached t = "):
            simulate_closed_loop(R0, RF, Gains(1e10, 5e10), PARAMS, TimeGrid(1e-6, 20000),
                                 integrator="substepped")

    @pytest.mark.parametrize("seed, gains, grid", [
        (4242, Gains(2.0, 10.0), TimeGrid(0.05, 400)),
        (4242, Gains(1e10, 5e10), TimeGrid(1e-6, 20000)),
    ], ids=["desk", "physical"])
    def test_seeded_draws(self, seed, gains, grid):
        # the step-doubling integrator this loop replaced exited at its minimum step on 19
        # of the 20 desk draws, and ran past 3 s on 19 of the 20 physical ones
        for r0, rf in unit_rows(seed, 20):
            self.check_finished_or_stiff(r0, rf, gains, grid)

    def test_seeded_stall_draws(self):
        # the step-doubling integrator stalled past 3 s on 6 of these and exited on 1
        for seed in range(20):
            r0, rf = unit_rows(seed, 1)[0]
            self.check_finished_or_stiff(r0, rf, Gains(1e10, 5e10), TimeGrid(1e-9, 400))

    @staticmethod
    def check_finished_or_stiff(r0, rf, gains, grid):
        """The run lies on the sphere with gamma non-increasing, or it used up the step
        budget on a target so near the equator that the loop is stiff."""
        try:
            run = simulate_closed_loop(r0, rf, gains, PARAMS, grid, integrator="substepped")
        except IntegrationError as exc:
            assert "steps and reached" in str(exc) and abs(rf[2]) < 0.01
            return
        eps = np.finfo(float).eps
        assert np.abs(np.linalg.norm(run.trajectory.bloch[1:], axis=1) - 1.0).max() <= 4 * eps
        assert np.diff(run.gamma_series).max() <= eps


class TestValidation:
    def test_gains_must_be_positive(self):
        with pytest.raises(DomainError):
            Gains(0.0, 1.0)
        with pytest.raises(DomainError):
            Gains(1.0, -2.0)

    def test_params_must_be_positive(self):
        with pytest.raises(DomainError):
            BilinearParams(E_c=0.0, C_g=1e-15, n_zpf=0.1, phi_zpf=3.0)

    def test_c_I_must_be_finite(self):
        # phi_zpf / e overflows to inf (it cannot underflow); the command line cannot
        # reach this, as n_zpf = 0.5 / phi_zpf takes c_V to 0 first
        with pytest.raises(DomainError, match=r"coefficient c_I \(from phi_zpf\) is inf;"):
            BilinearParams(E_c=PARAMS.E_c, C_g=PARAMS.C_g, n_zpf=PARAMS.n_zpf, phi_zpf=1e300)
