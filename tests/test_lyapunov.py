import io
import math
import time
from array import array

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import unit_bloch_vectors
from oracles import bilinear_rhs, naive_closed_loop, naive_lyapunov_csv, reduced_loop_rk4

from scqsim.constants import HBAR
from scqsim.errors import DomainError, IntegrationError
from scqsim.evolution import BlochTrajectory, TimeGrid
from scqsim.export import write_lyapunov_csv
from scqsim.hamiltonians import default_params
from scqsim.lyapunov import (
    FREEZE_DISPLACEMENT,
    NORM_CEILING,
    NORM_FLOOR,
    SUBSTEP_DRIFT_TOL,
    BilinearParams,
    Gains,
    LyapunovRun,
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


class TestBitwiseOracle:
    """simulate_closed_loop and write_lyapunov_csv equal per-row references bit for bit."""

    @pytest.mark.parametrize("integrator, gains, grid, rf", [
        ("fixed_rk4", GAINS, TimeGrid(1e-3, 1500), RF),
        ("fixed_rk4", GAINS, TimeGrid(2e-3, 1500), RF_OFF_AXIS),
        ("substepped", Gains(1e4, 5e4), TimeGrid(1e-3, 200), RF),
        ("substepped", Gains(1e4, 5e4), TimeGrid(1e-3, 200), RF_OFF_AXIS),
    ])
    def test_closed_loop(self, integrator, gains, grid, rf):
        run = simulate_closed_loop(R0, rf, gains, PARAMS, grid, integrator=integrator)
        bloch, V, I, gamma = naive_closed_loop(R0, rf, gains, PARAMS, grid, integrator)
        assert np.array_equal(run.trajectory.bloch, bloch)
        assert np.array_equal(run.V_series, V)
        assert np.array_equal(run.I_series, I)
        assert np.array_equal(run.gamma_series, gamma)
        if integrator == "substepped":  # the frozen tail is filled, not stepped
            assert np.all(bloch[-100:] == bloch[-1])

    @pytest.mark.parametrize("integrator, gains, grid, rf", [
        ("fixed_rk4", GAINS, TimeGrid(2e-3, 5000), RF_OFF_AXIS),
        ("substepped", Gains(1e10, 5e10), TimeGrid(1e-6, 300), RF),
    ])
    def test_closed_loop_in_benchmark_envelope(self, integrator, gains, grid, rf):
        # desk gains over a long fixed-step grid; physical gains to the pole,
        # where the state freezes after the first sample and the tail is filled
        run = simulate_closed_loop(R0, rf, gains, PARAMS, grid, integrator=integrator)
        bloch, V, I, gamma = naive_closed_loop(R0, rf, gains, PARAMS, grid, integrator)
        assert np.array_equal(run.trajectory.bloch, bloch)
        assert np.array_equal(run.V_series, V)
        assert np.array_equal(run.I_series, I)
        assert np.array_equal(run.gamma_series, gamma)
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

    @pytest.mark.parametrize("last, expected", [
        ((0.0, 0.0, 1.0 + 1e-6), "Bloch norm drifted by 1.000e-06 at sample 2;"),
        ((0.0, 0.0, 1.0), "minimum step"),
    ])
    def test_a_row_out_of_band_precedes_a_later_kernel_error(self, monkeypatch, last,
                                                               expected):
        def stub(rf, g, p):
            def steps(r, h, count, rows=None, dt=None):
                rows.extend((0.6, 0.0, 0.8) + last)
                raise IntegrationError("substepped integrator hit the minimum step without"
                                       " meeting the local tolerance (err = 1.000e-16)")
            return steps

        monkeypatch.setattr("scqsim.lyapunov._closed_loop_steps", stub)
        with pytest.raises(IntegrationError, match=expected):
            simulate_closed_loop(R0, RF, Gains(1e4, 5e4), PARAMS, TimeGrid(1e-3, 10),
                                 integrator="substepped")


class Stalled(Exception):
    """More trials than a budget: the step halves and doubles around the
    roundoff floor, where the allowance is below one ulp of the state."""


def composed_samples(steps, r, rf, g, dt, count, budget=100_000):
    """``count`` step-doubling samples composed from fixed-step kernel calls: a
    coarse step, then two half steps in one call, per trial. Returns the
    sample states up to the first frozen one and the numbers of rejected and
    of doubling trials; raises IntegrationError at the minimum step, and
    Stalled past ``budget`` trials."""
    def speed(r):
        w = r[0] * rf[2] - rf[0] * r[2]
        u = rf[1] * r[2] - r[1] * rf[2]
        return 2.0 * (g.alpha * abs(w) + g.beta * abs(u))

    cap = 2.5 / max(g.alpha, g.beta)
    h, rows, rejected, doubled = dt, [], 0, 0
    for _ in range(count):
        if speed(r) * dt < FREEZE_DISPLACEMENT:
            break
        h, remaining = min(h, dt, cap), dt
        while remaining > 0.0 and not speed(r) * remaining < FREEZE_DISPLACEMENT:
            h = min(h, remaining)
            while True:
                budget -= 1
                if budget < 0:
                    raise Stalled
                coarse, fine = steps(r, h, 1), steps(r, 0.5 * h, 2)
                err = math.hypot(*(f - c for f, c in zip(fine, coarse)))
                allowance = SUBSTEP_DRIFT_TOL * (h / dt)
                if err <= allowance:
                    break
                if h <= dt * 2.0 ** -48:
                    raise IntegrationError("minimum step")
                h *= 0.5
                rejected += 1
            r, remaining = fine, remaining - h
            if err < allowance / 64.0:
                h = min(h * 2.0, dt, cap)
                doubled += 1
        rows.extend(r)
    return rows, rejected, doubled


class TestSubsteppedKernel:
    """Whole substepped samples in one kernel call against the same rules run
    trial by trial through fixed-step calls, bit for bit."""

    def check(self, r, rf, g, dt, count):
        steps = _closed_loop_steps(rf, g, PARAMS)
        try:
            expected, rejected, doubled = composed_samples(steps, r, rf, g, dt, count)
        except IntegrationError:
            with pytest.raises(IntegrationError, match="minimum step"):
                steps(r, dt, count, None, dt)
            return None
        rows = array("d")
        last = steps(r, dt, count, rows, dt)
        assert rows.tobytes() == array("d", expected).tobytes()
        assert array("d", last).tobytes() == array("d", expected[-3:] or r).tobytes()
        return len(rows) // 3, rejected, doubled

    gains = st.floats(min_value=100.0, max_value=1000.0)

    @given(unit_bloch_vectors(), unit_bloch_vectors(), gains, gains,
           st.integers(min_value=1, max_value=3))
    def test_samples_equal_composed_fixed_steps(self, r, rf, alpha, beta, count):
        rf, r = tuple(rf.tolist()), tuple(r.tolist())
        w, u = r[0] * rf[2] - rf[0] * r[2], rf[1] * r[2] - r[1] * rf[2]
        assume(abs(w) + abs(u) > 1e-3)  # moves by far more than the tolerance in a sample
        try:
            outcome = self.check(r, rf, Gains(alpha, beta), 0.005, count)
        except Stalled:  # the known substep stall, on which the kernel would not return
            assume(False)
        if outcome is not None:  # doubling steps: test_a_frozen_state_ends_the_call
            samples, rejected, _ = outcome
            assert samples == count
            assume(rejected > 0)  # the retried trial shares its first stage too

    def test_a_frozen_state_ends_the_call(self):
        samples, rejected, doubled = self.check(tuple(R0.tolist()), tuple(RF.tolist()),
                                                Gains(1e4, 5e4), 1e-3, 200)
        assert 0 < samples < 200 and rejected > 0 and doubled > 0


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
