"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `[acceptance] ... PASS/FAIL` line so the suite can
be read as a checklist (run with `pytest tests/test_acceptance.py -v -s`).
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import unit_state
from oracles import cf4_states, reconstruct_rotation, reduced_loop_rk4, rodrigues

from scqsim.cli import main
from scqsim.config import parse_config
from scqsim.constants import E_CHARGE, HBAR
from scqsim.core import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_from_state
from scqsim.drives import (
    bisector_axis,
    carrier_frequency,
    closed_loop_experiment,
    design_transfer,
)
from scqsim.evolution import TimeGrid, propagate_static
from scqsim.hamiltonians import (
    QubitParams,
    build,
    build_approximate,
    build_exact_two_level,
    default_params,
)
from scqsim.lyapunov import BilinearParams, Gains, simulate_closed_loop

CHARGE = default_params("charge")
PSI0 = unit_state(2, -1j)
PSIF = unit_state(1, 2 + 1j)
T_F = 1e-12


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num:2d} {name}: FAIL")
        raise
    print(f"[acceptance] {num:2d} {name}: PASS")


def test_01_charge_drive_design_reproduction():
    with criterion(1, "charge drive design reproduction"):
        start = time.perf_counter()
        *_, plan = design_transfer(PSI0, PSIF, T_F, CHARGE)
        assert time.perf_counter() - start < 1.0
        assert plan.lam == pytest.approx(1.234, rel=5e-3)
        assert plan.amplitude == pytest.approx(-0.00715, rel=1e-2)
        assert plan.dc_offset == pytest.approx(0.00093, rel=1e-2)
        assert plan.omega_c == pytest.approx(703035393816, rel=1e-3)


def test_02_carrier_frequencies():
    with criterion(2, "phase/flux carrier frequencies"):
        start = time.perf_counter()
        phase = carrier_frequency(default_params("phase"))
        flux = carrier_frequency(default_params("flux"))
        assert time.perf_counter() - start < 1.0
        assert phase == pytest.approx(309697312116, rel=1e-3)
        assert flux == pytest.approx(408312678393, rel=1e-3)


def test_03_bisector_axes():
    with criterion(3, "bisector axes for all three circuits"):
        start = time.perf_counter()
        cases = [
            (unit_state(2, -1j), unit_state(1, 2 + 1j),
             [0.816, -0.571, -0.0816]),
            (unit_state(-2, 3 - 3j), unit_state(2, 2 - 1j),
             [0.414, 0.122, -0.902]),
            (unit_state(-1, 1j), unit_state(2, 1 + 8j),
             [0.056, -0.517, -0.853]),
        ]
        for psi0, psif, expected in cases:
            n_hat = bisector_axis(bloch_from_state(psi0), bloch_from_state(psif))
            assert np.abs(n_hat - expected).max() < 1e-3
        assert time.perf_counter() - start < 1.0


def test_04_rotating_frame_transfer():
    with criterion(4, "designed plan reaches target on the rotating-frame model"):
        _, rf, plan = design_transfer(PSI0, PSIF, T_F, CHARGE)
        grid = TimeGrid(T_F / 2000, 2000)
        res = closed_loop_experiment(plan, PSI0, "approximate_rotating", grid,
                                     CHARGE, r_target=rf)
        assert np.linalg.norm(res.r_final - rf) < 1e-3
        # the plan's rotating-frame generator, read back, turns by alpha about n_hat in t_f
        rotation = reconstruct_rotation(plan) * T_F
        assert np.abs(rotation - math.pi * plan.n_hat).max() < 1e-9 * math.pi


def test_05_exact_model_divergence():
    with criterion(5, "same plan misses on the exact lab-frame model"):
        r0, rf, plan = design_transfer(PSI0, PSIF, T_F, CHARGE)
        grid = TimeGrid(T_F / 2000, 2000)
        approx = closed_loop_experiment(plan, PSI0, "approximate_rotating", grid,
                                        CHARGE, r_target=rf)
        exact = closed_loop_experiment(plan, PSI0, "exact_lab", grid, CHARGE,
                                       r_target=rf)
        assert exact.fidelity <= approx.fidelity - 0.05
        # final state pinned by the closed-form y-rotation of the exact model
        n_zpf, _ = CHARGE.zpf()
        wc, lam = plan.omega_c, plan.lam
        integral = (plan.amplitude * (math.cos(lam) - math.cos(wc * T_F + lam)) / wc
                    + plan.dc_offset * T_F)
        theta = (2 / HBAR) * (-CHARGE.E_c * n_zpf * CHARGE.C_g / E_CHARGE) * integral
        expected = rodrigues([0, 1, 0], theta) @ r0
        assert np.abs(exact.r_final - expected).max() < 1e-6


def test_06_no_drive_stationarity():
    with criterion(6, "undriven exact models freeze the state"):
        psi0 = unit_state(3, 1 - 2j)
        for kind in ("charge", "phase", "flux"):
            p = QubitParams(kind, E_c=7.55e-23, E_J=1.359e-24, E_L=6e-23,
                            C_g=0.68e-15, E_LJ0=1.359e-24)
            H = build_exact_two_level(p)
            traj = propagate_static(H, psi0, TimeGrid(1e-13, 10000))
            displacement = np.abs(traj.bloch - traj.bloch[0]).max()
            assert displacement < 1e-9


def test_07_axis_discrepancy():
    with criterion(7, "approximate and exact rotation axes disagree by > 45 deg"):
        H_app = build_approximate(CHARGE)
        H_ex = build_exact_two_level(CHARGE)
        assert np.trace(SIGMA_Y @ H_app) == 0
        assert np.trace(SIGMA_X @ H_ex) == 0
        assert np.trace(SIGMA_Z @ H_ex) == 0
        axis = lambda H: np.array([np.trace(H @ P).real / 2  # noqa: E731
                                   for P in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
        # the angle between the two rotation axes as lines, at the default parameters
        for kind, degrees in (("charge", 90.0), ("flux", 65.17)):
            params = default_params(kind)
            a = axis(build_approximate(params))
            b = axis(build_exact_two_level(params))
            cos_angle = abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            angle = math.degrees(math.acos(min(cos_angle, 1.0)))
            assert angle > 45.0
            assert angle == pytest.approx(degrees, abs=0.005)


def test_08_lyapunov_descent_and_convergence():
    with criterion(8, "Lyapunov loop descends, converges, uses uV / nA controls"):
        start = time.perf_counter()
        r0 = np.array([4 / 9, -8 / 9, -1 / 9])
        rf = np.array([0.0, 0.0, 1.0])
        params = BilinearParams.from_qubit(default_params("lcjj"))
        run = simulate_closed_loop(r0, rf, Gains(2.0, 10.0), params,
                                   TimeGrid(1e-3, 20000))
        assert np.all(np.diff(run.gamma_series) <= 1e-9)
        assert run.final_error < 1e-3
        assert np.all(np.diff(run.trajectory.bloch[:, 2]) >= -1e-12)
        physical = simulate_closed_loop(r0, rf, Gains(1e10, 5e10), params,
                                        TimeGrid(1e-6, 20000),
                                        integrator="substepped")
        assert 1e-7 <= np.abs(physical.V_series).max() <= 1e-4
        assert 1e-10 <= np.abs(physical.I_series).max() <= 1e-7
        assert time.perf_counter() - start < 30.0


def test_09_parameter_cancellation():
    with criterion(9, "closed loop independent of physical parameters"):
        r0 = np.array([4 / 9, -8 / 9, -1 / 9])
        rf = np.array([0.0, 0.0, 1.0])
        base = BilinearParams.from_qubit(default_params("lcjj"))
        scaled = BilinearParams(E_c=base.E_c * 10, C_g=base.C_g * 10,
                                n_zpf=base.n_zpf * 10, phi_zpf=base.phi_zpf * 10)
        grid = TimeGrid(1e-3, 20000)
        gains = Gains(2.0, 10.0)
        a = simulate_closed_loop(r0, rf, gains, base, grid)
        b = simulate_closed_loop(r0, rf, gains, scaled, grid)
        assert np.abs(a.trajectory.bloch - b.trajectory.bloch).max() < 1e-10


def test_10_numerical_hygiene():
    with criterion(10, "norm invariant, CF4 agreement, grid independence"):
        start = time.perf_counter()
        H = build_approximate(CHARGE)
        psi0 = unit_state(2, -1j)
        grid = TimeGrid(2.5e-15, 2000)
        static = propagate_static(H, psi0, grid)
        assert np.abs(static.norms - 1.0).max() < 1e-10
        cf4 = cf4_states(lambda t: H, psi0, grid.times)
        assert np.abs(static.bloch - [bloch_from_state(psi) for psi in cf4]).max() < 1e-8
        # an exact propagator: half the step lands on the same final state
        halved = propagate_static(H, psi0, TimeGrid(1.25e-15, 4000))
        assert np.abs(halved.bloch[-1] - static.bloch[-1]).max() < 1e-9
        # independent cross-check of the feedback loop on a fresh geometry
        r0 = np.array([0.6, 0.0, -0.8])
        rf = np.array([0.0, 1.0, 0.0])
        run = simulate_closed_loop(r0, rf, Gains(3.0, 4.0),
                                   BilinearParams.from_qubit(default_params("lcjj")),
                                   TimeGrid(1e-3, 5000))
        oracle = reduced_loop_rk4(r0, rf, 3.0, 4.0, 1e-4, 50000)
        assert np.abs(run.trajectory.bloch[-1] - oracle[-1]).max() < 1e-8
        assert time.perf_counter() - start < 120.0


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_11_phase_trajectory_same_expectations_differ(tmp_path, monkeypatch):
    # the abstract: for the phase qubit the approximate Hamiltonian traces the same
    # trajectory as the exact one, yet the expectation values differ along it
    with criterion(11, "phase qubit: same orbit, different expectations"):
        monkeypatch.chdir(tmp_path)
        rows, axes = {}, {}
        for model in ("approx", "exact"):
            config = CONFIGS / f"phase_static_{model}.cfg"
            assert main(["--config", str(config)]) == 0
            cfg = parse_config(config)
            rows[model] = np.loadtxt(cfg.out, delimiter=",", skiprows=1)[:, 1:4]
            axes[model] = np.array([np.trace(build(cfg.params, cfg.model) @ P).real / 2
                                    for P in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
        a, n = axes["approx"], axes["exact"] / np.linalg.norm(axes["exact"])
        angle = math.degrees(math.atan2(np.linalg.norm(np.cross(a, n)), a @ n))
        assert angle < 1e-4  # 7.1e-6 deg
        # distance of each approx sample to the exact orbit: the circle through
        # r0 about n
        c = rows["exact"][0] @ n
        along = rows["approx"] @ n
        across = np.linalg.norm(rows["approx"] - along[:, None] * n, axis=1)
        orbit_gap = np.hypot(along - c, across - math.sqrt(1.0 - c * c))
        assert orbit_gap.max() < 1e-6  # 2.5e-7
        assert np.linalg.norm(rows["approx"] - rows["exact"], axis=1).max() >= 5e-3  # 8.7e-3


@pytest.mark.filterwarnings("ignore::UserWarning")  # the config's states are normalized
def test_12_flux_replay_endpoint_close_trajectory_apart(tmp_path, monkeypatch):
    # the abstract: the same drive on the exact model follows a different trajectory.
    # On the shipped flux replay the endpoints nearly agree, so only the path shows it.
    # Each CSV is in the frame it is written in: rotating for approx, lab for exact.
    with criterion(12, "flux replay: endpoint fidelity close, trajectory apart"):
        monkeypatch.chdir(tmp_path)
        config = CONFIGS / "flux_drive_replay.cfg"
        assert main(["--config", str(config)]) == 0
        out = Path(parse_config(config).out)
        gap = json.loads(out.read_text())["fidelity_gap"]
        rows = [np.loadtxt(out.with_suffix("").as_posix() + suffix, delimiter=",",
                           skiprows=1)[:, 1:4] for suffix in ("_approx.csv", "_exact.csv")]
        distance = np.linalg.norm(rows[0] - rows[1], axis=1)
        assert 0 < gap < 1e-3  # 8.9e-4
        assert distance.mean() > 0.5  # 0.619; max 0.974
