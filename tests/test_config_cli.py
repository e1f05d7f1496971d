import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scqsim.cli import _config_from_args, build_parser, main
from scqsim.config import (
    COMMAND_KEYS,
    COMMANDS,
    MAX_FOCK_LEVELS,
    MAX_STEPS,
    parse_bloch_spec,
    parse_config,
    parse_params_file,
    parse_state_spec,
)
from scqsim.errors import ConfigError
from scqsim.hamiltonians import QUBIT_KINDS, QubitParams, induced_charge

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
PARAM_NAMES = [f.name for f in fields(QubitParams) if f.name != "qubit_kind"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_simulate_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "run.cfg",
                                 "[simulate]\nqubit = charge\nt_final = 4e-12\n"))
        assert cfg.command == "simulate"
        assert cfg.model == "approximate"
        assert cfg.dt == pytest.approx(4e-12 / 2000)
        assert cfg.defaults_used["dt"] == "t_final / 2000"
        assert np.allclose(cfg.psi0, [1, 0])
        assert cfg.fmt == "csv"

    def test_unknown_key_fails_closed(self, tmp_path):
        path = write(tmp_path, "run.cfg",
                     "[simulate]\nqubit = charge\nt_final = 1e-12\ngamma_rate = 2\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:4.*gamma_rate"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, "run.cfg",
                     "[simulate]\nqubit = charge\nqubit = phase\nt_final = 1e-12\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="t_final"):
            parse_config(write(tmp_path, "run.cfg", "[simulate]\nqubit = charge\n"))

    def test_missing_section(self, tmp_path):
        with pytest.raises(ConfigError, match="section"):
            parse_config(write(tmp_path, "run.cfg", "qubit = charge\n"))

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError, match="calibrate"):
            parse_config(write(tmp_path, "run.cfg", "[calibrate]\n"))

    def test_bad_number_carries_line(self, tmp_path):
        path = write(tmp_path, "run.cfg",
                     "[simulate]\nqubit = charge\nt_final = fast\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config("/nonexistent/run.cfg")

    def test_missing_params_file_rejected(self, tmp_path):
        path = write(tmp_path, "run.cfg",
                     "[simulate]\nqubit = charge\nt_final = 1e-12\n"
                     "params = gone.params\n")
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(path)

    def test_shipped_charge_config_reference_values(self):
        cfg = parse_config(CONFIG_DIR / "charge_static_approx.cfg")
        p = cfg.params
        assert p.E_c == pytest.approx(7.55e-23)
        assert p.E_J == pytest.approx(0.018 * 7.55e-23, rel=1e-3)
        assert p.C_g == pytest.approx(0.68e-15)
        assert p.n_g == pytest.approx(induced_charge(0.68e-15, 1e-3), rel=1e-12)


class TestValueParsers:
    def test_state_spec_normalizes_with_warning(self):
        with pytest.warns(UserWarning, match="normalizing"):
            psi = parse_state_spec("2,0;0,-1")
        assert np.allclose(psi, np.array([2, -1j]) / np.sqrt(5))

    def test_normalized_state_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = parse_state_spec("1,0;0,0")
        assert np.allclose(psi, [1, 0])

    def test_state_spec_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_state_spec("1,0;two,0")
        with pytest.raises(ConfigError):
            parse_state_spec("1,0")

    @pytest.mark.parametrize("text, expected", [
        ("1e200,0;1,0", [1, 1e-200]),  # the squared norm overflows
        ("1e-200,0;1e-200,0", [2 ** -0.5, 2 ** -0.5]),  # the squared norm underflows
    ])
    def test_state_spec_normalizes_across_the_float_range(self, text, expected):
        with pytest.warns(UserWarning, match="normalizing"):
            psi = parse_state_spec(text)
        assert np.allclose(psi, expected, rtol=1e-15, atol=0)

    def test_bloch_spec_normalizes_across_the_float_range(self):
        with pytest.warns(UserWarning, match="norm 1.41421356e[+]300 differs"):
            r = parse_bloch_spec("1e300,0,1e300")
        assert np.allclose(r, [2 ** -0.5, 0, 2 ** -0.5])

    def test_bloch_spec(self):
        r = parse_bloch_spec("0,0,1")
        assert np.allclose(r, [0, 0, 1])
        with pytest.raises(ConfigError):
            parse_bloch_spec("0,0")

    def test_bloch_spec_rejects_non_numeric(self):
        with pytest.raises(ConfigError, match="Bloch spec '0,x,1' is not numeric"):
            parse_bloch_spec("0,x,1")

    def test_params_file_unknown_key(self, tmp_path):
        path = write(tmp_path, "p.params", "E_c = 1e-23\nfoo = 2\n")
        with pytest.raises(ConfigError, match=r"p\.params:2.*foo"):
            parse_params_file(path, "charge")

    def test_params_file_vg_ng_conflict(self, tmp_path):
        path = write(tmp_path, "p.params", "V_g = 1e-3\nn_g = 0.5\n")
        with pytest.raises(ConfigError, match="not both"):
            parse_params_file(path, "charge")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_params_file_rejects_non_finite_value(self, value, tmp_path):
        path = write(tmp_path, "p.params", f"E_c = 7.55e-23\nE_J = {value}\n")
        with pytest.raises(ConfigError, match=r"p\.params:2: E_J must be a finite number"):
            parse_params_file(path, "charge")

    @pytest.mark.parametrize("text, message", [
        ("E_c = 7.55e-23\n\nE_J = -1e-24\n", r"p\.params:3: E_J must be non-negative"),
        ("phi_zpf = 0\n", r"p\.params:1: phi_zpf must be positive"),
        ("C_g = 1e300\nV_g = 1e300\n", r"p\.params:2: V_g gives a non-finite n_g"),
        ("V_g = 1e-3\nn_g = 0.5\n", r"p\.params:2: give V_g or n_g, not both"),
        ("E_J = 1e-24\nn_zpf = 1e-320\n", r"p\.params:2: n_zpf gives non-finite operator scales"),
        ("E_LJ0 = 1e300\nE_c = 1e-300\n", r"p\.params:2: E_c gives non-finite operator scales"),
    ])
    def test_params_file_errors_name_their_line(self, text, message, tmp_path):
        with pytest.raises(ConfigError, match=message):
            parse_params_file(write(tmp_path, "p.params", text), "charge")

    @settings(max_examples=300)
    @given(kind=st.sampled_from(QUBIT_KINDS), lines=st.lists(st.one_of(
        st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                              include_characters="\x00\t"), max_size=24),
        st.builds("{} = {}".format,
                  st.sampled_from(PARAM_NAMES + ["V_g", "qubit_kind", "x", "", "[p]"]),
                  st.one_of(st.sampled_from(["nan", "-inf", "1e400", "-1", "0", "-0", "1e300",
                                             "7.55e-23", "x", ""]),
                            st.floats().map(repr), st.text(max_size=8)))), max_size=6))
    def test_fuzzed_params_file_raises_only_located_config_error(self, kind, lines):
        # a line number on every error; whatever is accepted is finite
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.params"
            path.write_text("\n".join(lines) + "\n")
            try:
                params = parse_params_file(path, kind)
            except ConfigError as exc:
                assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), str(exc)
                return
        values = [getattr(params, name) for name in PARAM_NAMES]
        assert all(math.isfinite(v) for v in values if v is not None)
        try:
            scales = params.zpf()
        except ConfigError:
            return
        assert all(map(math.isfinite, scales)), scales


class TestCliDesign:
    def test_charge_reference_plan(self, capsys):
        rc = main(["design", "--qubit", "charge", "--psi0", "2,0;0,-1",
                   "--psif", "1,0;2,1", "--tf", "1e-12"])
        assert rc == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["lambda_rad"] == pytest.approx(1.234, rel=5e-3)
        assert plan["amplitude"] == pytest.approx(-0.00715, rel=1e-2)
        assert plan["dc_offset"] == pytest.approx(0.00093, rel=1e-2)
        assert plan["omega_c_rad_s"] == pytest.approx(703035393816, rel=1e-3)

    def test_plan_written_to_file(self, tmp_path):
        out = tmp_path / "plan.json"
        rc = main(["design", "--qubit", "charge", "--psi0", "2,0;0,-1",
                   "--psif", "1,0;2,1", "--tf", "1e-12", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["kind"] == "charge"

    @pytest.mark.parametrize("command, qubit, params", [
        ("design", "charge", "C_g = 0\n"),
        ("drive-run", "charge", "C_g = 0\n"),
        ("design", "charge", "E_c = 0\n"),
        ("design", "flux", "E_L = 0\n"),
        ("design", "phase", "phi_zpf = 3e-309\n"),  # k = -(hbar / 2e) phi_zpf underflows
    ])
    def test_zero_drive_coupling_is_a_config_error(self, command, qubit, params, tmp_path,
                                                   capsys):
        # it used to end in a ZeroDivisionError traceback, exit 1
        path = write(tmp_path, "p.params", params)
        rc = main([command, "--qubit", qubit, "--psi0", "1,0;0,0", "--psif", "0.6,0;0,0.8",
                   "--tf", "1e-12", "--params", str(path), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"scqsim: configuration error: the {qubit} qubit's drive coupling is zero: "
            "no signal can rotate it\n")


class TestNumericOverflow:
    """Runs whose numbers overflow exit 3 with one line on stderr. They used to exit 0
    with nan rows, or end in an OverflowError or LinAlgError traceback."""

    @pytest.mark.parametrize("args, params", [
        (["simulate", "--qubit", "phase", "--t-final", "1e-12"], "E_c = 1e300\nE_J = 1e300\n"),
        (["simulate", "--qubit", "charge", "--model", "fock:8", "--t-final", "1e-12"],
         "E_c = 1e308\nn_g = 1e10\nn_zpf = 1\n"),
        (["simulate", "--qubit", "charge", "--model", "exact2", "--t-final", "1e-12"],
         "E_c = 1e300\nE_J = 1e300\nn_g = 1e300\nphi_zpf = 1\n"),
        (["drive-run", "--qubit", "charge", "--psi0", "1,0;0,0", "--psif", "0.6,0;0,0.8",
          "--tf", "1e300", "--steps", "3"], ""),
    ])
    def test_overflow_is_a_numeric_failure(self, args, params, tmp_path, capsys):
        path = write(tmp_path, "p.params", params)
        out = tmp_path / "out.txt"
        assert main([*args, "--params", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("scqsim: numeric failure: ") and err.count("\n") == 1

    def test_overflow_names_the_model_and_kind(self, tmp_path, capsys):
        # n_g**2 overflows in Python floats in the exact two-level build
        path = write(tmp_path, "p.params", "E_c = 1e300\nE_J = 1e300\nn_g = 1e300\nphi_zpf = 1\n")
        assert main(["simulate", "--qubit", "charge", "--model", "exact2", "--t-final", "1e-12",
                     "--params", str(path)]) == 3
        assert capsys.readouterr().err == ("scqsim: numeric failure: the exact_two_level "
                                           "Hamiltonian of the charge qubit overflows a float\n")

    @pytest.mark.parametrize("model, digits", [("approx", "321.8"), ("fock:8", "325.2")])
    def test_propagation_overflow_names_the_generator_scale(self, model, digits, tmp_path,
                                                            capsys):
        # the build is finite; max|w| t_final / hbar overflows in the phases
        path = write(tmp_path, "p.params", "E_c = 1e300\nE_J = 1e300\n")
        assert main(["simulate", "--qubit", "phase", "--model", model, "--t-final", "1e-12",
                     "--params", str(path), "--out", str(tmp_path / "out.csv")]) == 3
        name = {"approx": "approximate", "fock:8": "fock"}[model]
        assert capsys.readouterr().err == (
            f"scqsim: numeric failure: the {name} Hamiltonian of the phase qubit overflows in "
            f"propagation: its generator scale max|w| t_final / hbar is about 10^{digits}\n")

    @pytest.mark.parametrize("qubit, digits", [("charge", "311.8"), ("phase", "311.5"),
                                               ("flux", "311.6")])
    def test_replay_overflow_names_the_carrier_phase(self, qubit, digits, tmp_path, capsys):
        # tf is finite, but the exact-lab replay's carrier phase omega_c t_f is not
        out = tmp_path / "out.json"
        args = ["drive-run", "--qubit", qubit, "--psi0=1,0;0,0", "--psif=0.6,0;0,0.8",
                "--steps", "3", "--out", str(out)]
        assert main([*args, "--tf", "1e300"]) == 3
        assert capsys.readouterr().err == (
            f"scqsim: numeric failure: the exact_lab replay of the {qubit} plan overflows: "
            f"its carrier phase omega_c t_f is about 10^{digits} rad\n")
        assert not out.exists()
        assert main([*args, "--tf", "1e296"]) == 0  # omega_c t_f / 2 stays finite


class TestJsonOnlyCommands:
    TRANSFER = ["--qubit", "charge", "--psi0", "1,0;0,0", "--psif", "0.6,0;0,0.8",
                "--tf", "1e-12"]
    ARGS = {"design": TRANSFER, "drive-run": TRANSFER + ["--steps", "20"]}

    @pytest.mark.parametrize("command", ["design", "drive-run"])
    def test_csv_format_rejected(self, command, tmp_path, capsys):
        assert main([command, *self.ARGS[command], "--format", "csv"]) == 2
        assert capsys.readouterr().err == (
            "scqsim: configuration error: --format: format must be json\n")
        cfg = write(tmp_path, "run.cfg", f"[{command}]\nqubit = charge\npsi0 = 1,0;0,0\n"
                    "psif = 0.6,0;0,0.8\ntf = 1e-12\nformat = csv\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:6: format must be json"):
            parse_config(cfg)
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["design", "drive-run"])
    def test_json_format_accepted(self, command, tmp_path):
        out = tmp_path / "out.json"
        assert main([command, *self.ARGS[command], "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())


class TestCliLyapunov:
    def test_reference_run_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["lyapunov", "--r0", "0.4444,-0.8889,-0.1111", "--rf", "0,0,1",
                   "--alpha", "2", "--beta", "10", "--dt", "1e-3",
                   "--steps", "20000", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z,V,I,gamma"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        final = rows[-1, 1:4]
        assert np.linalg.norm(final - [0, 0, 1]) < 1e-3
        gamma = rows[:, 6]
        assert np.all(np.diff(gamma) <= 1e-9)

    def test_stiff_gains_need_substepping(self, tmp_path):
        rc = main(["lyapunov", "--r0", "0.4444,-0.8889,-0.1111", "--rf", "0,0,1",
                   "--alpha", "1e10", "--beta", "5e10", "--dt", "1e-6",
                   "--steps", "50", "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_substepped_step_budget_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # the pole run takes about 1k adaptive steps; past its budget the loop stops
        monkeypatch.setattr("scqsim.lyapunov.LOOP_STEP_BUDGET", 100)
        rc = main(["lyapunov", "--r0", "0.6,0,0.8", "--rf", "0,0,1",
                   "--alpha", "1e10", "--beta", "5e10", "--dt", "1e-6", "--steps", "50",
                   "--integrator", "substepped", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("scqsim: numeric failure: the adaptive closed loop took 100 steps")

    def test_norm_overshoot_is_a_numeric_failure(self, tmp_path, capsys):
        # fixed_rk4 pushes |r| past 1 + 1e-9 long before the 1e-4 drift bound
        rc = main(["lyapunov", "--r0", "0.6,0,0.8", "--rf", "0,0.6,0.8",
                   "--alpha", "2", "--beta", "10", "--dt", "4e-3", "--steps", "5000",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "substepped" in capsys.readouterr().err

    @pytest.mark.parametrize("params, value", [
        ("C_g = 1e-310\n", "0.0"),    # c_V underflows: the law divides by it
        ("n_zpf = 1e-300\n", "0.0"),
        ("phi_zpf = 1e-300\n", "inf"),  # n_zpf = 0.5 / phi_zpf takes c_V past the float range
        ("E_c = 0\nn_zpf = 1\n", "0.0"),  # a given n_zpf leaves E_c free to be 0
    ])
    def test_unusable_bilinear_coefficient_is_a_config_error(self, params, value, tmp_path,
                                                              capsys):
        path = write(tmp_path, "p.params", params)
        assert main(["lyapunov", "--r0=0.6,0,0.8", "--rf=0,0,1", "--alpha", "2", "--beta", "10",
                     "--dt", "1e-3", "--steps", "10", "--params", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scqsim: configuration error: the bilinear coefficient c_V ")
        assert f"is {value}; it must be positive and finite" in err and err.count("\n") == 1

    def test_equatorial_target_leaves_an_equatorial_start_in_place(self, capsys):
        # with zf = 0 every equatorial state has w = u = 0: the law never moves it
        rc = main(["lyapunov", "--r0", "0,1,0", "--rf", "1,0,0", "--alpha", "2", "--beta", "10",
                   "--dt", "1e-3", "--steps", "20000", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert {"t", "x", "y", "z", "V", "I", "gamma", "converged", "final_error"} <= set(data)
        assert data["converged"] is False
        assert data["final_error"] == pytest.approx(math.sqrt(2), rel=1e-12)
        assert len(data["x"]) == 20001
        assert set(data["x"]) == {0.0} and set(data["y"]) == {1.0} and set(data["z"]) == {0.0}


class TestCliSimulate:
    def test_zero_drive_rows_are_identical(self, tmp_path, capsys):
        params = write(tmp_path, "p.params", "V_g = 0\n")
        rc = main(["simulate", "--qubit", "charge", "--model", "exact2",
                   "--t-final", "1e-12", "--params", str(params)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,x,y,z,sx,sy,sz,norm"
        first_payload = lines[1].split(",", 1)[1]
        for line in lines[2:]:
            assert line.split(",", 1)[1] == first_payload

    def test_fock_model_exports_leakage(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--qubit", "charge", "--model", "fock:8",
                   "--t-final", "1e-12", "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,x,y,z,sx,sy,sz,norm,leakage"

    def test_non_finite_params_file_exits_2(self, tmp_path, capsys):
        # it used to exit 0 with every cell nan
        params = write(tmp_path, "nan.params", "E_J = nan\n")
        out = tmp_path / "nan.csv"
        assert main(["simulate", "--qubit", "charge", "--t-final", "1e-13",
                     "--params", str(params), "--out", str(out)]) == 2
        assert "nan.params:1: E_J must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_t_final_too_short_for_the_default_dt(self, capsys):
        assert main(["simulate", "--qubit", "charge", "--t-final", "5e-324"]) == 2
        err = capsys.readouterr().err
        assert err == ("scqsim: configuration error: --t-final: t_final = 5e-324 is too short: "
                       "its default dt = t_final / 2000 underflows to 0\n")

    def test_fock_below_four_levels_rejected(self, capsys):
        assert main(["simulate", "--qubit", "charge", "--model", "fock:3",
                     "--t-final", "1e-13"]) == 2
        assert "fock model needs at least 4 levels" in capsys.readouterr().err

    def test_json_format(self, capsys):
        rc = main(["simulate", "--qubit", "charge", "--t-final", "1e-13",
                   "--dt", "1e-14", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) >= {"t", "x", "y", "z", "sx", "sy", "sz", "norm"}
        assert len(data["t"]) == 11

    def test_substeps_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--qubit", "charge", "--t-final", "1e-13",
                  "--substeps", "3"])
        assert err.value.code == 2
        cfg = write(tmp_path, "run.cfg",
                    "[simulate]\nqubit = charge\nt_final = 1e-13\nsubsteps = 3\n")
        assert main(["--config", str(cfg)]) == 2

    def test_t_final_off_the_sample_grid_rejected(self, tmp_path, capsys):
        # 1e-12 / 3e-13 = 3.33 samples: the run used to stop at 9e-13
        rc = main(["simulate", "--qubit", "charge", "--t-final", "1e-12", "--dt", "3e-13"])
        assert rc == 2
        assert "whole number" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="whole number"):
            parse_config(write(tmp_path, "run.cfg",
                               "[simulate]\nqubit = charge\nt_final = 1e-12\ndt = 3e-13\n"))
        cfg = parse_config(write(tmp_path, "ok.cfg",
                                 "[simulate]\nqubit = charge\nt_final = 1e-12\n"
                                 "dt = 2.5e-13\n"))
        assert cfg.steps == 4


class TestCliDriveRun:
    @pytest.mark.parametrize("qubit", ["charge", "flux"])
    def test_long_coarse_replay_runs_clean(self, qubit, tmp_path, caplog):
        # a 1 ns transfer on 200 samples: exact propagators leave no norm drift
        caplog.set_level(logging.WARNING, logger="scqsim.evolution")
        out = tmp_path / "run.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # state spec normalization
            rc = main(["drive-run", "--qubit", qubit, "--psi0", "2,0;0,-1",
                       "--psif", "1,0;2,1", "--tf", "1e-9", "--steps", "200",
                       "--out", str(out)])
        assert rc == 0
        assert not [r for r in caplog.records if "drift" in r.getMessage()]
        summary = json.loads(out.read_text())
        assert summary["approximate_rotating"]["fidelity"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tf", ["5e-324", "1e-320"])
    def test_subnormal_transfer_time_rejected(self, tf, tmp_path, capsys):
        # pi / tf overflows before tf / steps, the replay grid's dt, can underflow
        assert main(cli_args("drive-run", dict(VALID["drive-run"], tf=tf,
                                               out=str(tmp_path / "out.json")))) == 2
        assert capsys.readouterr().err == ("scqsim: configuration error: drive plan has "
                                           "non-finite entries\n")
        assert not (tmp_path / "out.json").exists()

    def test_substeps_validated_but_inert(self, tmp_path):
        args = ["drive-run", "--qubit", "charge", "--psi0", "1,0;1,0",
                "--psif", "1,0;0,1", "--tf", "1e-12", "--steps", "50"]
        outputs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # state spec normalization
            assert main(args + ["--substeps", "0"]) == 2
            for substeps in ("1", "7"):
                out = tmp_path / f"run{substeps}.json"
                assert main(args + ["--substeps", substeps, "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, scqsim.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCliPlumbing:
    def test_config_and_subcommand_conflict(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", "[simulate]\nqubit = charge\nt_final = 1e-12\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "simulate", "--qubit", "charge",
                  "--t-final", "1e-12"])
        assert err.value.code == 2

    def test_missing_config_file_exit_code(self):
        assert main(["--config", "/nonexistent/run.cfg"]) == 2

    def test_no_subcommand_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        assert "a subcommand or --config is required" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write(tmp_path, "run.cfg",
                    "[simulate]\nqubit = charge\nt_final = 1e-12\nbogus = 1\n")
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[simulate]\nqubit = charge\n[design]\nt_final = 1e-12\n",
         "run.cfg:3: second section header"),
        ("[simulate]\nqubit = charge\nt_final = 1e-12\nmodel = fock:x\n",
         "run.cfg:4: bad Fock level count in model 'fock:x'"),
        ("[simulate]\nqubit = charge\nt_final = 1e-12\npsi0 = 1,0,0;0,1\n",
         "run.cfg:4: state amplitude '1,0,0' is not 're,im'"),
    ])
    def test_config_errors_name_their_line(self, text, message, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", text)
        assert main(["--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--model", "fock:x", "--model: bad Fock level count in model 'fock:x'"),
        ("--model", "approximate", "--model: unknown model 'approximate' (expected approx, "
                                   "exact2 or fock:N)"),
        ("--psi0", "1,0,0;0,1", "--psi0: state amplitude '1,0,0' is not 're,im'"),
    ])
    def test_flag_errors_name_their_flag(self, flag, value, message, capsys):
        assert main(["simulate", "--qubit", "charge", "--t-final", "1e-12",
                     f"{flag}={value}"]) == 2
        assert message in capsys.readouterr().err

    def test_lcjj_approx_names_the_models_lcjj_takes(self, capsys):
        assert main(["simulate", "--qubit", "lcjj", "--model", "approx",
                     "--t-final", "1e-13"]) == 2
        assert capsys.readouterr().err == (
            "scqsim: configuration error: the approximate model covers charge, phase and flux; "
            "use exact2 or fock:N for lcjj\n")

    def test_section_header_in_params_file(self, tmp_path, capsys):
        params = write(tmp_path, "p.params", "E_c = 7.55e-23\n[charge]\n")
        assert main(["simulate", "--qubit", "charge", "--t-final", "1e-12",
                     "--params", str(params), "--out", str(tmp_path / "x.csv")]) == 2
        assert "p.params:2: params files take no section header" in capsys.readouterr().err

    def test_io_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x.csv"  # parent is a file: cannot create
        rc = main(["simulate", "--qubit", "charge", "--t-final", "1e-13",
                   "--out", str(out)])
        assert rc == 4

    def test_parser_reuse_writes_what_a_fresh_parser_writes(self, capsys):
        # main() reuses one cached parser per process
        runs = [["simulate", "--qubit", "charge", "--bogus"],
                ["simulate", "--qubit", "charge", "--t-final", "1e-13"],
                ["design", "--qubit", "charge", "--psi0", "1,0;0,0",
                 "--psif", "0.6,0;0,0.8", "--tf", "1e-12", "--format", "json"]]

        def run(args):
            try:
                rc = main(args)
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            return rc, captured.out, captured.err

        alone = []
        for args in runs:
            build_parser.cache_clear()
            alone.append(run(args))
        build_parser.cache_clear()
        together = [run(args) for args in runs]
        assert together == alone
        assert [rc for rc, _, _ in alone] == [2, 0, 0]
        assert build_parser() is build_parser()

    def test_determinism_byte_identical(self, tmp_path):
        args = ["lyapunov", "--r0", "0.4444,-0.8889,-0.1111", "--rf", "0,0,1",
                "--alpha", "2", "--beta", "10", "--dt", "1e-3", "--steps", "500"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_configs_run_clean(config, tmp_path, monkeypatch):
    import time
    monkeypatch.chdir(tmp_path)  # relative out/ paths land in tmp
    start = time.perf_counter()
    assert main(["--config", str(config)]) == 0
    assert time.perf_counter() - start < 60.0


# A valid value for every required key of each command
VALID = {
    "simulate": {"qubit": "charge", "t_final": "1e-13"},
    "design": {"qubit": "charge", "psi0": "1,0;0,0", "psif": "0.6,0;0,0.8", "tf": "1e-12"},
    "drive-run": {"qubit": "charge", "psi0": "1,0;0,0", "psif": "0.6,0;0,0.8",
                  "tf": "1e-12", "steps": "5"},
    "lyapunov": {"r0": "0.6,0,0.8", "rf": "0,0,1", "alpha": "2", "beta": "10",
                 "dt": "1e-3", "steps": "5"},
}


def cli_args(command, options):
    return [command] + [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]


def config_text(command, options):
    return f"[{command}]\n" + "".join(f"{key} = {value}\n" for key, value in options.items())


class TestOneFrontEnd:
    """The CLI and config files share one schema and one validation path."""

    def test_cli_and_config_take_the_same_keys(self):
        expected = {
            "simulate": {"qubit", "model", "psi0", "t_final", "dt", "params", "out", "format"},
            "design": {"qubit", "psi0", "psif", "tf", "params", "out", "format"},
            "drive-run": {"qubit", "psi0", "psif", "tf", "steps", "substeps", "params", "out",
                          "format"},
            "lyapunov": {"r0", "rf", "alpha", "beta", "dt", "steps", "integrator", "params",
                         "out", "format"},
        }
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == set(COMMANDS) == set(expected)
        for command, parser in sub.choices.items():
            assert {a.dest for a in parser._actions} - {"help"} == expected[command]
            assert set(COMMAND_KEYS[command]) == expected[command]

    @pytest.mark.parametrize("command, key", [("simulate", "t_final"), ("drive-run", "tf"),
                                              ("lyapunov", "alpha"), ("lyapunov", "dt")])
    def test_non_finite_value_rejected_by_both(self, command, key, tmp_path, capsys):
        # the CLI used to crash (simulate), write NaN fidelities (drive-run) or exit 3
        options = dict(VALID[command], **{key: "inf"}, out=str(tmp_path / "out"))
        message = f"{key} must be a positive finite number"
        assert main(cli_args(command, options)) == 2
        assert f"--{key.replace('_', '-')}: {message}" in capsys.readouterr().err
        cfg = write(tmp_path, "run.cfg", config_text(command, options))
        line = 2 + list(options).index(key)
        assert main(["--config", str(cfg)]) == 2
        assert f"run.cfg:{line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    #: (command, key, value, message): values the library takes on trust
    OUT_OF_DOMAIN = [
        ("simulate", "qubit", "transmon", "qubit must be charge or phase or flux or lcjj"),
        ("drive-run", "steps", "0", "steps must be a positive integer"),
        ("lyapunov", "dt", "0", "dt must be a positive finite number"),
        ("lyapunov", "alpha", "0", "alpha must be a positive finite number"),
        ("lyapunov", "beta", "-2", "beta must be a positive finite number"),
        ("lyapunov", "integrator", "rk45", "integrator must be fixed_rk4 or substepped"),
    ]

    @pytest.mark.parametrize("command, key, value, message", OUT_OF_DOMAIN)
    def test_out_of_domain_value_rejected_by_both(self, command, key, value, message, tmp_path,
                                                  capsys):
        # one line each, with config.resolve's message; an enumerated value too
        options = dict(VALID[command], **{key: value}, out=str(tmp_path / "out"))
        assert main(cli_args(command, options)) == 2
        assert capsys.readouterr().err == f"scqsim: configuration error: --{key}: {message}\n"
        cfg = write(tmp_path, "run.cfg", config_text(command, options))
        line = 2 + list(options).index(key)
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"scqsim: configuration error: {cfg}:{line}: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, unit, doubled", [
        ("design", "psif", "0.6,0;0,0.8", "1.2,0;0,1.6"),
        ("lyapunov", "r0", "0.6,0,0.8", "1.2,0,1.6"),
        ("lyapunov", "rf", "0,0,1", "0,0,2"),
    ])
    def test_vector_off_the_unit_sphere_runs_as_its_unit_vector(self, command, key, unit,
                                                                doubled, tmp_path):
        # the library takes states and Bloch vectors as unit vectors: twice a unit
        # vector normalizes to its bits, with one warning per front end
        outputs = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for value in (unit, doubled):
                options = dict(VALID[command], **{key: value}, out=str(tmp_path / "cli.out"))
                assert main(cli_args(command, options)) == 0
                options["out"] = str(tmp_path / "cfg.out")
                assert main(["--config", str(write(tmp_path, "run.cfg",
                                                   config_text(command, options)))]) == 0
                outputs += [(tmp_path / name).read_bytes() for name in ("cli.out", "cfg.out")]
        assert len(set(outputs)) == 1
        assert [str(w.message).endswith("norm 2 differs from 1; normalizing")
                for w in caught] == [True, True]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_out_rejected_by_both(self, command, tmp_path, capsys):
        # it passed the schema and failed at open() with exit 4
        options = dict(VALID[command], out="")
        assert main(cli_args(command, options)) == 2
        assert "--out: out must not be empty" in capsys.readouterr().err
        cfg = write(tmp_path, "run.cfg", config_text(command, options))
        line = 2 + list(options).index("out")
        assert main(["--config", str(cfg)]) == 2
        assert f"run.cfg:{line}: out must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["design", "drive-run"])
    def test_drive_commands_reject_lcjj_at_parse_time(self, command, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", config_text(command, dict(VALID[command], qubit="lcjj")))
        with pytest.raises(ConfigError, match=r"run\.cfg:2: qubit must be charge or phase or flux"):
            parse_config(cfg)
        assert main(cli_args(command, dict(VALID[command], qubit="lcjj"))) == 2
        assert capsys.readouterr().err == (
            "scqsim: configuration error: --qubit: qubit must be charge or phase or flux\n")

    def test_defaults_filled_and_recorded(self, tmp_path):
        cfg = parse_config(write(tmp_path, "run.cfg", config_text("drive-run", VALID["drive-run"])))
        assert cfg.fmt == "json" and cfg.defaults_used == {"format": "json"}
        cfg = _config_from_args(build_parser().parse_args(cli_args("lyapunov", VALID["lyapunov"])))
        assert (cfg.integrator, cfg.fmt, cfg.steps) == ("fixed_rk4", "csv", 5)
        assert cfg.defaults_used == {"integrator": "fixed_rk4", "format": "csv"}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_every_schema_key(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for key in COMMAND_KEYS[command]:
            assert f"--{key.replace('_', '-')}" in out

    @settings(max_examples=300)
    @given(case=st.sampled_from([(command, key) for command, schema in COMMAND_KEYS.items()
                                 for key in schema]),
           text=st.one_of(
               st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                                     include_characters="\x00\t"), max_size=24),
               st.sampled_from(["inf", "-inf", "nan", "0", "-1", "1e400", "1e-400", "2.5",
                                "fock:3", "fock:x", "0,0;0,0", "nan,0;1,0", "1e200,0;1,0",
                                "0,0,0", "inf,0,0", "1e200,0,0", "lcjj", "csv", ".", "/"])))
    @example(case=("simulate", "t_final"), text="--")  # argparse passes [] for --key=--
    @example(case=("simulate", "model"), text="--")
    @example(case=("simulate", "psi0"), text="--")
    @example(case=("lyapunov", "r0"), text="--")
    @example(case=("lyapunov", "integrator"), text="rk45")  # config.resolve checks enumerations
    @example(case=("design", "format"), text="csv")
    def test_fuzzed_value_raises_only_config_error(self, case, text):
        command, key = case
        options = dict(VALID[command], **{key: text})
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
            warnings.simplefilter("ignore", UserWarning)  # state spec normalization
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(config_text(command, options))
            try:
                parse_config(cfg)
            except ConfigError as exc:  # a params file error names that file
                assert "run.cfg" in str(exc) or key == "params"
            args = build_parser().parse_args(cli_args(command, options))
            try:
                _config_from_args(args)
            except ConfigError:
                pass


class TestCommandLineValues:
    """What argparse hands on, or refuses, before config.resolve sees a value."""

    @pytest.mark.parametrize("command, flag", [("simulate", "--t-final"), ("simulate", "--model"),
                                               ("lyapunov", "--r0")])
    def test_double_dash_value_is_a_config_error(self, command, flag, capsys):
        options = {key: value for key, value in VALID[command].items()
                   if f"--{key.replace('_', '-')}" != flag}
        assert main(cli_args(command, options) + [f"{flag}=--"]) == 2
        assert f"{flag}: expected one value, got []" in capsys.readouterr().err

    def test_double_dash_config_path_is_a_config_error(self, capsys):
        assert main(["--config=--"]) == 2
        assert "--config: expected one value, got []" in capsys.readouterr().err

    def test_repeated_flag_is_a_duplicate_key(self, tmp_path, capsys):
        args = cli_args("simulate", VALID["simulate"]) + ["--t-final=2e-13"]
        assert main(args) == 2
        assert "--t-final: duplicate key 't_final'" in capsys.readouterr().err
        cfg = write(tmp_path, "run.cfg", "[simulate]\nqubit = charge\nt_final = 1e-13\n"
                                         "t_final = 2e-13\n")
        assert main(["--config", str(cfg)]) == 2
        assert "run.cfg:4: duplicate key 't_final'" in capsys.readouterr().err
        assert main(["--config", str(cfg), "--config", str(cfg)]) == 2
        assert "--config: duplicate key 'config'" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--qubit", "charge", "--t-fin", "1e-13"], "required: --t-final"),
        (["simulate", "--qubit", "charge", "--t-final", "1e-13", "--mod", "approx"],
         "unrecognized arguments: --mod approx"),
        (["--conf=run.cfg"], "unrecognized arguments: --conf=run.cfg"),
    ])
    def test_abbreviated_flag_is_refused(self, args, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_value_starting_with_a_dash_needs_an_equals_sign(self, tmp_path, capsys):
        options = dict(VALID["lyapunov"], out=str(tmp_path / "out.csv"))
        del options["r0"]
        with pytest.raises(SystemExit) as err:
            main(["lyapunov", "--r0", "-0.6,0,0.8", *cli_args("lyapunov", options)[1:]])
        assert err.value.code == 2
        assert ("--r0: expected one argument; a value that starts with '-' goes after '=', "
                "as in --r0=-0.6,0,0.8") in capsys.readouterr().err
        assert main(["lyapunov", "--r0=-0.6,0,0.8", *cli_args("lyapunov", options)[1:]]) == 0
        assert (tmp_path / "out.csv").read_text().splitlines()[1].startswith("0.0,-0.6,0.0,0.8,")


class TestLimits:
    """Caps on what one option can ask for, from both front ends (README, "Limits")."""

    CASES = [  # (command, options over VALID, key named, message)
        ("simulate", {"model": f"fock:{MAX_FOCK_LEVELS + 1}"}, "model",
         f"fock model takes at most {MAX_FOCK_LEVELS} levels"),
        ("drive-run", {"steps": str(MAX_STEPS + 1)}, "steps", f"steps must be at most {MAX_STEPS}"),
        ("lyapunov", {"steps": str(MAX_STEPS + 1)}, "steps", f"steps must be at most {MAX_STEPS}"),
        ("simulate", {"t_final": "1e-6", "dt": repr(1e-6 / (MAX_STEPS + 1))}, "dt",
         f"at most {MAX_STEPS}"),
        ("simulate", {"t_final": "1e300", "dt": "1e-300"}, "dt", "t_final / dt is inf steps"),
        # the step cap does not depend on the level count
        ("simulate", {"model": f"fock:{MAX_FOCK_LEVELS}", "t_final": "1e-6",
                      "dt": repr(1e-6 / (MAX_STEPS + 1))}, "dt", f"at most {MAX_STEPS}"),
        # a horizon that overflows, refused before a sample is taken
        ("lyapunov", {"dt": "1e308", "steps": "2"}, "dt",
         "the horizon dt * steps = 1e+308 * 2 overflows"),
    ]

    @pytest.mark.parametrize("command, extra, key, message", CASES)
    def test_above_a_cap_rejected_by_both(self, command, extra, key, message, tmp_path, capsys):
        options = dict(VALID[command], **extra, out=str(tmp_path / "out"))
        assert main(cli_args(command, options)) == 2
        assert f"--{key.replace('_', '-')}: " in capsys.readouterr().err
        cfg = write(tmp_path, "run.cfg", config_text(command, options))
        line = 2 + list(options).index(key)
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:{line}: " in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, options", [
        ("simulate", {"model": f"fock:{MAX_FOCK_LEVELS}"}),
        ("drive-run", {"steps": str(MAX_STEPS)}),
        ("lyapunov", {"steps": str(MAX_STEPS)}),
        ("simulate", {"t_final": "1e-6", "dt": repr(1e-6 / MAX_STEPS)}),
        ("simulate", {"model": f"fock:{MAX_FOCK_LEVELS}", "t_final": "1e-6",
                      "dt": repr(1e-6 / MAX_STEPS)}),
        # the largest benchmark cases
        ("simulate", {"model": "fock:40", "t_final": "1e-10"}),
        ("lyapunov", {"dt": "1e-3", "steps": "20000"}),
        ("drive-run", {"steps": "20000"}),
        # the step cap holds at every level count
        ("simulate", {"model": f"fock:{MAX_FOCK_LEVELS}", "t_final": "1e-6",
                      "dt": repr(1e-6 / 25_000)}),
    ])
    def test_at_a_cap_accepted(self, command, options, tmp_path):
        cfg = parse_config(write(tmp_path, "run.cfg",
                                 config_text(command, dict(VALID[command], **options))))
        assert cfg.steps <= MAX_STEPS
        assert (cfg.n_levels or 2) <= MAX_FOCK_LEVELS

    def test_long_fock_run_in_bounded_memory(self, tmp_path):
        # a run keeps no state history: 25,001 samples at fock:200 trace under 64 MiB,
        # where the history alone would take 76 MiB
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = main(["simulate", "--qubit", "flux", "--model", f"fock:{MAX_FOCK_LEVELS}",
                         "--t-final", "1e-10", "--dt", "4e-15", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * 2**20
        assert len(out.read_text().splitlines()) == 25_002

    @pytest.mark.filterwarnings("ignore::UserWarning")  # state spec normalization
    def test_shipped_configs_within_the_caps(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = parse_config(path)
            assert cfg.steps <= MAX_STEPS
