"""Output checks for benchmark runs, computed without scqsim.

Each check recomputes the expected result from the case's own inputs, with
the physics written out here: Pauli coefficients of the two-level
Hamiltonians, a Rodrigues rotation, a dense Fock Hamiltonian propagated with
``scipy.linalg.expm``, and the closed-form single-axis rotation of an exact
lab-frame replay. Nothing here imports scqsim, so no check runs the code path
it checks.

A check returns None when the output is right and a one-line reason when it
is not. Tolerances are loose enough for the integrators the program uses
(RK4, step doubling) and tight enough to catch a wrong propagator, axis or
sign.
"""

import functools
import json
import math

import numpy as np
import scipy.linalg

from workloads import PARAMS

E_CHARGE = 1.602176634e-19  # C, CODATA 2018
HBAR = 1.054571817e-34      # J s, CODATA 2018

EXACT_TOL = 1e-7        # eigen-/closed-form propagation against expm or Rodrigues
APPROX_REPLAY_TOL = 1e-6  # RK4 on the constant rotating-frame generator
EXACT_REPLAY_TOL = 2e-3   # RK4 on the carrier; its drift is only checked against 1e-4
NORM_TOL = 1e-4         # the program's own abort threshold for Bloch norm drift
GAMMA_RISE_TOL = 1e-9   # the program's own monotonicity tolerance
SIMULATE_STRIDE = 50    # simulate checks every 50th sample and the last one


def _resolved(kind: str) -> dict:
    """Reference parameters with the derived quantities filled in."""
    p = {"E_c": 0.0, "E_J": 0.0, "E_L": 0.0, "C_g": 0.0, "n_g": 0.0, "I_g": 0.0,
         "phi_e": 0.0}
    p.update(PARAMS[kind])
    if "V_g" in p:
        p["n_g"] = p["C_g"] * p.pop("V_g") / (2 * E_CHARGE)
    if "phi_zpf" in p:
        p["n_zpf"] = 0.5 / p["phi_zpf"]
    else:
        p["n_zpf"] = (p["E_LJ0"] / (32.0 * p["E_c"])) ** 0.25
        p["phi_zpf"] = (2.0 * p["E_c"] / p["E_LJ0"]) ** 0.25
    return p


def _state(spec: str) -> np.ndarray:
    amps = [complex(float(re), float(im))
            for re, im in (part.split(",") for part in spec.split(";"))]
    psi = np.array(amps)
    return psi / np.linalg.norm(psi)


def _bloch(psi) -> np.ndarray:
    a, b = psi[0], psi[1]
    w = np.conj(a) * b
    return np.array([2 * w.real, 2 * w.imag, abs(a) ** 2 - abs(b) ** 2])


def _rodrigues(n, angle) -> np.ndarray:
    """Rotation matrix (or stack of them for an array of angles) about unit axis n."""
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _pauli_coefficients(kind: str, model: str) -> np.ndarray:
    """(cx, cy, cz) of the traceless two-level Hamiltonian, in joules."""
    p = _resolved(kind)
    phase_coupling = HBAR / (2 * E_CHARGE) * p["phi_zpf"]
    if model == "approx":
        if kind == "charge":
            return np.array([0.5 * p["E_J"], 0.0, p["E_c"] * (0.5 - p["n_g"])])
        if kind == "phase":
            return np.array([0.5 * p["E_J"] - phase_coupling * p["I_g"], 0.0, -0.5 * p["E_c"]])
        return np.array([0.5 * p["E_J"] - p["E_L"] * p["phi_zpf"] * p["phi_e"], 0.0,
                         -0.5 * p["E_c"]])
    cx = 0.0
    cy = 0.0
    if kind in ("charge", "lcjj"):
        cy -= 2 * p["E_c"] * p["n_g"] * p["n_zpf"]
    if kind in ("phase", "lcjj"):
        cx -= phase_coupling * p["I_g"]
    if kind in ("flux", "lcjj"):
        cx -= p["E_L"] * p["phi_zpf"] * p["phi_e"]
    return np.array([cx, cy, 0.0])


def _fock_hamiltonian(kind: str, n_levels: int) -> np.ndarray:
    p = _resolved(kind)
    a = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), 1)
    n_op = 1j * p["n_zpf"] * (a - a.T)
    phi_op = p["phi_zpf"] * (a + a.T)
    w, v = np.linalg.eigh(phi_op)
    cos_phi = (v * np.cos(w)) @ v.T
    eye = np.eye(n_levels)
    charge = n_op - p["n_g"] * eye if kind in ("charge", "lcjj") else n_op
    H = -p["E_J"] * cos_phi + p["E_c"] * (charge @ charge)
    if kind in ("phase", "lcjj"):
        H = H - HBAR / (2 * E_CHARGE) * p["I_g"] * phi_op
    if kind in ("flux", "lcjj"):
        shifted = phi_op - p["phi_e"] * eye
        H = H + 0.5 * p["E_L"] * (shifted @ shifted)
    return H


def _read_columns(path, suffix, stride=1):
    """(row count, column name -> values of every stride-th row plus the last row)."""
    with open(path) as f:
        if suffix == ".json":
            data = {k: v for k, v in json.load(f).items() if isinstance(v, list)}
            n = len(data["t"])
            rows = list(range(0, n, stride)) + [n - 1]
            return n, {k: np.asarray(v, dtype=float)[rows] for k, v in data.items()}
        header = f.readline().strip().split(",")
        lines = f.read().splitlines()
    picked = lines[::stride] + lines[-1:]
    table = np.fromstring(",".join(picked), sep=",").reshape(len(picked), len(header))
    return len(lines), {name: table[:, i] for i, name in enumerate(header)}


def _max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


@functools.lru_cache(maxsize=256)
def _fock_propagator(kind: str, n_levels: int, t: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * _fock_hamiltonian(kind, n_levels) * (t / HBAR))


def check_simulate(case, out_path):
    opts = case.options
    kind = opts["qubit"]
    n_rows, cols = _read_columns(out_path, case.out_suffix, SIMULATE_STRIDE)
    t_final = float(opts["t_final"])
    grid = t_final / 2000.0 * np.arange(2001)
    times = np.append(grid[::SIMULATE_STRIDE], grid[-1])
    if n_rows != grid.size or _max_dev(cols["t"], times) > 1e-9 * t_final:
        return f"time column differs from the 2001-sample grid over {t_final}"
    psi0 = _state(opts["psi0"])
    bloch = np.column_stack([cols["x"], cols["y"], cols["z"]])
    if opts["model"].startswith("fock:"):
        n_levels = int(opts["model"].split(":")[1])
        psi = np.zeros(n_levels, dtype=complex)
        psi[:2] = psi0
        psi = _fock_propagator(kind, n_levels, times[-1]) @ psi
        captured = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
        expected = _bloch(psi[:2] / math.sqrt(captured))
        if _max_dev(bloch[-1], expected) > EXACT_TOL:
            return f"final Bloch vector off the dense expm propagation by {_max_dev(bloch[-1], expected):.3e}"
        leakage = 1.0 - captured / np.vdot(psi, psi).real
        if abs(cols["leakage"][-1] - leakage) > EXACT_TOL:
            return f"final leakage {cols['leakage'][-1]!r} != expm value {leakage!r}"
        return None
    c = _pauli_coefficients(kind, opts["model"])
    size = np.linalg.norm(c)
    if size == 0.0:
        expected = np.broadcast_to(_bloch(psi0), bloch.shape)
    else:
        rotations = _rodrigues(c / size, 2.0 * size / HBAR * times)
        expected = rotations @ _bloch(psi0)
    if _max_dev(bloch, expected) > EXACT_TOL:
        return f"Bloch samples off the Rodrigues rotation by {_max_dev(bloch, expected):.3e}"
    if _max_dev(cols["norm"], 1.0) > 1e-9:
        return "two-level state norm drifted"
    return None


# drive slot coupling c of H(t) = c s(t) sigma_axis for the exact two-level model
def _replay_axis_coupling(kind: str):
    p = _resolved(kind)
    if kind == "charge":
        return np.array([0.0, 1.0, 0.0]), -p["E_c"] * p["n_zpf"] * p["C_g"] / E_CHARGE
    if kind == "phase":
        return np.array([1.0, 0.0, 0.0]), -HBAR / (2 * E_CHARGE) * p["phi_zpf"]
    return np.array([1.0, 0.0, 0.0]), -p["E_L"] * p["phi_zpf"]


def check_drive_run(case, out_path):
    opts = case.options
    kind = opts["qubit"]
    with open(out_path) as f:
        summary = json.load(f)
    plan = summary["plan"]
    p = _resolved(kind)
    omega_c = abs(p["E_c"] - p["E_J"]) / HBAR
    if not math.isclose(plan["omega_c_rad_s"], omega_c, rel_tol=1e-12):
        return f"carrier {plan['omega_c_rad_s']!r} rad/s != |E_c - E_J|/hbar = {omega_c!r}"
    r0 = _bloch(_state(opts["psi0"]))
    rf = _bloch(_state(opts["psif"]))
    approx = summary["approximate_rotating"]["final_bloch"]
    if _max_dev(approx, rf) > APPROX_REPLAY_TOL:
        return f"rotating-frame replay misses the target by {_max_dev(approx, rf):.3e}"
    tf = float(opts["tf"])
    wc, lam = plan["omega_c_rad_s"], plan["lambda_rad"]
    integral = (plan["amplitude"] * (math.cos(lam) - math.cos(wc * tf + lam)) / wc
                + plan["dc_offset"] * tf)
    axis, coupling = _replay_axis_coupling(kind)
    expected = _rodrigues(axis, 2.0 / HBAR * coupling * integral) @ r0
    exact = summary["exact_lab"]["final_bloch"]
    if _max_dev(exact, expected) > EXACT_REPLAY_TOL:
        return f"lab-frame replay off the closed-form rotation by {_max_dev(exact, expected):.3e}"
    stem = out_path[: -len(".json")]
    for model, suffix in (("approximate_rotating", "_approx.csv"), ("exact_lab", "_exact.csv")):
        with open(stem + suffix) as f:
            last = f.read().rstrip("\n").rsplit("\n", 1)[-1].split(",")
        if [float(v) for v in last[1:4]] != summary[model]["final_bloch"]:
            return f"{suffix} last row disagrees with the JSON summary"
    return None


def check_lyapunov(case, out_path):
    opts = case.options
    n_rows, cols = _read_columns(out_path, ".csv")
    steps = int(opts["steps"])
    if n_rows != steps + 1:
        return f"{n_rows} rows for {steps} steps"
    rf = np.array([float(v) for v in opts["rf"].split(",")])
    rf /= np.linalg.norm(rf)
    r = np.column_stack([cols["x"], cols["y"], cols["z"]])
    if _max_dev(np.linalg.norm(r, axis=1), 1.0) > NORM_TOL:
        return f"|r| drifts by {_max_dev(np.linalg.norm(r, axis=1), 1.0):.3e}"
    gamma = 0.5 * ((r - rf) ** 2).sum(axis=1)
    if _max_dev(cols["gamma"], gamma) > 1e-12:
        return "gamma column differs from |r - rf|^2 / 2"
    rise = float(np.diff(gamma).max())
    if rise > GAMMA_RISE_TOL:
        return f"gamma rises by {rise:.3e}"
    return None


CHECKS = {"simulate": check_simulate, "drive-run": check_drive_run,
          "lyapunov": check_lyapunov}


def check(case, out_path):
    """None if the run's output is right, else a one-line reason."""
    try:
        return CHECKS[case.command](case, out_path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
