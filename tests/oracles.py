"""Independent reference computations the tests check the library against.

Nothing here imports the code paths under test: matrix exponentials come from
a plain Taylor series, Bloch rotations from the Rodrigues formula, a generic
H(t) from the commutator-free Magnus step CF4, drive plans back to rotations
from the inversion identities, and the feedback loop from a literal
reduced-form RK4 and from scipy's DOP853. The bit-for-bit references of the
fixed-step feedback loop and its CSV are built one row at a time from the
bilinear equations (bilinear_rhs, here) and the library's single-vector
formulas (feedback_controls, lyapunov_value) and repr(), with none of the loop
or export code they check; so are the trajectory CSV and the json text of both
exports.
"""

import json
import math

import numpy as np
from scipy.integrate import solve_ivp

from scqsim.constants import HBAR
from scqsim.lyapunov import feedback_controls, lyapunov_value

#: (ax, ay, az) of the rotating-frame drive k amp (ax Q sx - ay I sy + az Q sz) per kind
DRIVE_AXES = {"charge": (1 / 8, 1 / 4, 1 / 8), "phase": (1 / 16, 1 / 4, -1 / 4),
              "flux": (1 / 16, 1 / 4, -1 / 4)}


def taylor_expm(A, terms=30):
    A = np.asarray(A, dtype=complex)
    result = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ A / n
        result = result + term
    return result


def scaled_taylor_expm(A, terms=30):
    """Taylor series after 2^-s scaling, squared back s times."""
    A = np.asarray(A, dtype=complex)
    norm = np.linalg.norm(A, 2)
    s = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    R = taylor_expm(A / 2**s, terms)
    for _ in range(s):
        R = R @ R
    return R


def rodrigues(n, alpha):
    """3x3 rotation matrix about unit axis n by angle alpha (right-handed)."""
    n = np.asarray(n, dtype=float)
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(alpha) * K + (1.0 - np.cos(alpha)) * (K @ K)


def taylor_cos(A, terms=40):
    """cos of a Hermitian matrix: even Taylor series plus double-angle reduction.

    The argument is scaled by 2^-s until its norm is below 1/2 (keeping the
    series free of cancellation), then cos(2X) = 2 cos(X)^2 - I is applied s
    times.
    """
    A = np.asarray(A, dtype=complex)
    norm = np.linalg.norm(A, 2)
    s = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    X = A / 2**s
    X2 = X @ X
    result = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ X2 * (-1.0 / ((2 * n - 1) * (2 * n)))
        result = result + term
    eye = np.eye(A.shape[0], dtype=complex)
    for _ in range(s):
        result = 2.0 * result @ result - eye
    return result


def pauli_coefficients(H):
    """(cx, cy, cz) with H = c0 I + cx sx + cy sy + cz sz."""
    H = np.asarray(H, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.array([np.trace(H @ P).real / 2 for P in (sx, sy, sz)])


def reconstruct_rotation(plan):
    """omega_q * n_hat a plan implies: the inversion identities of scqsim.drives read backwards."""
    ax, ay, az = DRIVE_AXES[plan.qubit_kind]
    Q = math.sin(plan.lam)
    I = math.cos(plan.lam)
    wx = 2 * ax * plan.k * plan.amplitude * Q / HBAR
    wy = -2 * ay * plan.k * plan.amplitude * I / HBAR
    wz = 2 * az * plan.k * plan.amplitude * Q / HBAR + 2 * plan.k * plan.dc_offset / HBAR
    return np.array([wx, wy, wz])


def cf4_states(h_of_t, psi0, times):
    """States of i hbar dpsi/dt = H(t) psi at ``times`` by the commutator-free Magnus step CF4.

    A step of h takes H1, H2 at the Gauss-Legendre nodes 1/2 -+ r, r = sqrt(3)/6, and
    applies exp(-i h ((1/4 + r) H1 + (1/4 - r) H2) / hbar), then the exponential with
    the weights swapped (Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)):
    fourth order, unitary, exact for a constant H. The Magnus series converges only
    for h ||H|| / hbar < pi (Moan & Niesen, Found. Comput. Math. 8, 291 (2008)), H
    shifted by the identity that minimizes its norm; every step asserts that bound.
    """
    r = np.sqrt(3) / 6
    psi = np.asarray(psi0, dtype=complex).ravel()
    states = [psi]
    for t, h in zip(times[:-1], np.diff(times)):
        H1, H2 = h_of_t(t + (0.5 - r) * h), h_of_t(t + (0.5 + r) * h)
        angle = 0.0
        for exponent in ((0.25 + r) * H1 + (0.25 - r) * H2,
                         (0.25 - r) * H1 + (0.25 + r) * H2):
            w, v = np.linalg.eigh(exponent)
            angle += 0.5 * (w[-1] - w[0]) * h / HBAR  # an identity part is a phase
            psi = v @ (np.exp(-1j * (h * w) / HBAR) * (v.conj().T @ psi))
        assert angle < np.pi, f"CF4 step angle {angle:.3g} at t = {t:.6g} s reaches pi"
        states.append(psi)
    return np.array(states)


def bilinear_rhs(r, V, I, phi, c_phi, p):
    """Bloch velocity of the driven circuit, exactly tangent to the sphere; ``c_phi`` is the
    flux channel's coefficient 2 E_L phi_zpf / hbar, ``p`` a lyapunov.BilinearParams. The
    closed-loop kernel of scqsim.lyapunov equals RK4 on it bit for bit."""
    x, y, z = r
    gv = p.c_V * V
    gi = c_phi * phi + p.c_I * I
    return np.array([-gv * z, gi * z, gv * x - gi * y])


def reduced_loop_rk4(r0, rf, alpha, beta, dt, steps):
    """Fine-step RK4 on the gain-only closed loop dr/dt = f(r; alpha, beta)."""
    rf = np.asarray(rf, dtype=float)

    def f(r):
        w = r[0] * rf[2] - rf[0] * r[2]
        u = rf[1] * r[2] - r[1] * rf[2]
        return np.array([-alpha * w * r[2], beta * u * r[2],
                         alpha * w * r[0] - beta * u * r[1]])

    r = np.asarray(r0, dtype=float).copy()
    out = np.empty((steps + 1, 3))
    out[0] = r
    for k in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        r = r + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = r
    return out


def naive_closed_loop(r0, rf, g, p, grid):
    """Per-row reference of a fixed_rk4 simulate_closed_loop: (bloch, V, I, gamma).

    Every RK4 stage drives bilinear_rhs (flux and c_phi pinned at 0) with
    feedback_controls at the stage state. V, I and gamma take one call per row.
    """
    rf = np.asarray(rf, dtype=float)
    dt = grid.dt

    def f(r):
        V, I = feedback_controls(r, rf, g, p)
        return bilinear_rhs(r, V, I, 0.0, 0.0, p)

    r = np.asarray(r0, dtype=float)
    rows = [r]
    for _ in range(grid.steps):
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        r = r + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        rows.append(r)
    bloch = np.array(rows)
    controls = np.array([feedback_controls(b, rf, g, p) for b in bloch])
    gamma = np.array([lyapunov_value(b, rf) for b in bloch])
    return bloch, controls[:, 0], controls[:, 1], gamma


def dop853_closed_loop(r0, rf, alpha, beta, times, arrived=1e-14):
    """The gain-only closed loop at ``times`` by scipy's DOP853 at rtol 1e-13.

    atol is 1e-100, so the control is relative in every component that is not
    smaller than that: a component near 1e-19 that grows by 13 decades (as a
    feedback signal can) is then still right to 1e-10. Each sample is the end of its own integration from the sample before, not
    an interpolant. Integration stops once |r - rf| <= ``arrived``, and later
    times repeat that state: the loop only contracts toward rf, and an
    explicit method would otherwise spend its steps on a stiff decay that
    moves nothing.
    """
    rf = np.asarray(rf, dtype=float)
    xf, yf, zf = rf

    def f(t, r):
        w = r[0] * zf - xf * r[2]
        u = yf * r[2] - r[1] * zf
        return [-alpha * w * r[2], beta * u * r[2], alpha * w * r[0] - beta * u * r[1]]

    def arrival(t, r):
        return math.hypot(*(r - rf)) - arrived

    arrival.terminal = True
    rows = [np.asarray(r0, dtype=float)]
    for t0, t1 in zip(times[:-1], times[1:]):
        r = rows[-1]
        if arrival(t0, r) > 0.0:
            r = solve_ivp(f, (t0, t1), r, method="DOP853", rtol=1e-13, atol=1e-100,
                          first_step=min(t1 - t0, 0.01 / max(alpha, beta)),
                          events=arrival).y[:, -1]
        rows.append(r)
    return np.array(rows)


def trajectory_columns(traj):
    """(header, columns) of a trajectory export: t, Bloch, <sigma>, norm[, leakage]."""
    header = ["t", "x", "y", "z", "sx", "sy", "sz", "norm"]
    columns = [traj.times, traj.bloch[:, 0], traj.bloch[:, 1], traj.bloch[:, 2],
               traj.expectations["sx"], traj.expectations["sy"], traj.expectations["sz"],
               traj.norms]
    if traj.leakage is not None:
        header.append("leakage")
        columns.append(traj.leakage)
    return header, columns


def lyapunov_columns(run):
    """(header, columns) of a feedback-run export: t, Bloch, V, I, gamma."""
    traj = run.trajectory
    return (["t", "x", "y", "z", "V", "I", "gamma"],
            [traj.times, traj.bloch[:, 0], traj.bloch[:, 1], traj.bloch[:, 2],
             run.V_series, run.I_series, run.gamma_series])


def naive_csv(header, columns):
    """A CSV written cell by cell with repr()."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def naive_json(data):
    """json.dump(indent=2, sort_keys=True) of ``data`` with its arrays as lists, plus a newline."""
    plain = {key: value.tolist() if isinstance(value, np.ndarray) else value
             for key, value in data.items()}
    return json.dumps(plain, indent=2, sort_keys=True) + "\n"


def naive_lyapunov_csv(run):
    """The feedback CSV written cell by cell with repr()."""
    return naive_csv(*lyapunov_columns(run))


def naive_trajectory_csv(traj):
    """The trajectory CSV written cell by cell with repr()."""
    return naive_csv(*trajectory_columns(traj))
