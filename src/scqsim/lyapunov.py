"""Lyapunov feedback stabilization of the L-C-JJ qubit on the Bloch sphere.

The Bloch components of the driven circuit obey bilinear equations

    dx/dt = -cV V z
    dy/dt = (cphi phi + cI I) z
    dz/dt =  cV V x - (cphi phi + cI I) y

with cV = n_zpf E_c C_g / (2 e hbar), cI = phi_zpf / e and
cphi = 2 E_L phi_zpf / hbar. Choosing V = (alpha/cV)(x zf - xf z) and
I = (beta/cI)(yf z - y zf) with the flux channel pinned to zero makes the
squared error gamma = |r - rf|^2 / 2 non-increasing: dgamma/dt =
-alpha w^2 - beta u^2. The physical coefficients cancel exactly, so the
closed loop depends only on the gains. With phi = 0 the loop never reads
cphi, so BilinearParams carries no E_L.

Each integrator is one plain-float kernel call per run. "fixed_rk4" takes one
RK4 step per sample, reproducible bit for bit. "substepped" takes adaptive
Dormand-Prince 5(4) steps, each projected back onto the sphere, reads the
samples from the continuous extension and holds the state for good once it
has arrived.
"""

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .constants import E_CHARGE, HBAR
from .errors import DomainError, IntegrationError
from .evolution import BlochTrajectory, TimeGrid
from .hamiltonians import QubitParams

@dataclass(frozen=True)
class BilinearParams:
    """Physical coefficients of the bilinear Bloch equations. The feedback law
    divides by c_V and c_I, so each must come out positive and finite."""

    E_c: float
    C_g: float
    n_zpf: float
    phi_zpf: float

    def __post_init__(self):
        for name in ("E_c", "C_g", "n_zpf", "phi_zpf"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        for name, sources in (("c_V", "n_zpf, E_c and C_g"), ("c_I", "phi_zpf")):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"the bilinear coefficient {name} (from {sources}) is "
                                  f"{value!r}; it must be positive and finite")

    @property
    def c_V(self) -> float:
        return self.n_zpf * self.E_c * self.C_g / (2 * E_CHARGE * HBAR)

    @property
    def c_I(self) -> float:
        return self.phi_zpf / E_CHARGE

    @classmethod
    def from_qubit(cls, p: QubitParams) -> "BilinearParams":
        n_zpf, phi_zpf = p.zpf()
        return cls(E_c=p.E_c, C_g=p.C_g, n_zpf=n_zpf, phi_zpf=phi_zpf)


@dataclass(frozen=True)
class Gains:
    """Feedback gains; both strictly positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise DomainError("feedback gains must be positive")


@dataclass
class LyapunovRun:
    """Closed-loop trajectory with its control signals and Lyapunov series."""

    trajectory: BlochTrajectory
    V_series: np.ndarray
    I_series: np.ndarray
    gamma_series: np.ndarray
    converged: bool
    final_error: float


def feedback_controls(r, rf, g: Gains, p: BilinearParams):
    """Stabilizing voltage and current: V = (alpha/cV)(x zf - xf z), I = (beta/cI)(yf z - y zf).

    ``r`` is one Bloch vector or any ``(..., 3)`` array of them; V and I come
    back as scalars or as arrays of the leading shape.
    """
    x, y, z = np.moveaxis(np.asarray(r, dtype=float), -1, 0)
    w = x * rf[2] - rf[0] * z
    u = rf[1] * z - y * rf[2]
    return g.alpha / p.c_V * w, g.beta / p.c_I * u


def lyapunov_value(r, rf):
    """Squared error gamma = |r - rf|^2 / 2 of one Bloch vector or a ``(..., 3)`` array.

    ``np.vecdot`` gives each row the bits ``np.dot`` gives that row alone; an
    explicit sum of squares or ``einsum`` rounds some rows differently.
    """
    e = np.asarray(r, float) - np.asarray(rf, float)
    return 0.5 * np.vecdot(e, e)


def _closed_loop_steps(rf, g: Gains, p: BilinearParams):
    """Counted RK4 kernel ``steps(r, h, count, rows=None) -> r`` of the closed loop.

    A call takes ``count`` RK4 steps of h, one per sample, in plain floats
    with each stage written out once; the velocity keeps the physical route
    c_V * ((alpha/c_V) * w), so the trajectory matches, bit for bit, RK4 on
    the bilinear equations driven by feedback_controls at every stage
    (tests/oracles.py holds that reference). With ``rows`` (an ``array('d')``)
    each sample's state is appended, unchecked, by one bound ``fromlist``
    call; simulate_closed_loop checks the norm band afterwards.
    """
    c_V, c_I = p.c_V, p.c_I
    k_V, k_I = g.alpha / c_V, g.beta / c_I
    xf, yf, zf = rf

    def steps(r, h, count, rows=None):
        x, y, z = r
        put = None if rows is None else rows.fromlist
        a, s = 0.5 * h, h / 6.0
        for _ in repeat(None, count):
            gv = c_V * (k_V * (x * zf - xf * z))
            gi = c_I * (k_I * (yf * z - y * zf))
            k1x, k1y, k1z = -gv * z, gi * z, gv * x - gi * y
            x2, y2, z2 = x + a * k1x, y + a * k1y, z + a * k1z
            gv = c_V * (k_V * (x2 * zf - xf * z2))
            gi = c_I * (k_I * (yf * z2 - y2 * zf))
            k2x, k2y, k2z = -gv * z2, gi * z2, gv * x2 - gi * y2
            x2, y2, z2 = x + a * k2x, y + a * k2y, z + a * k2z
            gv = c_V * (k_V * (x2 * zf - xf * z2))
            gi = c_I * (k_I * (yf * z2 - y2 * zf))
            k3x, k3y, k3z = -gv * z2, gi * z2, gv * x2 - gi * y2
            x2, y2, z2 = x + h * k3x, y + h * k3y, z + h * k3z
            gv = c_V * (k_V * (x2 * zf - xf * z2))
            gi = c_I * (k_I * (yf * z2 - y2 * zf))
            k4x, k4y, k4z = -gv * z2, gi * z2, gv * x2 - gi * y2
            x = x + s * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + s * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            z = z + s * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            if put is not None:
                put([x, y, z])
        return x, y, z

    return steps


#: local error allowed per adaptive step: LOOP_TOL * max(|r - rf|, LOOP_TOL_FLOOR), and
#: LOOP_TOL * max(|s|, SIGNAL_FLOOR) in each feedback signal s (w or u) while it grows
LOOP_TOL = 1e-12
LOOP_TOL_FLOOR = 1e-3
SIGNAL_FLOOR = sys.float_info.min
#: the adaptive loop holds its state once |r - rf| <= HOLD_DISTANCE, or once the
#: feedback speed cannot move it by HOLD_TRAVEL over the rest of the run
HOLD_DISTANCE = 64 * sys.float_info.epsilon
HOLD_TRAVEL = 8 * sys.float_info.epsilon
#: accepted plus rejected steps one adaptive run may take; a pole run takes about 1k
LOOP_STEP_BUDGET = 200_000


def _adaptive_loop(r, rf, g: Gains, dt, count, dense):
    """Dormand-Prince 5(4) kernel of the closed loop on the unit sphere: ``-> (t, r)``.

    Plain floats in gain units (the physical coefficients cancel), each stage
    written out once; the last stage, taken at the step's end, is the next
    step's first (FSAL). The local error estimate is held to LOOP_TOL *
    max(|r - rf|, LOOP_TOL_FLOOR) with the step-size rule of Hairer, Norsett &
    Wanner, *Solving ODEs I*, II.4. While a feedback signal grows, the error
    in it is also held to LOOP_TOL times the signal: dw/dt = -alpha w (xf x +
    zf z) + beta xf u y, so w grows where xf x + zf z < 0, and u where yf y +
    zf z < 0. A signal that starts tiny can grow by tens of e-folds, and an
    absolute error in it grows with it. Every accepted state is projected
    back onto the sphere (Hairer, Lubich & Wanner, *Geometric Numerical
    Integration*, IV.4). Samples lie at k dt for k = 0 .. count; a step that
    reaches the next one appends t0, h and the five coefficient rows of its
    continuous extension (II.6) to the ``array('d')`` ``dense``. The run ends
    at count dt, or earlier once the state is held (HOLD_DISTANCE,
    HOLD_TRAVEL); it returns that time and state. More than LOOP_STEP_BUDGET
    steps raise IntegrationError.
    """
    alpha, beta = g.alpha, g.beta
    xf, yf, zf = rf
    x, y, z = r
    n = math.hypot(x, y, z)
    x, y, z = x / n, y / n, z / n
    t, t_end, t_next = 0.0, dt * count, dt
    w, u = x * zf - xf * z, yf * z - y * zf
    aw, bu = alpha * w, beta * u
    k1x, k1y, k1z = -aw * z, bu * z, aw * x - bu * y
    e = math.hypot(x - xf, y - yf, z - zf)
    h, grow, put = 0.01 / max(alpha, beta), 10.0, dense.fromlist  # the rule corrects h at once
    for _ in range(LOOP_STEP_BUDGET + 1):
        if e <= HOLD_DISTANCE or 2.0 * (alpha * abs(w) + beta * abs(u)) * (t_end - t) < HOLD_TRAVEL:
            return t, (x, y, z)
        last = h >= t_end - t
        if last:
            h = t_end - t
        x2 = x + h * (0.2 * k1x)
        y2 = y + h * (0.2 * k1y)
        z2 = z + h * (0.2 * k1z)
        aw, bu = alpha * (x2 * zf - xf * z2), beta * (yf * z2 - y2 * zf)
        k2x, k2y, k2z = -aw * z2, bu * z2, aw * x2 - bu * y2
        x2 = x + h * (3 / 40 * k1x + 9 / 40 * k2x)
        y2 = y + h * (3 / 40 * k1y + 9 / 40 * k2y)
        z2 = z + h * (3 / 40 * k1z + 9 / 40 * k2z)
        aw, bu = alpha * (x2 * zf - xf * z2), beta * (yf * z2 - y2 * zf)
        k3x, k3y, k3z = -aw * z2, bu * z2, aw * x2 - bu * y2
        x2 = x + h * (44 / 45 * k1x - 56 / 15 * k2x + 32 / 9 * k3x)
        y2 = y + h * (44 / 45 * k1y - 56 / 15 * k2y + 32 / 9 * k3y)
        z2 = z + h * (44 / 45 * k1z - 56 / 15 * k2z + 32 / 9 * k3z)
        aw, bu = alpha * (x2 * zf - xf * z2), beta * (yf * z2 - y2 * zf)
        k4x, k4y, k4z = -aw * z2, bu * z2, aw * x2 - bu * y2
        x2 = x + h * (19372 / 6561 * k1x - 25360 / 2187 * k2x + 64448 / 6561 * k3x
                      - 212 / 729 * k4x)
        y2 = y + h * (19372 / 6561 * k1y - 25360 / 2187 * k2y + 64448 / 6561 * k3y
                      - 212 / 729 * k4y)
        z2 = z + h * (19372 / 6561 * k1z - 25360 / 2187 * k2z + 64448 / 6561 * k3z
                      - 212 / 729 * k4z)
        aw, bu = alpha * (x2 * zf - xf * z2), beta * (yf * z2 - y2 * zf)
        k5x, k5y, k5z = -aw * z2, bu * z2, aw * x2 - bu * y2
        x2 = x + h * (9017 / 3168 * k1x - 355 / 33 * k2x + 46732 / 5247 * k3x
                      + 49 / 176 * k4x - 5103 / 18656 * k5x)
        y2 = y + h * (9017 / 3168 * k1y - 355 / 33 * k2y + 46732 / 5247 * k3y
                      + 49 / 176 * k4y - 5103 / 18656 * k5y)
        z2 = z + h * (9017 / 3168 * k1z - 355 / 33 * k2z + 46732 / 5247 * k3z
                      + 49 / 176 * k4z - 5103 / 18656 * k5z)
        aw, bu = alpha * (x2 * zf - xf * z2), beta * (yf * z2 - y2 * zf)
        k6x, k6y, k6z = -aw * z2, bu * z2, aw * x2 - bu * y2
        x2 = x + h * (35 / 384 * k1x + 500 / 1113 * k3x + 125 / 192 * k4x
                      - 2187 / 6784 * k5x + 11 / 84 * k6x)
        y2 = y + h * (35 / 384 * k1y + 500 / 1113 * k3y + 125 / 192 * k4y
                      - 2187 / 6784 * k5y + 11 / 84 * k6y)
        z2 = z + h * (35 / 384 * k1z + 500 / 1113 * k3z + 125 / 192 * k4z
                      - 2187 / 6784 * k5z + 11 / 84 * k6z)
        n = math.hypot(x2, y2, z2)
        x2, y2, z2 = x2 / n, y2 / n, z2 / n
        w2, u2 = x2 * zf - xf * z2, yf * z2 - y2 * zf
        aw, bu = alpha * w2, beta * u2
        k7x, k7y, k7z = -aw * z2, bu * z2, aw * x2 - bu * y2
        ex = h * (71 / 57600 * k1x - 71 / 16695 * k3x + 71 / 1920 * k4x - 17253 / 339200 * k5x
                  + 22 / 525 * k6x - 1 / 40 * k7x)
        ey = h * (71 / 57600 * k1y - 71 / 16695 * k3y + 71 / 1920 * k4y - 17253 / 339200 * k5y
                  + 22 / 525 * k6y - 1 / 40 * k7y)
        ez = h * (71 / 57600 * k1z - 71 / 16695 * k3z + 71 / 1920 * k4z - 17253 / 339200 * k5z
                  + 22 / 525 * k6z - 1 / 40 * k7z)
        q = math.hypot(ex, ey, ez) / (LOOP_TOL * max(e, LOOP_TOL_FLOOR))
        if zf * z + xf * x < 0.0:  # w grows
            q = max(q, abs(zf * ex - xf * ez) / (LOOP_TOL * max(abs(w2), SIGNAL_FLOOR)))
        if zf * z + yf * y < 0.0:  # u grows
            q = max(q, abs(yf * ez - zf * ey) / (LOOP_TOL * max(abs(u2), SIGNAL_FLOOR)))
        if not q <= 1.0:  # a nan q is rejected too
            h *= max(0.2, 0.9 * q ** -0.2)
            grow = 1.0  # no growth right after a rejection
            continue
        t_new = t_end if last else t + h
        if t_new >= t_next:
            dx, dy, dz = x2 - x, y2 - y, z2 - z
            bx, by, bz = h * k1x - dx, h * k1y - dy, h * k1z - dz
            put([t, h, x, y, z, dx, dy, dz, bx, by, bz,
                 dx - h * k7x - bx, dy - h * k7y - by, dz - h * k7z - bz,
                 h * (-12715105075 / 11282082432 * k1x + 87487479700 / 32700410799 * k3x
                      - 10690763975 / 1880347072 * k4x + 701980252875 / 199316789632 * k5x
                      - 1453857185 / 822651844 * k6x + 69997945 / 29380423 * k7x),
                 h * (-12715105075 / 11282082432 * k1y + 87487479700 / 32700410799 * k3y
                      - 10690763975 / 1880347072 * k4y + 701980252875 / 199316789632 * k5y
                      - 1453857185 / 822651844 * k6y + 69997945 / 29380423 * k7y),
                 h * (-12715105075 / 11282082432 * k1z + 87487479700 / 32700410799 * k3z
                      - 10690763975 / 1880347072 * k4z + 701980252875 / 199316789632 * k5z
                      - 1453857185 / 822651844 * k6z + 69997945 / 29380423 * k7z)])
            k = int(t_new / dt)  # the next sample index, the quotient's rounding undone
            while dt * k <= t_new:
                k += 1
            while dt * (k - 1) > t_new:
                k -= 1
            t_next = dt * k
        t, x, y, z, w, u = t_new, x2, y2, z2, w2, u2
        k1x, k1y, k1z = k7x, k7y, k7z
        e = math.hypot(x - xf, y - yf, z - zf)
        h *= min(grow, 0.9 * q ** -0.2) if q else grow
        grow = 10.0
    raise IntegrationError(f"the adaptive closed loop took {LOOP_STEP_BUDGET} steps and reached "
                           f"t = {t:.3e} s of {t_end:.3e} s; it is stiff for rf near the equator "
                           f"(here zf = {zf:.3g}): it converges at a rate near zf**2 * "
                           "min(alpha, beta) while its step stays near 3.3 / max(alpha, beta)")


def _dense_samples(dense, times):
    """States at ``times`` from the continuous extensions ``_adaptive_loop`` recorded, each
    projected onto the sphere; every time lies in a recorded step."""
    steps = np.frombuffer(dense).reshape(-1, 17)
    k = np.searchsorted(steps[:, 0], times) - 1  # the last step that starts before each time
    t0, h, c = steps[k, 0], steps[k, 1], steps[k, 2:].reshape(-1, 5, 3)
    s = ((times - t0) / h)[:, None]
    r = c[:, 0] + s * (c[:, 1] + (1.0 - s) * (c[:, 2] + s * (c[:, 3] + (1.0 - s) * c[:, 4])))
    return r / np.sqrt(np.vecdot(r, r))[:, None]


#: norm band of a Bloch state; above it a state leaves BlochTrajectory's unit ball
NORM_FLOOR = 1 - 1e-4
NORM_CEILING = 1 + 1e-9


def _check_norm_band(flat):
    """Raise IntegrationError at the first row after row 0 out of band: a vectorised pass flags
    rows outside the band shrunk by 1e-12 (NaN too); math.hypot decides them in row order."""
    bloch = np.frombuffer(flat).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(bloch[1:], bloch[1:]))
    inside = (norms >= NORM_FLOOR + 1e-12) & (norms <= NORM_CEILING - 1e-12)
    for k in np.flatnonzero(~inside).tolist():
        norm = math.hypot(*bloch[k + 1].tolist())
        if not NORM_FLOOR <= norm <= NORM_CEILING:
            raise IntegrationError(f"Bloch norm drifted by {norm - 1.0:.3e} at sample {k + 1}; "
                                   "use integrator='substepped' or shrink dt")


def simulate_closed_loop(r0, rf, g: Gains, p: BilinearParams, grid: TimeGrid,
                         integrator: str = "fixed_rk4") -> LyapunovRun:
    """Run the Lyapunov feedback loop from r0 toward rf over the sampling grid.

    ``integrator`` is "fixed_rk4" (one RK4 step per sample; reproducible
    bit-for-bit) or "substepped" (adaptive steps independent of the grid,
    needed when 1/gain is far below the sample interval; see
    _adaptive_loop). A fixed-step run steps to its grid's end and raises
    IntegrationError when the Bloch norm leaves [NORM_FLOOR, NORM_CEILING],
    naming the first such sample. A substepped run's rows lie on the sphere;
    every row after the state is held repeats one row bit for bit.
    """
    r0 = np.asarray(r0, dtype=float)
    rf = np.asarray(rf, dtype=float)
    for name, r in (("r0", r0), ("rf", rf)):
        if abs(np.linalg.norm(r) - 1.0) > 1e-6:
            raise DomainError(f"{name} must be a unit Bloch vector")
    if integrator not in ("fixed_rk4", "substepped"):
        raise DomainError(f"unknown integrator {integrator!r}")

    n, r, times = grid.steps + 1, tuple(r0.tolist()), grid.times
    if integrator == "fixed_rk4":
        flat = array("d", r)  # rows packed as doubles; no per-row tuple is kept
        _closed_loop_steps(tuple(rf.tolist()), g, p)(r, grid.dt, n - 1, flat)
        _check_norm_band(flat)
        bloch = np.frombuffer(flat).reshape(-1, 3)
    else:
        dense = array("d")
        t_hold, held = _adaptive_loop(r, tuple(rf.tolist()), g, grid.dt, grid.steps, dense)
        moving = int(np.searchsorted(times, t_hold, side="right"))  # rows read from the steps
        bloch = np.empty((n, 3))
        bloch[0] = r0
        bloch[1:moving] = _dense_samples(dense, times[1:moving])
        bloch[moving:] = held

    V, I = feedback_controls(bloch, rf, g, p)
    gamma = lyapunov_value(bloch, rf)
    final_error = float(np.linalg.norm(bloch[-1] - rf))
    monotone = bool(np.all(np.diff(gamma) <= 1e-9))
    return LyapunovRun(BlochTrajectory(grid.times, bloch), V, I, gamma,
                       converged=(final_error < 1e-3 and monotone),
                       final_error=final_error)
