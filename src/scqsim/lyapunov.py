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

Both integrators step through one plain-float RK4 kernel that loops inside
itself: one call covers a whole run, fixed-step or substepped, its step
doubling and freeze test included.
"""

import math
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .constants import E_CHARGE, HBAR
from .errors import DomainError, IntegrationError
from .evolution import BlochTrajectory, TimeGrid
from .hamiltonians import QubitParams

#: per-sample bound on unit-norm drift for the substepped integrator
SUBSTEP_DRIFT_TOL = 1e-8


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
    """Counted RK4 kernel ``steps(r, h, count, rows=None, dt=None) -> r`` of the closed loop.

    Plain floats throughout, each stage written out once; the velocity keeps
    the physical route c_V * ((alpha/c_V) * w), so the trajectory matches, bit
    for bit, RK4 on the bilinear equations driven by feedback_controls at
    every stage (tests/oracles.py holds that reference). With ``rows`` (an
    ``array('d')``) each sample's state is appended, unchecked, by one bound
    ``fromlist`` call; simulate_closed_loop checks the norm band afterwards.

    Without ``dt`` a call takes ``count`` RK4 steps of h, one per sample. With
    ``dt`` it integrates ``count`` samples of dt by step doubling from a trial
    step h: one step of h and two of h/2 from the same state and first stage.
    h halves until they agree within SUBSTEP_DRIFT_TOL * h/dt, which caps the
    per-sample norm drift, and doubles after a trial well inside it; it never
    exceeds the RK4 stability bound 2.5/max(alpha, beta). Once the feedback
    speed cannot move the state by FREEZE_DISPLACEMENT over the rest of a
    sample the state is held (the flow only contracts toward w = u = 0); held
    from a sample's start, it is held for good and the call returns early.
    """
    c_V, c_I = p.c_V, p.c_I
    k_V, k_I = g.alpha / c_V, g.beta / c_I
    alpha, beta = g.alpha, g.beta
    cap = 2.5 / max(alpha, beta)
    xf, yf, zf = rf

    def speed(x, y, z):  # bound on |dr/dt| under the feedback law (unit sphere)
        return 2.0 * (alpha * abs(x * zf - xf * z) + beta * abs(yf * z - y * zf))

    def steps(r, h, count, rows=None, dt=None):
        x, y, z = r
        doubling = dt is not None
        put = None if rows is None else rows.fromlist
        if doubling:
            if not count or speed(x, y, z) * dt < FREEZE_DISPLACEMENT:
                return r  # held from the first sample's start
            h = min(h, dt, cap)
            h_floor, remaining, bx, by, bz = dt * 2.0 ** -48, dt, x, y, z
        a, d, s = 0.5 * h, h, h / 6.0
        fresh = coarse = True
        for _ in repeat(None) if doubling else repeat(None, count):
            if fresh:
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
            x2, y2, z2 = x + d * k3x, y + d * k3y, z + d * k3z
            gv = c_V * (k_V * (x2 * zf - xf * z2))
            gi = c_I * (k_I * (yf * z2 - y2 * zf))
            k4x, k4y, k4z = -gv * z2, gi * z2, gv * x2 - gi * y2
            x = x + s * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + s * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            z = z + s * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            if doubling:
                if coarse:  # the first half step starts from the same state and stage
                    cx, cy, cz, x, y, z = x, y, z, bx, by, bz
                    b1x, b1y, b1z = k1x, k1y, k1z
                    d = 0.5 * h
                    a, s = 0.5 * d, d / 6.0
                    coarse = fresh = False
                    continue
                if not fresh:  # the second half step starts where the first ended
                    fresh = True
                    continue
                err = math.hypot(x - cx, y - cy, z - cz)
                allowance = SUBSTEP_DRIFT_TOL * (h / dt)
                coarse = True
                if not err <= allowance:  # a nan err is rejected too
                    if h <= h_floor:
                        raise IntegrationError("substepped integrator hit the minimum step without"
                                               f" meeting the local tolerance (err = {err:.3e})")
                    h *= 0.5
                    a, d, s = 0.5 * h, h, h / 6.0
                    x, y, z, k1x, k1y, k1z = bx, by, bz, b1x, b1y, b1z
                    fresh = False
                    continue
                remaining -= h
                if err < allowance / 64.0:
                    h = min(h * 2.0, dt, cap)
                bx, by, bz, moving = x, y, z, speed(x, y, z)
                if remaining > 0.0 and not moving * remaining < FREEZE_DISPLACEMENT:
                    h = min(h, remaining)
                    a, d, s = 0.5 * h, h, h / 6.0
                    continue
            if put is not None:  # the state ends a sample
                put([x, y, z])
            if doubling:  # the next sample starts here, unless the state is held for good
                count -= 1
                if not count or moving * dt < FREEZE_DISPLACEMENT:
                    break
                remaining = dt
                a, d, s = 0.5 * h, h, h / 6.0
        return x, y, z

    return steps


#: displacement below which the rest of a sample interval is not resolvable
FREEZE_DISPLACEMENT = 1e-18

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
    bit-for-bit) or "substepped" (adaptive internal halving, needed when
    1/gain is far below the sample interval). Raises IntegrationError when
    the Bloch norm leaves [NORM_FLOOR, NORM_CEILING], naming the first such
    sample; a fixed-step run steps to its grid's end first. A substepped run
    frozen at a sample's start (see _closed_loop_steps) holds its state for
    every later sample, so the remaining rows are copied without stepping.
    """
    r0 = np.asarray(r0, dtype=float)
    rf = np.asarray(rf, dtype=float)
    for name, r in (("r0", r0), ("rf", rf)):
        if abs(np.linalg.norm(r) - 1.0) > 1e-6:
            raise DomainError(f"{name} must be a unit Bloch vector")
    if integrator not in ("fixed_rk4", "substepped"):
        raise DomainError(f"unknown integrator {integrator!r}")

    n, dt, r = grid.steps + 1, grid.dt, tuple(r0.tolist())
    steps = _closed_loop_steps(tuple(rf.tolist()), g, p)
    flat = array("d", r)  # rows packed as doubles; no per-row tuple is kept
    try:
        steps(r, dt, n - 1, flat, None if integrator == "fixed_rk4" else dt)
    except IntegrationError:  # the minimum step, unless a row left the band first
        _check_norm_band(flat)
        raise
    _check_norm_band(flat)
    bloch = np.frombuffer(flat).reshape(-1, 3)
    if len(bloch) < n:  # the frozen tail repeats the last row
        bloch = np.concatenate((bloch, np.broadcast_to(bloch[-1], (n - len(bloch), 3))))

    V, I = feedback_controls(bloch, rf, g, p)
    gamma = lyapunov_value(bloch, rf)
    final_error = float(np.linalg.norm(bloch[-1] - rf))
    monotone = bool(np.all(np.diff(gamma) <= 1e-9))
    return LyapunovRun(BlochTrajectory(grid.times, bloch), V, I, gamma,
                       converged=(final_error < 1e-3 and monotone),
                       final_error=final_error)
