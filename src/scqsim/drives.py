"""Microwave drive synthesis for Bloch-sphere state transfers.

A target transfer (r0 -> rf in time t_f) is realized as a pi rotation about
the bisector axis of the two Bloch vectors. Inverting the rotating-frame
control propagator for that rotation yields the drive parameters: carrier
phase lambda, ac amplitude, dc offset and carrier frequency. The same plan
can then be replayed against the exact lab-frame circuit model, which rotates
about a different axis and misses the target.

Inversion identities (Q = sin lambda, I = cos lambda, k the approximate
model's hamiltonians.drive_coupling in J per drive unit, (ax, ay, az) from
_AXES: (1/8, 1/4, 1/8) for charge, (1/16, 1/4, -1/4) for phase and flux):

    wq nx =  2 ax k amp Q / hbar
    wq ny = -2 ay k amp I / hbar
    wq nz =  2 az k amp Q / hbar + 2 k dc / hbar
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import HBAR
from .core import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_from_state
from .errors import DegenerateBisectorError, DomainError, UnreachableAxisError
from .evolution import BlochTrajectory, TimeGrid, _propagate_eigen, propagate_static
from .hamiltonians import QubitParams, drive_coupling, exact_drive_operator

# (ax, ay, az) per kind: the rotating-frame drive is k amp (ax Q sx - ay I sy + az Q sz),
# all powers of two; the flux drive couples like the phase drive
_AXES = {"charge": (1 / 8, 1 / 4, 1 / 8), "phase": (1 / 16, 1 / 4, -1 / 4)}
_AXES["flux"] = _AXES["phase"]


@dataclass(frozen=True)
class DrivePlan:
    """Synthesized control-signal parameters for one qubit kind.

    ``amplitude`` and ``dc_offset`` are volts (charge), amperes (phase) or
    radians of external flux (flux). The carrier has no pulse envelope.
    """

    qubit_kind: str
    lam: float              # carrier phase, rad
    amplitude: float
    dc_offset: float
    omega_c: float          # carrier frequency, rad/s
    k: float                # drive coupling, J per drive unit
    n_hat: np.ndarray
    omega_q: float
    t_f: Optional[float] = None

    def __post_init__(self):
        values = [self.lam, self.amplitude, self.dc_offset, self.omega_c, self.k]
        if not all(map(math.isfinite, values)):
            raise DomainError("drive plan has non-finite entries")


def bisector_axis(r0, rf) -> np.ndarray:
    """Axis of the pi rotation sending the unit vector r0 to the unit vector rf: the
    bisector (r0+rf)/|r0+rf|."""
    total = np.asarray(r0, dtype=float) + np.asarray(rf, dtype=float)
    norm = np.linalg.norm(total)
    if norm < 1e-9:
        raise DegenerateBisectorError(
            "antipodal states leave the bisector undefined; pick an axis explicitly"
        )
    return total / norm


def carrier_frequency(params: QubitParams) -> float:
    """Resonant carrier |omega_z - omega_x| with omega_z = E_c/hbar, omega_x = E_J/hbar."""
    omega_z = params.E_c / HBAR
    omega_x = params.E_J / HBAR
    if math.isclose(omega_z, omega_x, rel_tol=1e-12):
        raise DomainError("degenerate spectrum: carrier |omega_z - omega_x| vanishes")
    return abs(omega_z - omega_x)


def design_drive(kind: str, n_hat, omega_q: float, params: QubitParams,
                 t_f: Optional[float] = None) -> DrivePlan:
    """Invert the control propagator for a rotation (unit n_hat, omega_q) into signal parameters.

    charge:      lam = atan(-2 nx / ny), amp = 4 hbar wq nx / (k Q), dc = hbar wq (nz - nx) / (2k)
    phase/flux:  lam = atan(-4 nx / ny), amp = 8 hbar wq nx / (k Q), dc = hbar wq (nz + 4 nx) / (2k)

    The degenerate nx = 0 axis keeps lam = 0 and takes the amplitude from the
    ny identity (zero when ny = 0 too: a dc-only z rotation).
    """
    n = np.asarray(n_hat, dtype=float).ravel()
    omega_c = carrier_frequency(params)
    k = drive_coupling(kind, params)  # rejects kinds without a drive inversion
    if k == 0.0:
        raise DomainError(f"the {kind} qubit's drive coupling is zero: no signal can rotate it")
    ax, ay, az = _AXES[kind]
    tan_ratio = ay / ax        # of lambda
    amp_factor = 1 / (2 * ax)
    nz_slope = -az / ax        # of the dc equation
    nx, ny, nz = (float(v) for v in n)  # plain floats: overflow -> inf, no warning
    if nx == 0.0:
        lam = 0.0
        amplitude = -2 * HBAR * omega_q * ny / k  # ny identity at I = 1
    elif ny == 0.0:
        raise UnreachableAxisError(
            "nx != 0 with ny = 0 puts the carrier phase on the sin-lambda pole"
        )
    else:
        ratio = -tan_ratio * nx / ny  # float overflow gives +-inf, atan maps it to -+pi/2
        lam = math.atan(ratio)
        # amplitude = amp_factor * hbar wq nx / (k sin(lam)), written through
        # nx / sin(atan(ratio)) so neither factor under- or overflows
        if abs(ratio) <= 1.0:
            nx_over_q = -ny * math.sqrt(1.0 + ratio * ratio) / tan_ratio
        else:
            nx_over_q = nx * math.sqrt(1.0 + ratio**-2) * math.copysign(1.0, ratio)
        amplitude = amp_factor * HBAR * omega_q * nx_over_q / k
    dc = HBAR * omega_q * (nz + nz_slope * nx) / (2 * k)
    return DrivePlan(kind, lam, amplitude, dc, omega_c, k,
                     n_hat=n.copy(), omega_q=omega_q, t_f=t_f)


def design_transfer(psi0, psif, t_f: float,
                    params: QubitParams) -> tuple[np.ndarray, np.ndarray, DrivePlan]:
    """(r0, rf, plan) of the transfer |psi0> -> |psif> in t_f: the Bloch vectors and the
    drive inversion of the pi rotation about their bisector at omega_q = pi / t_f."""
    r0, rf = bloch_from_state(psi0), bloch_from_state(psif)
    plan = design_drive(params.qubit_kind, bisector_axis(r0, rf), math.pi / t_f, params,
                        t_f=t_f)
    return r0, rf, plan


def effective_rotating_hamiltonian(plan: DrivePlan) -> np.ndarray:
    """Resonant rotating-frame generator: the drive after dropping the fast terms,

    charge:      (k amp / 8)  (Q sx - 2 I sy + Q sz)
    phase/flux:  (k amp / 16) (Q sx - 4 I sy - 4 Q sz)

    with Q = sin(lambda), I = cos(lambda) (the IQ-mixer form), plus the dc term
    k dc sz. Equals (hbar omega_q / 2) n.sigma for a plan produced by design_drive.
    """
    ax, ay, az = _AXES[plan.qubit_kind]
    Q = math.sin(plan.lam)
    I = math.cos(plan.lam)
    # scale times ax first, then the ratios (2, 1 or 4, -4): powers of two, so the
    # order changes no bits but where a product is subnormal, and there it matches
    # the per-kind forms above
    rwa = (plan.k * plan.amplitude * ax) * (Q * SIGMA_X - ay / ax * I * SIGMA_Y
                                            + az / ax * Q * SIGMA_Z)
    return rwa + plan.k * plan.dc_offset * SIGMA_Z


def bloch_fidelity(r, rf) -> float:
    """Overlap (1 + r . rf) / 2; equals |<psi_f|psi>|^2 for pure states."""
    return float((1.0 + np.dot(r, rf)) / 2.0)


@dataclass
class TransferResult:
    trajectory: BlochTrajectory
    fidelity: float
    r_final: np.ndarray


def _exact_lab_trajectory(plan: DrivePlan, psi0, grid: TimeGrid,
                          params: QubitParams) -> BlochTrajectory:
    """Exact two-level circuit of the plan's kind driven by the plan's signal.

    The circuit's traceless part is zero without the drive, so H(t) = signal(t) A
    with the constant A = hamiltonians.exact_drive_operator(params). H(t) and
    H(t') commute for all t, t', the first Magnus term is exact, and
    U(t) = exp(-i A F(t) / hbar) with F the closed-form integral of
    amp sin(omega_c t + lambda) + dc from 0.
    """
    if params.qubit_kind != plan.qubit_kind:
        raise DomainError(f"a {plan.qubit_kind} plan cannot drive a {params.qubit_kind} circuit")
    tau = grid.times
    half = 0.5 * plan.omega_c * tau
    # (cos(a) - cos(a + wc tau)) / wc = tau sin(a + wc tau / 2) sinc(wc tau / 2), finite at wc = 0
    integral = (plan.amplitude * tau * np.sin(plan.lam + half) * np.sinc(half / np.pi)
                + plan.dc_offset * tau)
    return _propagate_eigen(exact_drive_operator(params), psi0, tau, integral)


def closed_loop_experiment(plan: DrivePlan, psi0, model: str, grid: TimeGrid,
                           params: QubitParams, r_target) -> TransferResult:
    """Apply a designed plan to a chosen system model and score the transfer.

    ``model`` is "approximate_rotating" (the constant resonant rotating-frame
    generator the plan was designed for) or "exact_lab" (the exact two-level
    circuit driven by the physical signal of the plan's kind), both with
    exact propagators. The fidelity is scored against the Bloch vector ``r_target``.
    """
    if model == "approximate_rotating":
        traj = propagate_static(effective_rotating_hamiltonian(plan), psi0, grid)
    else:
        traj = _exact_lab_trajectory(plan, psi0, grid, params)
    r_final = traj.final_bloch
    return TransferResult(traj, bloch_fidelity(r_final, r_target), r_final)


# ---------------------------------------------------------------------------
# serialization


def plan_to_dict(plan: DrivePlan) -> dict:
    """Flat JSON form of a plan; field names are part of the file contract."""
    if plan.t_f is None:
        raise DomainError("plan needs t_f before serialization")
    return {
        "kind": plan.qubit_kind,
        "lambda_rad": plan.lam,
        "amplitude": plan.amplitude,
        "dc_offset": plan.dc_offset,
        "omega_c_rad_s": plan.omega_c,
        "t_f_s": plan.t_f,
        "n_hat": [float(c) for c in plan.n_hat],
        "omega_q_rad_s": plan.omega_q,
    }
