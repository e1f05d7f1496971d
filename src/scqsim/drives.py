"""Microwave drive synthesis for Bloch-sphere state transfers.

A target transfer (r0 -> rf in time t_f) is realized as a pi rotation about
the bisector axis of the two Bloch vectors. Inverting the rotating-frame
control propagator for that rotation yields the drive parameters: carrier
phase lambda, ac amplitude, dc offset and carrier frequency. The same plan
can then be replayed against the exact lab-frame circuit model, which rotates
about a different axis and misses the target.

Inversion identities (Q = sin lambda, I = cos lambda, k the drive coupling
in J per drive unit, (ax, ay, az) from _AXES: (1/8, 1/4, 1/8) for charge,
(1/16, 1/4, -1/4) for phase and flux):

    wq nx =  2 ax k amp Q / hbar
    wq ny = -2 ay k amp I / hbar
    wq nz =  2 az k amp Q / hbar + 2 k dc / hbar
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constants import E_CHARGE, HBAR
from .core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_from_state,
    matrix_exponential,
    rotate_bloch,
)
from .errors import (
    DegenerateBisectorError,
    DomainError,
    InvalidStateError,
    UnreachableAxisError,
)
from .evolution import BlochTrajectory, TimeGrid, _propagate_eigen, propagate_static
from .hamiltonians import (_DRIVE_ZERO_FIELD, DRIVE_SLOTS, HamiltonianOperator, QubitParams,
                           build_exact_two_level)

# (ax, ay, az) per kind: the rotating-frame drive is k amp (ax Q sx - ay I sy + az Q sz),
# all powers of two; the flux drive couples like the phase drive
_AXES = {"charge": (1 / 8, 1 / 4, 1 / 8), "phase": (1 / 16, 1 / 4, -1 / 4)}
_AXES["flux"] = _AXES["phase"]


@dataclass(frozen=True)
class RotationTarget:
    """A state transfer expressed as a single axis-angle rotation."""

    r0: np.ndarray
    rf: np.ndarray
    n_hat: np.ndarray
    alpha: float
    t_f: float
    omega_q: float

    def __post_init__(self):
        if abs(np.linalg.norm(self.n_hat) - 1.0) > 1e-9:
            raise UnreachableAxisError("rotation axis must be a unit vector")
        if not math.isclose(self.omega_q, self.alpha / self.t_f, rel_tol=1e-12):
            raise DomainError("omega_q must equal alpha / t_f")


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
        if self.omega_c < 0:
            raise DomainError("carrier frequency must be non-negative")
        values = [self.lam, self.amplitude, self.dc_offset, self.omega_c, self.k]
        if not all(map(math.isfinite, values)):
            raise DomainError("drive plan has non-finite entries")


def bisector_rotation(r0, rf) -> tuple[np.ndarray, float]:
    """Rotation axis and angle sending r0 to rf: the bisector (r0+rf)/|r0+rf| with angle +pi."""
    r0 = np.asarray(r0, dtype=float)
    rf = np.asarray(rf, dtype=float)
    for name, r in (("r0", r0), ("rf", rf)):
        if abs(np.linalg.norm(r) - 1.0) > 1e-6:
            raise InvalidStateError(f"{name} must be a unit Bloch vector")
    total = r0 + rf
    norm = np.linalg.norm(total)
    if norm < 1e-9:
        raise DegenerateBisectorError(
            "antipodal states leave the bisector undefined; pick an axis explicitly"
        )
    return total / norm, math.pi


def rotation_target(r0, rf, t_f: float) -> RotationTarget:
    """Bundle a transfer r0 -> rf over t_f seconds as a bisector pi rotation."""
    n_hat, alpha = bisector_rotation(r0, rf)
    return RotationTarget(np.asarray(r0, float), np.asarray(rf, float),
                          n_hat, alpha, t_f, alpha / t_f)


def carrier_frequency(kind: str, params: QubitParams) -> float:
    """Resonant carrier |omega_z - omega_x| with omega_z = E_c/hbar, omega_x = E_J/hbar."""
    if kind not in _AXES:
        raise DomainError(f"no microwave drive inversion for kind {kind!r}")
    omega_z = params.E_c / HBAR
    omega_x = params.E_J / HBAR
    if math.isclose(omega_z, omega_x, rel_tol=1e-12):
        raise DomainError("degenerate spectrum: carrier |omega_z - omega_x| vanishes")
    return abs(omega_z - omega_x)


def drive_coupling(kind: str, params: QubitParams) -> float:
    """Coupling k between drive signal and the controlled Pauli channel, J per drive unit."""
    if kind == "charge":
        return -params.C_g * params.E_c / (2 * E_CHARGE)
    _, phi_zpf = params.zpf()
    if kind == "phase":
        return -(HBAR / (2 * E_CHARGE)) * phi_zpf
    if kind == "flux":
        return -params.E_L * phi_zpf
    raise DomainError(f"no microwave drive inversion for kind {kind!r}")


def design_drive(kind: str, n_hat, omega_q: float, params: QubitParams,
                 t_f: Optional[float] = None) -> DrivePlan:
    """Invert the control propagator for a rotation (n_hat, omega_q) into signal parameters.

    charge:      lam = atan(-2 nx / ny), amp = 4 hbar wq nx / (k Q), dc = hbar wq (nz - nx) / (2k)
    phase/flux:  lam = atan(-4 nx / ny), amp = 8 hbar wq nx / (k Q), dc = hbar wq (nz + 4 nx) / (2k)

    The degenerate nx = 0 axis keeps lam = 0 and takes the amplitude from the
    ny identity (zero when ny = 0 too: a dc-only z rotation).
    """
    n = np.asarray(n_hat, dtype=float).ravel()
    if n.size != 3 or abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise UnreachableAxisError("rotation axis must be a unit 3-vector")
    omega_c = carrier_frequency(kind, params)  # rejects kinds without a drive inversion
    k = drive_coupling(kind, params)
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
        try:
            ratio = -tan_ratio * nx / ny
        except OverflowError:
            ratio = math.inf if (nx / ny) < 0 else -math.inf
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


def design_transfer(psi0, psif, t_f: float, params: QubitParams) -> tuple[RotationTarget, DrivePlan]:
    """Plan the full transfer |psi0> -> |psif>: bisector rotation plus drive inversion."""
    target = rotation_target(bloch_from_state(psi0), bloch_from_state(psif), t_f)
    plan = design_drive(params.qubit_kind, target.n_hat, target.omega_q, params, t_f=t_f)
    return target, plan


def reconstruct_rotation(plan: DrivePlan) -> np.ndarray:
    """omega_q * n_hat implied by a plan through the inversion identities (round trip)."""
    ax, ay, az = _AXES[plan.qubit_kind]
    Q = math.sin(plan.lam)
    I = math.cos(plan.lam)
    wx = 2 * ax * plan.k * plan.amplitude * Q / HBAR
    wy = -2 * ay * plan.k * plan.amplitude * I / HBAR
    wz = 2 * az * plan.k * plan.amplitude * Q / HBAR + 2 * plan.k * plan.dc_offset / HBAR
    return np.array([wx, wy, wz])


def rwa_hamiltonian(plan: DrivePlan, delta_omega: float, t: float) -> HamiltonianOperator:
    """Rotating-frame drive Hamiltonian after dropping the fast terms.

    charge:      (k amp / 8)  (sin(p) sx - 2 cos(p) sy + sin(p) sz)
    phase/flux:  (k amp / 16) (sin(p) sx - 4 cos(p) sy - 4 sin(p) sz)

    with p = delta_omega * t + lambda. At resonance (delta_omega = 0) this is
    time independent: the IQ-mixer form with Q = sin(lambda), I = cos(lambda).
    """
    ax, ay, az = _AXES[plan.qubit_kind]
    phase = delta_omega * t + plan.lam
    Q = math.sin(phase)
    I = math.cos(phase)
    matrix = plan.k * plan.amplitude * (ax * Q * SIGMA_X - ay * I * SIGMA_Y + az * Q * SIGMA_Z)
    return HamiltonianOperator(matrix, "approximate")


def effective_rotating_hamiltonian(plan: DrivePlan) -> HamiltonianOperator:
    """Resonant rotating-frame generator including the dc sigma_z term.

    Equals (hbar omega_q / 2) n.sigma for a plan produced by design_drive.
    """
    rwa = rwa_hamiltonian(plan, 0.0, 0.0)
    matrix = rwa.matrix + plan.k * plan.dc_offset * SIGMA_Z
    return HamiltonianOperator(matrix, "approximate")


def control_propagator(plan: DrivePlan, t: float) -> np.ndarray:
    """Rotating-frame control propagator exp(-i t w.sigma / 2), w = reconstruct_rotation(plan).

    charge:      exponent (-i k t / hbar) [ (amp/8) Q sx - (amp/4) I sy + ((amp/8) Q + dc) sz ]
    phase/flux:  exponent (-i k t / hbar) [ (amp/16) Q sx - (amp/4) I sy + (-(amp/4) Q + dc) sz ]
    """
    wx, wy, wz = reconstruct_rotation(plan)
    return matrix_exponential(-0.5j * t * (wx * SIGMA_X + wy * SIGMA_Y + wz * SIGMA_Z))


def bloch_fidelity(r, rf) -> float:
    """Overlap (1 + r . rf) / 2; equals |<psi_f|psi>|^2 for pure states."""
    return float((1.0 + np.dot(r, rf)) / 2.0)


@dataclass
class TransferResult:
    trajectory: BlochTrajectory
    fidelity: float
    r_final: np.ndarray
    r_target: np.ndarray


def _exact_lab_trajectory(plan: DrivePlan, psi0, grid: TimeGrid,
                          params: QubitParams) -> BlochTrajectory:
    """Exact two-level circuit driven by the plan's signal in the kind's drive slot.

    Zeroing the slot's static drive leaves H(t) = S + signal(t) A, A = dH/d(slot).
    A traceless 2x2 S commutes with A only as S = c A (c = 0 for charge, phase
    and flux); then H(t) and H(t') commute for all t, t', the first Magnus term
    is exact, and U(t) = exp(-i A (F(t) + c (t - t0)) / hbar) with F the
    closed-form integral of amp sin(omega_c t + lambda) + dc from t0.
    """
    slot = DRIVE_SLOTS[plan.qubit_kind]
    H = build_exact_two_level(replace(params, **{_DRIVE_ZERO_FIELD[slot]: 0.0}))
    if slot not in H.drive_dependence:
        raise DomainError(f"{params.qubit_kind} qubit has no drive slot {slot!r}")
    drive = H.drive_dependence[slot]
    static = H.traceless()
    c = np.vdot(drive, static).real / max(np.vdot(drive, drive).real, np.finfo(float).tiny)
    if np.abs(static - c * drive).max() > 1e-12 * np.abs(static).max():
        raise DomainError(f"static part of the exact model does not commute with slot {slot!r}")
    tau = grid.times - grid.t0
    half = 0.5 * plan.omega_c * tau
    # (cos(a) - cos(a + wc tau)) / wc = tau sin(a + wc tau / 2) sinc(wc tau / 2), finite at wc = 0
    integral = (plan.amplitude * tau * np.sin(plan.omega_c * grid.t0 + plan.lam + half)
                * np.sinc(half / np.pi) + (plan.dc_offset + c) * tau)
    return _propagate_eigen(drive, psi0, grid.times, integral)


def closed_loop_experiment(plan: DrivePlan, psi0, model: str, grid: TimeGrid,
                           params: QubitParams, r_target=None) -> TransferResult:
    """Apply a designed plan to a chosen system model and score the transfer.

    ``model`` is "approximate_rotating" (the constant resonant rotating-frame
    generator the plan was designed for) or "exact_lab" (the exact two-level
    circuit driven by the physical signal in the kind's drive slot), both with
    exact propagators. The target defaults to the plan's rotation of psi0.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if r_target is None:
        alpha = plan.omega_q * (plan.t_f if plan.t_f is not None else grid.dt * grid.steps)
        r_target = rotate_bloch(plan.n_hat, alpha, bloch_from_state(psi0))
    if model == "approximate_rotating":
        traj = propagate_static(effective_rotating_hamiltonian(plan), psi0, grid)
    elif model == "exact_lab":
        traj = _exact_lab_trajectory(plan, psi0, grid, params)
    else:
        raise DomainError(f"unknown experiment model {model!r}")
    r_final = traj.final_bloch
    return TransferResult(traj, bloch_fidelity(r_final, r_target), r_final,
                          np.asarray(r_target, float))


# ---------------------------------------------------------------------------
# serialization

_PLAN_FIELDS = ("kind", "lambda_rad", "amplitude", "dc_offset", "omega_c_rad_s",
                "t_f_s", "n_hat", "omega_q_rad_s")


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


def plan_from_dict(data: dict, params: QubitParams) -> DrivePlan:
    missing = [f for f in _PLAN_FIELDS if f not in data]
    if missing:
        raise DomainError(f"drive plan JSON lacks fields {missing}")
    return DrivePlan(
        qubit_kind=data["kind"],
        lam=float(data["lambda_rad"]),
        amplitude=float(data["amplitude"]),
        dc_offset=float(data["dc_offset"]),
        omega_c=float(data["omega_c_rad_s"]),
        k=drive_coupling(data["kind"], params),
        n_hat=np.asarray(data["n_hat"], dtype=float),
        omega_q=float(data["omega_q_rad_s"]),
        t_f=float(data["t_f_s"]),
    )

