"""Time evolution of states and density matrices; Bloch trajectory assembly.

Static Hamiltonians propagate through an eigendecomposition (exact up to
roundoff), and so does any generator A f(t) with constant A, given the
integral of f (the drive replays). Generic time-dependent Hamiltonians use
fixed-step classical RK4; the step may be subdivided (``substeps``) without
changing the output sampling. Nothing is renormalized: norm drift is checked
on every path and is logged, not hidden.
"""

import logging
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from .constants import HBAR
from .core import check_density
from .errors import (
    DimensionMismatchError,
    DomainError,
    IntegrationError,
    MissingDataError,
)
from .hamiltonians import HamiltonianOperator

logger = logging.getLogger(__name__)

#: abort threshold for norm / trace drift of a run
DRIFT_ABORT = 1e-4
#: drift level above which a run is logged as degraded
DRIFT_WARN = 1e-8

_logged_once: set = set()


def _log_once(key: str, message: str):
    if key not in _logged_once:
        _logged_once.add(key)
        logger.info(message)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: samples at t0 + k dt for k = 0 .. steps."""

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if not (self.dt > 0):
            raise DomainError("dt must be positive")
        if self.steps < 1:
            raise DomainError("need at least one step")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)


@dataclass
class BlochTrajectory:
    """Time-stamped Bloch vectors plus optional state / density history.

    For states with more than two levels the Bloch vector is the qubit
    subspace {|0>, |1>} projection, renormalized; ``leakage`` is the
    population outside that subspace.
    """

    times: np.ndarray
    bloch: np.ndarray
    states: Optional[np.ndarray] = None
    densities: Optional[np.ndarray] = None
    expectations: Dict[str, np.ndarray] = field(default_factory=dict)
    leakage: Optional[np.ndarray] = None
    norms: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.times)
        if self.bloch.shape != (n, 3):
            raise DimensionMismatchError("bloch series length does not match times")
        if np.linalg.norm(self.bloch, axis=1).max() > 1 + 1e-9:
            raise DomainError("Bloch vectors must stay inside the unit ball")

    @property
    def final_bloch(self) -> np.ndarray:
        return self.bloch[-1]


def _as_matrix(H: Union[HamiltonianOperator, np.ndarray]) -> np.ndarray:
    """Propagation matrix with any identity offset removed."""
    if isinstance(H, HamiltonianOperator):
        if H.identity_offset != 0.0:
            _log_once("identity-offset",
                      "dropping Hamiltonian identity offsets during propagation "
                      "(global phase only)")
        return H.traceless()
    return np.asarray(H, dtype=complex)


def _qubit_readout(states: np.ndarray):
    """(bloch, expectations, leakage, norms) from a (n_samples, dim) state array."""
    norms = np.linalg.norm(states, axis=1)
    norm_sq = norms**2
    a = states[:, 0]
    b = states[:, 1]
    w = np.conj(a) * b
    sx = 2 * w.real / norm_sq
    sy = 2 * w.imag / norm_sq
    sz = (np.abs(a) ** 2 - np.abs(b) ** 2) / norm_sq
    captured = (np.abs(a) ** 2 + np.abs(b) ** 2) / norm_sq
    bloch = np.column_stack([sx, sy, sz]) / captured[:, None]
    expectations = {"sx": sx, "sy": sy, "sz": sz}
    leakage = 1.0 - captured if states.shape[1] > 2 else None
    return bloch, expectations, leakage, norms


def _density_readout(densities: np.ndarray):
    traces = np.einsum("kii->k", densities).real
    a00 = densities[:, 0, 0].real
    a11 = densities[:, 1, 1].real
    a01 = densities[:, 0, 1]
    sx = 2 * a01.real / traces
    sy = -2 * a01.imag / traces  # rho[0,1] = (x - i y)/2
    sz = (a00 - a11) / traces
    captured = (a00 + a11) / traces
    bloch = np.column_stack([sx, sy, sz]) / captured[:, None]
    expectations = {"sx": sx, "sy": sy, "sz": sz}
    leakage = 1.0 - captured if densities.shape[1] > 2 else None
    return bloch, expectations, leakage, traces


def _check_drift(drift: float, what: str):
    if drift > DRIFT_ABORT:
        raise IntegrationError(
            f"{what} drifted by {drift:.3e} (> {DRIFT_ABORT}); "
            "reduce dt or raise substeps"
        )
    if drift > DRIFT_WARN:
        logger.warning("%s drift %.3e exceeds %.0e", what, drift, DRIFT_WARN)


def _propagate_eigen(matrix: np.ndarray, psi0, times: np.ndarray,
                     elapsed: np.ndarray) -> BlochTrajectory:
    """States exp(-i matrix elapsed_k / hbar) psi0; ``elapsed`` is the accumulated
    time per sample (t - t0 for a static generator, the integral of f for matrix * f(t))."""
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if matrix.shape[0] != psi0.size:
        raise DimensionMismatchError(
            f"Hamiltonian dim {matrix.shape[0]} does not match state dim {psi0.size}"
        )
    w, v = np.linalg.eigh(matrix)
    coeff = v.conj().T @ psi0
    phases = np.exp(-1j * np.outer(elapsed, w) / HBAR)
    states = (phases * coeff) @ v.T
    bloch, expectations, leakage, norms = _qubit_readout(states)
    _check_drift(float(np.abs(norms - np.linalg.norm(psi0)).max()), "state norm")
    return BlochTrajectory(times, bloch, states=states,
                           expectations=expectations, leakage=leakage, norms=norms)


def propagate_static(H: Union[HamiltonianOperator, np.ndarray], psi0,
                     grid: TimeGrid) -> BlochTrajectory:
    """Evolve |psi(t)> = exp(-i H t / hbar) |psi0> on the sampling grid."""
    return _propagate_eigen(_as_matrix(H), psi0, grid.times, grid.times - grid.t0)


def evolve_time_dependent(h_of_t, psi0, grid: TimeGrid,
                          substeps: int = 1) -> BlochTrajectory:
    """Integrate i hbar dpsi/dt = H(t) psi with fixed-step RK4.

    ``h_of_t`` may be a callable t -> matrix, a HamiltonianOperator or a bare
    matrix (treated as constant). Raises IntegrationError when the norm
    drifts by more than ``DRIFT_ABORT``.
    """
    if not callable(h_of_t):
        constant = _as_matrix(h_of_t)
        h_of_t = lambda t: constant  # noqa: E731
    psi = np.asarray(psi0, dtype=complex).ravel()
    if substeps < 1:
        raise DomainError("substeps must be >= 1")
    h = grid.dt / substeps
    states = np.empty((grid.steps + 1, psi.size), dtype=complex)
    states[0] = psi
    pref = -1j / HBAR
    for k in range(grid.steps):
        base = grid.t0 + k * grid.dt
        for j in range(substeps):
            t = base + j * h
            mid = h_of_t(t + 0.5 * h)
            k1 = pref * (h_of_t(t) @ psi)
            k2 = pref * (mid @ (psi + 0.5 * h * k1))
            k3 = pref * (mid @ (psi + 0.5 * h * k2))
            k4 = pref * (h_of_t(t + h) @ (psi + h * k3))
            psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states[k + 1] = psi
    norms = np.linalg.norm(states, axis=1)
    _check_drift(float(np.abs(norms - 1.0).max()), "state norm")
    bloch, expectations, leakage, _ = _qubit_readout(states)
    return BlochTrajectory(grid.times, bloch, states=states,
                           expectations=expectations, leakage=leakage, norms=norms)


def evolve_master(rho0, H: Union[HamiltonianOperator, np.ndarray], grid: TimeGrid,
                  substeps: int = 1) -> BlochTrajectory:
    """Integrate the closed-system master equation drho/dt = (i/hbar)[rho, H]."""
    matrix = _as_matrix(H)
    rho = check_density(rho0, tol=1e-9)
    if rho.shape != matrix.shape:
        raise DimensionMismatchError("rho and H must have equal shapes")
    if substeps < 1:
        raise DomainError("substeps must be >= 1")
    h = grid.dt / substeps
    pref = 1j / HBAR

    def rhs(r):
        return pref * (r @ matrix - matrix @ r)

    densities = np.empty((grid.steps + 1,) + rho.shape, dtype=complex)
    densities[0] = rho
    for k in range(grid.steps):
        for _ in range(substeps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * h * k1)
            k3 = rhs(rho + 0.5 * h * k2)
            k4 = rhs(rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        densities[k + 1] = rho
    bloch, expectations, leakage, traces = _density_readout(densities)
    _check_drift(float(np.abs(traces - 1.0).max()), "density trace")
    return BlochTrajectory(grid.times, bloch, densities=densities,
                           expectations=expectations, leakage=leakage, norms=traces)


def observable_series(traj: BlochTrajectory, X) -> np.ndarray:
    """Expectation series Tr(rho_t X) along a trajectory with stored history."""
    X = np.asarray(X, dtype=complex)
    if traj.states is not None:
        if X.shape != (traj.states.shape[1],) * 2:
            raise DimensionMismatchError(
                f"observable shape {X.shape} does not match state dim {traj.states.shape[1]}"
            )
        norm_sq = np.einsum("ki,ki->k", traj.states.conj(), traj.states).real
        values = np.einsum("ki,ij,kj->k", traj.states.conj(), X, traj.states)
        return values.real / norm_sq
    if traj.densities is not None:
        if X.shape != traj.densities.shape[1:]:
            raise DimensionMismatchError("observable shape does not match density dim")
        return np.einsum("kij,ji->k", traj.densities, X).real
    raise MissingDataError("trajectory retained neither states nor densities")
