"""Time evolution of states and density matrices; Bloch trajectory assembly.

Static Hamiltonians propagate through an eigendecomposition (exact up to
roundoff), and so do density matrices under a static H and any generator
A f(t) with constant A, given the integral of f (the drive replays). A generic
time-dependent H takes the fourth-order commutator-free Magnus step CF4, which
may be subdivided (``substeps``) without changing the output sampling. Every
path is unitary by construction. Nothing is renormalized: norm drift is still
checked on every path and is logged, not hidden.
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


def _readout(times, p0, p1, coherence, total, norms, dim, **history) -> BlochTrajectory:
    """Trajectory of a dim-level history from the populations p0, p1 of |0>, |1>,
    their coherence conj(a0) a1 = rho_10 and the total population, per sample."""
    sx = 2 * coherence.real / total
    sy = 2 * coherence.imag / total
    sz = (p0 - p1) / total
    captured = (p0 + p1) / total
    bloch = np.column_stack([sx, sy, sz]) / captured[:, None]
    return BlochTrajectory(times, bloch, expectations={"sx": sx, "sy": sy, "sz": sz},
                           leakage=1.0 - captured if dim > 2 else None, norms=norms,
                           **history)


def _check_drift(drift: float, what: str):
    if drift > DRIFT_ABORT:
        raise IntegrationError(
            f"{what} drifted by {drift:.3e} (> {DRIFT_ABORT}); "
            "reduce dt or raise substeps"
        )
    if drift > DRIFT_WARN:
        logger.warning("%s drift %.3e exceeds %.0e", what, drift, DRIFT_WARN)


def _eigen_phases(matrix: np.ndarray, dim: int, elapsed):
    """(w, v, exp(-i w elapsed_k / hbar)) of the Hermitian dim x dim ``matrix``, w, v = eigh."""
    if matrix.shape != (dim, dim):
        raise DimensionMismatchError(f"Hamiltonian shape {matrix.shape} does not match dim {dim}")
    w, v = np.linalg.eigh(matrix)
    return w, v, np.exp(-1j * np.outer(elapsed, w) / HBAR)


def _state_trajectory(times: np.ndarray, states: np.ndarray,
                      psi0: np.ndarray) -> BlochTrajectory:
    """Readout of a state history, with its norm drift against ||psi0|| checked."""
    norms = np.linalg.norm(states, axis=1)
    _check_drift(float(np.abs(norms - np.linalg.norm(psi0)).max()), "state norm")
    a, b = states[:, 0], states[:, 1]
    return _readout(times, np.abs(a) ** 2, np.abs(b) ** 2, np.conj(a) * b, norms**2, norms,
                    states.shape[1], states=states)


def _propagate_eigen(matrix: np.ndarray, psi0, times: np.ndarray,
                     elapsed: np.ndarray) -> BlochTrajectory:
    """States exp(-i matrix elapsed_k / hbar) psi0; ``elapsed`` is the accumulated
    time per sample (t - t0 for a static generator, the integral of f for matrix * f(t))."""
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    _, v, phases = _eigen_phases(matrix, psi0.size, elapsed)
    states = (phases * (v.conj().T @ psi0)) @ v.T
    return _state_trajectory(times, states, psi0)


def propagate_static(H: Union[HamiltonianOperator, np.ndarray], psi0,
                     grid: TimeGrid) -> BlochTrajectory:
    """Evolve |psi(t)> = exp(-i H t / hbar) |psi0> on the sampling grid."""
    return _propagate_eigen(_as_matrix(H), psi0, grid.times, grid.times - grid.t0)


def evolve_time_dependent(h_of_t, psi0, grid: TimeGrid,
                          substeps: int = 1) -> BlochTrajectory:
    """Integrate i hbar dpsi/dt = H(t) psi with the commutator-free Magnus step CF4.

    A step of h = dt / substeps takes H1, H2 at the Gauss-Legendre nodes
    1/2 -+ r, r = sqrt(3)/6, and applies exp(-i h ((1/4 + r) H1 + (1/4 - r) H2) / hbar),
    then the exponential with the weights swapped (Alvermann & Fehske, J. Comput.
    Phys. 230, 5930 (2011)): fourth order, unitary, exact for a constant H.
    The Magnus series converges only for h ||H|| / hbar < pi (Moan & Niesen,
    Found. Comput. Math. 8, 291 (2008)), H shifted by the identity that
    minimizes its norm; a step whose two exponents rotate by that much raises
    IntegrationError. ``h_of_t`` may be a callable t -> matrix, a
    HamiltonianOperator or a bare matrix (treated as constant).
    """
    if not callable(h_of_t):
        constant = _as_matrix(h_of_t)
        h_of_t = lambda t: constant  # noqa: E731
    psi0 = psi = np.asarray(psi0, dtype=complex).ravel()
    if substeps < 1:
        raise DomainError("substeps must be >= 1")
    h = grid.dt / substeps
    r = np.sqrt(3) / 6
    states = np.empty((grid.steps + 1, psi.size), dtype=complex)
    states[0] = psi
    for k in range(grid.steps):
        base = grid.t0 + k * grid.dt
        for j in range(substeps):
            t = base + j * h
            H1, H2 = h_of_t(t + (0.5 - r) * h), h_of_t(t + (0.5 + r) * h)
            angle = 0.0
            for exponent in ((0.25 + r) * H1 + (0.25 - r) * H2,
                             (0.25 - r) * H1 + (0.25 + r) * H2):
                w, v, phases = _eigen_phases(exponent, psi.size, h)
                angle += 0.5 * (w[-1] - w[0]) * h / HBAR  # an identity part is a phase
                psi = v @ (phases[0] * (v.conj().T @ psi))
            if angle >= np.pi:
                raise IntegrationError(
                    f"step angle h ||H|| / hbar = {angle:.3g} at t = {t:.6g} s reaches pi, "
                    f"the Magnus convergence bound (dt = {grid.dt:.3e} s, {substeps} "
                    "substeps); reduce dt or raise substeps")
        states[k + 1] = psi
    return _state_trajectory(grid.times, states, psi0)


def evolve_master(rho0, H: Union[HamiltonianOperator, np.ndarray],
                  grid: TimeGrid) -> BlochTrajectory:
    """Evolve the closed-system master equation drho/dt = (i/hbar)[rho, H], exactly in
    the eigenbasis of H: rho'_ij(t) = rho'_ij(t0) exp(-i (w_i - w_j)(t - t0) / hbar)."""
    rho = check_density(rho0, tol=1e-9)
    _, v, phases = _eigen_phases(_as_matrix(H), rho.shape[0], grid.times - grid.t0)
    rotated = (v.conj().T @ rho @ v) * (phases[:, :, None] * phases.conj()[:, None, :])
    densities = v @ rotated @ v.conj().T
    traces = np.einsum("kii->k", densities).real
    _check_drift(float(np.abs(traces - 1.0).max()), "density trace")
    return _readout(grid.times, densities[:, 0, 0].real, densities[:, 1, 1].real,
                    densities[:, 1, 0], traces, traces, rho.shape[0], densities=densities)


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
