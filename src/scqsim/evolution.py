"""Time evolution of states; Bloch trajectory assembly.

Every path propagates through one eigendecomposition kernel, exact up to
roundoff: a static Hamiltonian, and a generator A f(t) with constant A given
the integral of f (the drive replays). Every path is unitary by construction.
Nothing is renormalized: norm drift is still checked on every path and is
logged, not hidden. The kernel takes the Hamiltonian as a plain matrix and
refuses one that is not finite or not Hermitian. Every sampling grid starts
at t = 0. The kernel forms states in blocks of BLOCK_ROWS samples and keeps none.
"""

import logging
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .constants import HBAR
from .errors import ConfigError, NumericError

logger = logging.getLogger(__name__)

#: abort threshold for the norm drift of a run
DRIFT_ABORT = 1e-4
#: drift level above which a run is logged as degraded
DRIFT_WARN = 1e-8
#: samples whose states the propagation kernel forms at once
BLOCK_ROWS = 2048


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: samples at k dt for k = 0 .. steps. ``config.resolve``
    checks what the commands pass: dt > 0, steps >= 1 and a finite dt * steps."""

    dt: float
    steps: int

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


@dataclass
class BlochTrajectory:
    """Time-stamped Bloch vectors, <sigma> expectations, norms and leakage.

    For states with more than two levels the Bloch vector is the qubit
    subspace {|0>, |1>} projection, renormalized; ``leakage`` is the
    population outside that subspace.
    """

    times: np.ndarray
    bloch: np.ndarray
    expectations: Dict[str, np.ndarray] = field(default_factory=dict)
    leakage: Optional[np.ndarray] = None
    norms: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.times)
        if self.bloch.shape != (n, 3):
            raise ConfigError("bloch series length does not match times")
        if np.linalg.norm(self.bloch, axis=1).max() > 1 + 1e-9:
            raise ConfigError("Bloch vectors must stay inside the unit ball")

    @property
    def final_bloch(self) -> np.ndarray:
        return self.bloch[-1]


def _check_drift(drift: float, what: str):
    if not drift <= DRIFT_ABORT:  # NaN too
        raise NumericError(f"{what} drifted by {drift:.3e} (> {DRIFT_ABORT})")
    if drift > DRIFT_WARN:
        logger.warning("%s drift %.3e exceeds %.0e", what, drift, DRIFT_WARN)


def _state_blocks(matrix: np.ndarray, psi0, elapsed: np.ndarray):
    """States exp(-i matrix elapsed_k / hbar) psi0, BLOCK_ROWS samples per yielded block;
    ``elapsed`` is the accumulated time per sample (t for a static generator, the
    integral of f from 0 for matrix * f(t))."""
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if matrix.shape != (psi0.size, psi0.size):
        raise ConfigError(
            f"Hamiltonian shape {matrix.shape} does not match dim {psi0.size}")
    if not np.isfinite(matrix).all():
        raise NumericError("Hamiltonian has non-finite entries")
    if np.abs(matrix - matrix.conj().T).max() > 1e-12 * max(1.0, np.abs(matrix).max()):
        raise ConfigError("Hamiltonian matrix must be Hermitian")
    w, v = np.linalg.eigh(matrix)
    coefficients = v.conj().T @ psi0
    for start in range(0, len(elapsed), BLOCK_ROWS):
        phases = np.exp(-1j * np.outer(elapsed[start:start + BLOCK_ROWS], w) / HBAR)
        phases *= coefficients
        yield phases @ v.T


def _propagate_eigen(matrix: np.ndarray, psi0, times: np.ndarray,
                     elapsed: np.ndarray) -> BlochTrajectory:
    """Trajectory of the states of ``_state_blocks``, with their norm drift against
    ||psi0|| checked. Each state is read for its amplitudes a0, a1 of |0>, |1> and
    its norm: the populations p0, p1, their coherence conj(a0) a1 = rho_10 and the
    total population give the readout."""
    a0, a1 = np.empty((2, len(elapsed)), dtype=complex)
    norms = np.empty(len(elapsed))
    for start, block in zip(range(0, len(elapsed), BLOCK_ROWS),
                            _state_blocks(matrix, psi0, elapsed)):
        rows = slice(start, start + len(block))
        a0[rows], a1[rows] = block[:, 0], block[:, 1]
        norms[rows] = np.linalg.norm(block, axis=1)
    _check_drift(float(np.abs(norms - np.linalg.norm(psi0)).max()), "state norm")
    p0, p1, coherence, total = np.abs(a0) ** 2, np.abs(a1) ** 2, np.conj(a0) * a1, norms**2
    sx = 2 * coherence.real / total
    sy = 2 * coherence.imag / total
    sz = (p0 - p1) / total
    captured = (p0 + p1) / total
    bloch = np.column_stack([sx, sy, sz]) / captured[:, None]
    return BlochTrajectory(times, bloch, expectations={"sx": sx, "sy": sy, "sz": sz},
                           leakage=1.0 - captured if len(matrix) > 2 else None, norms=norms)


def propagate_static(H: np.ndarray, psi0, grid: TimeGrid) -> BlochTrajectory:
    """Evolve |psi(t)> = exp(-i H t / hbar) |psi0> on the sampling grid."""
    return _propagate_eigen(H, psi0, grid.times, grid.times)
