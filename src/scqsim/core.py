"""State vectors, density matrices, Bloch-sphere maps and small operator algebra.

States are plain complex ndarrays; Bloch vectors are real length-3 ndarrays.
All functions are pure and never mutate their arguments.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidAxisError,
    InvalidBlochError,
    InvalidStateError,
    NumericError,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

NORM_TOL = 1e-6
HERMITICITY_TOL = 1e-12


def scaled_norm(x: np.ndarray):
    """(s, ||s||, e), s = x / 2**e with e the frexp exponent of the largest part of
    the contiguous float array ``x``: ||s|| cannot overflow or underflow, and
    s / ||s|| is x / ||x|| bit for bit wherever the latter is computable."""
    parts = x.view(float)
    exponent = int(np.frexp(np.abs(parts).max())[1])
    scaled = np.ldexp(parts, -exponent).view(x.dtype)
    return scaled, float(np.linalg.norm(scaled)), exponent


def normalize_state(amplitudes) -> np.ndarray:
    """Return a unit-norm complex state vector built from `amplitudes`."""
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    if psi.size < 2:
        raise InvalidStateError("state needs at least two amplitudes")
    if not np.all(np.isfinite(psi.view(float))):
        raise NumericError("state amplitudes must be finite")
    psi, norm, _ = scaled_norm(psi)
    if norm == 0:
        raise InvalidStateError("cannot normalize the zero vector")
    return psi / norm


def _check_state(psi, dim=None) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    if dim is not None and psi.size != dim:
        raise DimensionMismatchError(f"expected a {dim}-dimensional state, got {psi.size}")
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
        raise InvalidStateError(
            f"state norm {np.linalg.norm(psi):.9g} deviates from 1 by more than {NORM_TOL}"
        )
    return psi


def bloch_from_state(psi) -> np.ndarray:
    """Bloch vector (x, y, z) of a normalized two-level state (a, b).

    x = 2 Re(a* b), y = 2 Im(a* b), z = |a|^2 - |b|^2.
    """
    psi = _check_state(psi, dim=2)
    a, b = psi
    w = np.conj(a) * b
    return np.array([2 * w.real, 2 * w.imag, abs(a) ** 2 - abs(b) ** 2])


def state_from_bloch(r) -> np.ndarray:
    """Pure state (cos(theta/2), e^{i phi} sin(theta/2)) for a unit Bloch vector.

    Uses the half-angle identities cos(theta/2) = sqrt((1+z)/2) etc., which
    stay well conditioned at the poles.
    """
    r = check_bloch(r)
    if abs(np.linalg.norm(r) - 1.0) > 1e-6:
        raise InvalidBlochError("only unit (pure-state) Bloch vectors map to a state vector")
    z = np.clip(r[2], -1.0, 1.0)
    phi = np.arctan2(r[1], r[0])
    return np.array([np.sqrt((1 + z) / 2), np.exp(1j * phi) * np.sqrt((1 - z) / 2)])


def check_bloch(r) -> np.ndarray:
    r = np.asarray(r, dtype=float).ravel()
    if r.size != 3:
        raise DimensionMismatchError("Bloch vector must have three components")
    if np.linalg.norm(r) > 1 + 1e-9:
        raise InvalidBlochError(f"|r| = {np.linalg.norm(r):.9g} exceeds 1")
    return r


def density_from_bloch(r) -> np.ndarray:
    """Density matrix (1/2)(I + r . sigma) of a Bloch vector inside the unit ball."""
    x, y, z = check_bloch(r)
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def density_from_state(psi) -> np.ndarray:
    """Projector |psi><psi| of a normalized state."""
    psi = _check_state(psi)
    return np.outer(psi, np.conj(psi))


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector (<sx>, <sy>, <sz>) of a 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionMismatchError("Bloch readout needs a 2x2 density matrix")
    return np.array([expectation(rho, P) for P in PAULIS])


def check_density(rho, tol=HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity, unit trace and positive semidefiniteness of rho."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError("density matrix must be square")
    scale = max(1.0, np.abs(rho).max())
    if np.abs(rho - rho.conj().T).max() > tol * scale:
        raise NumericError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise NumericError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -1e-12:
        raise NumericError("density matrix has a negative eigenvalue")
    return rho


def is_hermitian(A, tol=HERMITICITY_TOL) -> bool:
    A = np.asarray(A)
    scale = max(1.0, np.abs(A).max())
    return bool(np.abs(A - A.conj().T).max() <= tol * scale)


def expectation(rho, X) -> float:
    """Mean value Tr(rho X) of a Hermitian observable."""
    rho = np.asarray(rho, dtype=complex)
    X = np.asarray(X, dtype=complex)
    if rho.shape != X.shape or rho.ndim != 2:
        raise DimensionMismatchError(
            f"operator shape {X.shape} does not match density matrix shape {rho.shape}"
        )
    value = np.trace(rho @ X)
    scale = max(1.0, abs(value.real))
    if abs(value.imag) > 1e-10 * scale:
        raise NumericError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


def matrix_exponential(A) -> np.ndarray:
    """exp(A) for a small complex square matrix.

    Hermitian and skew-Hermitian generators go through an eigendecomposition,
    which keeps propagators exactly unitary; anything else falls back to
    scipy's scaling-and-squaring (imported here, so scipy loads only then).
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError("matrix exponential needs a square matrix")
    if not np.all(np.isfinite(A.view(float))):
        raise NumericError("matrix exponential of a non-finite matrix")
    if is_hermitian(A):
        w, v = np.linalg.eigh(A)
        return (v * np.exp(w)) @ v.conj().T
    if is_hermitian(1j * A):
        w, v = np.linalg.eigh(1j * A)  # A = -i B with B Hermitian
        return (v * np.exp(-1j * w)) @ v.conj().T
    import scipy.linalg
    return scipy.linalg.expm(A)


def rotation_operator(n_hat, alpha: float) -> np.ndarray:
    """Bloch rotation operator exp(-i alpha/2 n.sigma) = cos(alpha/2) I - i sin(alpha/2) n.sigma.

    `n_hat` must already be a unit vector; no silent normalization.
    """
    n = np.asarray(n_hat, dtype=float).ravel()
    if n.size != 3:
        raise InvalidAxisError("rotation axis must have three components")
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise InvalidAxisError(f"axis norm {np.linalg.norm(n):.12g} is not 1")
    ns = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return np.cos(alpha / 2) * IDENTITY_2 - 1j * np.sin(alpha / 2) * ns


def rotate_bloch(n_hat, alpha: float, r) -> np.ndarray:
    """Rotate a Bloch vector by conjugating its density matrix with R_n(alpha)."""
    U = rotation_operator(n_hat, alpha)
    rho = density_from_bloch(r)
    return bloch_from_density(U @ rho @ U.conj().T)


def phase_distance(U, V) -> float:
    """Distance between unitaries ignoring global phase: 1 - |Tr(U^dag V)| / dim."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape:
        raise DimensionMismatchError("operators must have equal shapes")
    return float(1.0 - abs(np.trace(U.conj().T @ V)) / U.shape[0])


def is_unitary(U, tol=1e-10) -> bool:
    U = np.asarray(U, dtype=complex)
    return bool(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max() <= tol)
