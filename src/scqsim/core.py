"""Pauli matrices, the Bloch vector of a two-level state and the matrix exponential.

States are plain complex ndarrays; Bloch vectors are real length-3 ndarrays.
All functions are pure and never mutate their arguments.
"""

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError, NumericError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

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


def is_hermitian(A, tol=HERMITICITY_TOL) -> bool:
    A = np.asarray(A)
    scale = max(1.0, np.abs(A).max())
    return bool(np.abs(A - A.conj().T).max() <= tol * scale)


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
