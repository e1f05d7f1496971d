"""Pauli matrices, the Bloch vector of a two-level state and a scaled norm.

States are plain complex ndarrays; Bloch vectors are real length-3 ndarrays.
All functions are pure and never mutate their arguments.
"""

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

NORM_TOL = 1e-6


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

