"""Two-level and truncated-Fock Hamiltonians for charge, phase, flux and L-C-JJ qubits.

Everything is in SI units: energies in joules, voltages in volts, currents in
amperes, external flux as a phase in radians. The charge, phase and flux
circuits each come in two flavors:

* ``approximate`` -- the textbook two-level form with sigma_z / sigma_x
  coefficients.
* ``exact_two_level`` -- the full circuit Hamiltonian with the operator
  substitution n -> n_zpf sigma_y, phi -> phi_zpf sigma_x (so cos(phi)
  collapses to cos(phi_zpf) I).

``fock`` builds the same circuit Hamiltonians on an N-level oscillator ladder
with n = i n_zpf (a - a^dag) and phi = phi_zpf (a + a^dag).

Each builder returns the traceless matrix: the identity offset only contributes
a global phase to closed dynamics. ``exact_drive_operator`` gives the constant
dH/d(drive) of the exact two-level model, which the drive replays propagate.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import E_CHARGE, HBAR
from .core import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .errors import DomainError, NumericError, TruncationError

QUBIT_KINDS = ("charge", "phase", "flux", "lcjj")

#: kinds with a microwave drive: V for charge, I for phase, phi_e for flux
DRIVE_KINDS = ("charge", "phase", "flux")


def induced_charge(C_g: float, V: float) -> float:
    """Gate charge n_g = C_g V / (2e) in Cooper-pair units."""
    return C_g * V / (2 * E_CHARGE)


def zero_point_fluctuations(E_c: float, E_LJ0: float) -> tuple[float, float]:
    """Number and phase zero-point fluctuations of the linearized circuit.

    n_zpf = (E_LJ0 / 32 E_c)^(1/4), phi_zpf = (2 E_c / E_LJ0)^(1/4); their
    product is exactly 1/2.
    """
    if E_c <= 0 or E_LJ0 <= 0:
        raise DomainError("zero-point fluctuations need strictly positive energies")
    n_zpf = (E_LJ0 / (32.0 * E_c)) ** 0.25
    phi_zpf = (2.0 * E_c / E_LJ0) ** 0.25
    return n_zpf, phi_zpf


@dataclass(frozen=True)
class QubitParams:
    """Physical parameters of one superconducting circuit.

    ``n_zpf`` / ``phi_zpf`` may be supplied directly; if only one is given the
    other is completed through n_zpf * phi_zpf = 1/2, and if neither is given
    both are derived from ``E_LJ0``.
    """

    qubit_kind: str
    E_c: float          # charging energy of one Cooper pair, J
    E_J: float          # Josephson energy, J
    E_L: float = 0.0    # inductive energy, J (flux / lcjj only)
    C_g: float = 0.0    # gate capacitance, F
    n_g: float = 0.0    # induced gate charge, dimensionless
    I_g: float = 0.0    # bias current, A
    phi_e: float = 0.0  # external flux phase, rad
    E_LJ0: Optional[float] = None   # linearization energy for zpf derivation, J
    n_zpf: Optional[float] = None
    phi_zpf: Optional[float] = None

    def __post_init__(self):
        if self.qubit_kind not in QUBIT_KINDS:
            raise DomainError(f"unknown qubit kind {self.qubit_kind!r}")
        for name in ("E_c", "E_J", "E_L"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")
        for name in ("n_zpf", "phi_zpf"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise DomainError(f"{name} must be positive when supplied")

    def zpf(self) -> tuple[float, float]:
        """Resolved (n_zpf, phi_zpf) pair."""
        if self.n_zpf is not None and self.phi_zpf is not None:
            return self.n_zpf, self.phi_zpf
        if self.phi_zpf is not None:
            return 0.5 / self.phi_zpf, self.phi_zpf
        if self.n_zpf is not None:
            return self.n_zpf, 0.5 / self.n_zpf
        if self.E_LJ0 is None:
            raise DomainError("supply n_zpf/phi_zpf or E_LJ0 to fix the operator scales")
        return zero_point_fluctuations(self.E_c, self.E_LJ0)


def _charge_validity_warning(p: QubitParams):
    if p.qubit_kind == "charge" and p.E_c < 10.0 * p.E_J:
        warnings.warn(
            "charge-qubit two-level reduction assumes E_c >> E_J "
            f"(got E_c/E_J = {p.E_c / p.E_J:.3g}); building anyway",
            stacklevel=3,
        )


def drive_coupling(kind: str, p: QubitParams) -> float:
    """Coupling k of the approximate model's drive term k s(t) channel, J per drive unit:
    sigma_z for the charge qubit's V, sigma_x for the phase qubit's I and the flux
    qubit's phi_e. The drive designs of ``scqsim.drives`` invert the same k."""
    if kind == "charge":
        return -p.C_g * p.E_c / (2 * E_CHARGE)
    _, phi_zpf = p.zpf()
    if kind == "phase":
        return -(HBAR / (2 * E_CHARGE)) * phi_zpf
    if kind == "flux":
        return -p.E_L * phi_zpf
    raise DomainError(f"no microwave drive inversion for kind {kind!r}")


def build_approximate(p: QubitParams) -> np.ndarray:
    """Approximate (driven two-level) Hamiltonian of a charge, phase or flux qubit.

    charge: E_c (1/2 - n_g) sigma_z + (E_J / 2) sigma_x
    phase:  -(E_c / 2) sigma_z + (E_J / 2 - (hbar/2e) phi_zpf I_g) sigma_x
    flux:   -(E_c / 2) sigma_z + (E_J / 2 - E_L phi_zpf phi_e) sigma_x

    Each drive enters as k times its channel, k = drive_coupling(kind, p).
    """
    if p.qubit_kind == "lcjj":
        raise DomainError("the approximate model covers charge, phase and flux; "
                          "use exact2 or fock:N for lcjj")
    _charge_validity_warning(p)
    if p.qubit_kind == "charge":
        hz = p.E_c * (0.5 - p.n_g)
        hx = 0.5 * p.E_J
    else:
        hz = -0.5 * p.E_c
        drive = p.I_g if p.qubit_kind == "phase" else p.phi_e
        hx = 0.5 * p.E_J + drive_coupling(p.qubit_kind, p) * drive
    return hz * SIGMA_Z + hx * SIGMA_X


def build_exact_two_level(p: QubitParams) -> np.ndarray:
    """Circuit Hamiltonian under the substitution n -> n_zpf sigma_y, phi -> phi_zpf sigma_x.

    Since sigma_k^2 = I the cosine collapses: cos(phi_zpf sigma_x) =
    cos(phi_zpf) I. The resulting traceless part couples only through the
    drive terms; with all drives at zero the operator is a pure identity
    offset, the returned matrix is zero and the state is frozen.
    """
    n_zpf, phi_zpf = p.zpf()
    hx = hy = 0.0
    offset = -p.E_J * np.cos(phi_zpf)
    if p.qubit_kind in ("charge", "lcjj"):
        # E_c (n_zpf sigma_y - n_g)^2 = E_c (n_zpf^2 + n_g^2) I - 2 E_c n_g n_zpf sigma_y
        hy -= 2 * p.E_c * p.n_g * n_zpf
        offset += p.E_c * (n_zpf**2 + p.n_g**2)
    else:
        offset += p.E_c * n_zpf**2
    if p.qubit_kind in ("phase", "lcjj"):
        hx -= HBAR / (2 * E_CHARGE) * phi_zpf * p.I_g
    if p.qubit_kind in ("flux", "lcjj"):
        # (E_L/2)(phi_zpf sigma_x - phi_e)^2
        hx -= p.E_L * phi_zpf * p.phi_e
        offset += 0.5 * p.E_L * (phi_zpf**2 + p.phi_e**2)
    matrix = hx * SIGMA_X + hy * SIGMA_Y + offset * IDENTITY_2
    return matrix - offset * np.eye(2)


def exact_drive_operator(p: QubitParams) -> np.ndarray:
    """dH/d(drive) of the exact two-level model of a charge, phase or flux qubit: the
    constant operator its V, I or phi_e signal multiplies (sigma_y for charge,
    sigma_x for phase and flux). With the drive field at zero the traceless
    matrix of these circuits is zero, so H(t) = signal(t) times this operator."""
    if p.qubit_kind == "charge":
        n_zpf, _ = p.zpf()
        return -2 * p.E_c * n_zpf * p.C_g / (2 * E_CHARGE) * SIGMA_Y
    return drive_coupling(p.qubit_kind, p) * SIGMA_X


# ---------------------------------------------------------------------------
# truncated-Fock representation


def annihilation_operator(n_levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), 1).astype(complex)


def number_phase_operators(p: QubitParams, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Charge and phase operators i n_zpf (a - a^dag), phi_zpf (a + a^dag)."""
    n_zpf, phi_zpf = p.zpf()
    a = annihilation_operator(n_levels)
    ad = a.conj().T
    return 1j * n_zpf * (a - ad), phi_zpf * (a + ad)


def cosine_of(phi_op: np.ndarray) -> np.ndarray:
    """cos(phi) = (exp(i phi) + exp(-i phi)) / 2 for a Hermitian phi, with
    exp(i phi) = exp(-i B), B = i (i phi) Hermitian, in B's eigenbasis."""
    w, v = np.linalg.eigh(1j * (1j * phi_op))
    plus = (v * np.exp(-1j * w)) @ v.conj().T
    return 0.5 * (plus + plus.conj().T)


def build_fock(p: QubitParams, n_levels: int) -> np.ndarray:
    """Circuit Hamiltonian on an ``n_levels``-dimensional oscillator ladder."""
    if n_levels < 4:
        raise TruncationError("Fock truncation needs at least 4 levels")
    n_op, phi_op = number_phase_operators(p, n_levels)
    eye = np.eye(n_levels, dtype=complex)
    H = -p.E_J * cosine_of(phi_op)
    if p.qubit_kind in ("charge", "lcjj"):
        shifted = n_op - p.n_g * eye
        H = H + p.E_c * (shifted @ shifted)
    else:
        H = H + p.E_c * (n_op @ n_op)
    if p.qubit_kind in ("phase", "lcjj"):
        H = H - HBAR / (2 * E_CHARGE) * p.I_g * phi_op
    if p.qubit_kind in ("flux", "lcjj"):
        shifted = phi_op - p.phi_e * eye
        H = H + 0.5 * p.E_L * (shifted @ shifted)
    offset = float(np.trace(H).real / n_levels)
    return H - offset * np.eye(n_levels)


def build(p: QubitParams, model: str, n_levels: Optional[int] = None) -> np.ndarray:
    """The ``model`` Hamiltonian of ``p``: "approximate", "exact_two_level" or "fock"
    (``n_levels`` levels, 8 if not given). Each call looks its builder up by module
    name, so a wrapper set on one here (a profiler's, say) sees every build. A
    float overflow in the build is a NumericError that names the model and kind."""
    try:
        if model == "approximate":
            return build_approximate(p)
        if model == "exact_two_level":
            return build_exact_two_level(p)
        if model == "fock":
            return build_fock(p, 8 if n_levels is None else n_levels)
    except OverflowError:
        raise NumericError(f"the {model} Hamiltonian of the {p.qubit_kind} qubit "
                           "overflows a float") from None
    raise DomainError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# reference parameter sets (used by the CLI and the shipped run configs)


def default_params(kind: str) -> QubitParams:
    """Built-in reference parameter set for each circuit.

    Quantities the reference sets leave open (E_LJ0 for the charge and flux
    circuits, E_L for the flux circuit) default to E_J. The lcjj set reuses
    the charge circuit with the inductive branch open (E_L = 0).
    """
    if kind == "charge":
        E_c = 7.55e-23
        E_J = 0.018 * E_c
        C_g = 0.68e-15
        return QubitParams("charge", E_c=E_c, E_J=E_J, C_g=C_g,
                           n_g=induced_charge(C_g, 1e-3), E_LJ0=E_J)
    if kind == "phase":
        E_J = 3.266e-23
        return QubitParams("phase", E_c=1e-4 * E_J, E_J=E_J, I_g=1e-3,
                           phi_zpf=0.0398)
    if kind == "flux":
        E_J = 6.017e-23
        return QubitParams("flux", E_c=1.711e-23, E_J=E_J, E_L=E_J,
                           phi_e=0.5, E_LJ0=E_J)
    if kind == "lcjj":
        E_c = 7.55e-23
        E_J = 0.018 * E_c
        return QubitParams("lcjj", E_c=E_c, E_J=E_J, E_L=0.0, C_g=0.68e-15,
                           E_LJ0=E_J)
    raise DomainError(f"unknown qubit kind {kind!r}")
