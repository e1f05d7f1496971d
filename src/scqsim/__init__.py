"""Superconducting qubit state evolution, microwave drive design and
Lyapunov stabilization on the Bloch sphere."""

from .constants import E_CHARGE, HBAR
from .core import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_from_state,
    bloch_from_density,
    density_from_bloch,
    density_from_state,
    expectation,
    matrix_exponential,
    normalize_state,
    phase_distance,
    rotate_bloch,
    rotation_operator,
    state_from_bloch,
)
from .drives import (
    DrivePlan,
    RotationTarget,
    bisector_rotation,
    bloch_fidelity,
    carrier_frequency,
    closed_loop_experiment,
    control_propagator,
    design_drive,
    design_transfer,
    effective_rotating_hamiltonian,
    plan_from_dict,
    plan_to_dict,
    rotation_target,
    rwa_hamiltonian,
)
from .evolution import (
    BlochTrajectory,
    TimeGrid,
    evolve_master,
    evolve_time_dependent,
    observable_series,
    propagate_static,
)
from .hamiltonians import (
    HamiltonianOperator,
    QubitParams,
    build_approximate,
    build_exact_two_level,
    build_fock,
    build_general,
    default_params,
    driven_hamiltonian,
    fock_convergence,
    induced_charge,
    zero_point_fluctuations,
)
from .lyapunov import (
    BilinearParams,
    Gains,
    LyapunovRun,
    bilinear_rhs,
    default_bilinear_params,
    feedback_controls,
    lyapunov_value,
    simulate_closed_loop,
)

__version__ = "0.1.0"
