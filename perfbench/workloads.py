"""Seeded case generators for the three benchmark workloads.

Every case is one ``scqsim --config <file>`` call. A generator turns a seed
into an endless stream of cases; the same seed always gives the same stream.

Case kinds are dealt in shuffled blocks, so the mix of kinds is exact in
every stretch of a block's length. Continuous sizes (t_f, steps, dt, Fock
levels) come from a Kronecker low-discrepancy sequence with a seeded offset,
so their spread over a few dozen cases matches the target distribution.
Directions (states, Bloch vectors) are plain random draws; no case is
dropped or re-drawn. The size ranges keep every run inside the program's
working envelope, so a run that fails is a regression, not a known defect:
drive replays take RK4 substeps of at most MAX_REPLAY_STEP_S, desk-gain
feedback keeps dt at or below 2e-3 s, and the substepped integrator runs
only toward the pole (README.md lists the defects left outside).

This module does not import scqsim: the cases must be built only from the
values written here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("free_evolution", "drive_replay", "feedback")

# Reference circuit parameters; the values of configs/params plus the lcjj set
# of scqsim.hamiltonians.default_params. Written to a params file per case.
PARAMS = {
    "charge": {"E_c": 7.55e-23, "E_J": 1.359e-24, "C_g": 0.68e-15,
               "V_g": 1e-3, "E_LJ0": 1.359e-24},
    "phase": {"E_J": 3.266e-23, "E_c": 3.266e-27, "I_g": 1e-3,
              "phi_zpf": 0.0398},
    "flux": {"E_J": 6.017e-23, "E_c": 1.711e-23, "E_L": 6.017e-23,
             "E_LJ0": 6.017e-23, "phi_e": 0.5},
    "lcjj": {"E_c": 7.55e-23, "E_J": 0.018 * 7.55e-23, "E_L": 0.0,
             "C_g": 0.68e-15, "E_LJ0": 0.018 * 7.55e-23},
}

# Shipped free-evolution horizons per kind (configs/*_static_*.cfg); lcjj
# reuses the charge circuit and its horizon.
T_FINAL = {"charge": 5e-12, "phase": 1e-13, "flux": 1e-10, "lcjj": 5e-12}

# Longest RK4 substep of a drive replay. With it, 1000 seeded replays drifted
# in norm by at most 5.4e-6 (a short transfer on 223 steps), a twentieth of
# DRIFT_ABORT; with steps of 2e-12 s some 1e-9 s transfers pass it and exit 3.
MAX_REPLAY_STEP_S = 5e-13

# Desk-gain fixed_rk4 sample interval. Up to 2e-3 s the norm overshoots 1 by
# at most 3.7e-10; from about 3e-3 s it passes the 1e-9 that BlochTrajectory
# allows and the run exits 2.
DESK_DT_RANGE = (1e-3, 2e-3)

DESK_GAINS = (2.0, 10.0)
PHYSICAL_GAINS = (1e10, 5e10)
FEEDBACK_HORIZON_S = 20.0

# Kronecker steps 1/g**(i+1), g the root of x**(d+1) = x + 1 (Roberts' R_d
# sequences): well spread in every dimension d.
_ROOTS = {1: 1.618033988749895, 2: 1.324717957244746}


@dataclass
class Case:
    """One CLI run: its config text plus what the output check needs."""

    index: int
    label: str              # case family, e.g. "simulate:fock" or "lyapunov:pole"
    command: str
    options: dict           # config keys (without params / out)
    params: dict = field(default_factory=dict)  # params-file keys; empty = none
    out_suffix: str = ".csv"

    def config_text(self, out_path: str, params_path: str) -> str:
        lines = [f"[{self.command}]"]
        for key, value in self.options.items():
            lines.append(f"{key} = {value}")
        if self.params:
            lines.append(f"params = {params_path}")
        lines.append(f"out = {out_path}")
        return "\n".join(lines) + "\n"

    def params_text(self) -> str:
        return "".join(f"{key} = {value!r}\n" for key, value in self.params.items())


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _bloch_spec(r) -> str:
    return ",".join(repr(float(c)) for c in r)


def _state_spec(rng) -> str:
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps /= np.linalg.norm(amps)
    return ";".join(f"{float(a.real)!r},{float(a.imag)!r}" for a in amps)


class _Stream:
    """Shuffled blocks of case families plus a shifted Kronecker sequence."""

    def __init__(self, seed: int, workload: str, block):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.block = list(block)
        self.shift = self.rng.random(2)
        self.pending = []
        self.counts = {}

    def next_family(self):
        if not self.pending:
            self.pending = [self.block[i] for i in self.rng.permutation(len(self.block))]
        return self.pending.pop()

    def sizes(self, family, dims):
        """Next dims-dimensional quasi-random point for this family, in [0, 1)^dims."""
        k = self.counts.get(family, 0) + 1
        self.counts[family] = k
        g = _ROOTS[dims]
        return [math.fmod(self.shift[d] + k / g ** (d + 1), 1.0) for d in range(dims)]


def _free_evolution(seed: int):
    # kind x {two-level slot, exact2, fock}; the combined circuit has no
    # approximate form (the CLI rejects it), so its first slot is exact2 too.
    # Output format is dealt separately at CSV:JSON = 3:1.
    block = [(kind, slot) for kind in T_FINAL for slot in ("approx", "exact2", "fock")]
    stream = _Stream(seed, "free_evolution", block)
    formats = []
    index = 0
    while True:
        kind, slot = stream.next_family()
        if not formats:
            formats = [("csv", "csv", "csv", "json")[i] for i in stream.rng.permutation(4)]
        fmt = formats.pop()
        model = slot
        if slot == "approx" and kind == "lcjj":
            model = "exact2"
        if slot == "fock":
            (u,) = stream.sizes("fock", 1)
            model = f"fock:{8 + min(32, int(u * 33))}"
        options = {"qubit": kind, "model": model, "psi0": _state_spec(stream.rng),
                   "t_final": repr(T_FINAL[kind]), "format": fmt}
        yield Case(index, f"simulate:{model.split(':')[0]}", "simulate", options,
                   params=dict(PARAMS[kind]), out_suffix="." + fmt)
        index += 1


def _drive_replay(seed: int):
    stream = _Stream(seed, "drive_replay", ("charge", "phase", "flux"))
    index = 0
    while True:
        kind = stream.next_family()
        u_tf, u_steps = stream.sizes("replay", 2)
        tf = _log_uniform(u_tf, 1e-12, 1e-9)
        steps = int(round(_log_uniform(u_steps, 200, 2000)))
        options = {"qubit": kind, "psi0": _state_spec(stream.rng),
                   "psif": _state_spec(stream.rng), "tf": repr(tf), "steps": str(steps),
                   "substeps": str(math.ceil(tf / steps / MAX_REPLAY_STEP_S))}
        yield Case(index, f"drive-run:{kind}", "drive-run", options,
                   params=dict(PARAMS[kind]), out_suffix=".json")
        index += 1


def _feedback(seed: int):
    stream = _Stream(seed, "feedback", ("fixed", "fixed", "pole"))
    index = 0
    while True:
        family = stream.next_family()
        r0 = _unit_vector(stream.rng)
        if family == "fixed":
            (u,) = stream.sizes("fixed", 1)
            dt = _log_uniform(u, *DESK_DT_RANGE)
            options = {"r0": _bloch_spec(r0), "rf": _bloch_spec(_unit_vector(stream.rng)),
                       "alpha": repr(DESK_GAINS[0]), "beta": repr(DESK_GAINS[1]),
                       "dt": repr(dt), "steps": str(int(round(FEEDBACK_HORIZON_S / dt))),
                       "integrator": "fixed_rk4"}
        else:
            options = {"r0": _bloch_spec(r0), "rf": "0,0,1",
                       "alpha": repr(PHYSICAL_GAINS[0]), "beta": repr(PHYSICAL_GAINS[1]),
                       "dt": "1e-06", "steps": "20000", "integrator": "substepped"}
        yield Case(index, f"lyapunov:{family}", "lyapunov", options)
        index += 1


_GENERATORS = {
    "free_evolution": _free_evolution,
    "drive_replay": _drive_replay,
    "feedback": _feedback,
}


def cases(workload: str, seed: int):
    """Endless, reproducible stream of Case objects for a workload."""
    return _GENERATORS[workload](seed)
