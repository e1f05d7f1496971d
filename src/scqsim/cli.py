"""Command-line front end: simulate evolutions, design drives, run experiments.

Exit codes: 0 success, 2 configuration error, 3 numeric/integration failure
(a float overflow included), 4 I/O failure. All diagnostics go to stderr;
results go to --out or stdout.
"""

import argparse
import contextlib
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import export
from .config import CHOICES, COMMAND_KEYS, REQUIRED, RunConfig, parse_config, resolve
from .constants import HBAR
from .drives import closed_loop_experiment, design_transfer, plan_to_dict
from .errors import ConfigError, NumericError
from .evolution import TimeGrid, propagate_static
from .hamiltonians import build
from .lyapunov import BilinearParams, Gains, simulate_closed_loop


#: the CSV each drive-run replay writes next to its JSON summary, by model
REPLAY_CSV_SUFFIXES = {"approximate_rotating": "_approx.csv", "exact_lab": "_exact.csv"}


@contextlib.contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as stream:
            yield stream


def run_simulate(cfg: RunConfig) -> int:
    """evolve a state under a static circuit Hamiltonian"""
    grid = TimeGrid(cfg.dt, cfg.steps)
    H = build(cfg.params, cfg.model, cfg.n_levels)
    psi0 = cfg.psi0
    if len(H) > 2 and psi0.size == 2:
        padded = np.zeros(len(H), dtype=complex)
        padded[:2] = psi0
        psi0 = padded
    try:
        traj = propagate_static(H, psi0, grid)
    except FloatingPointError:  # the phases w t / hbar pass the float range
        digits = (math.log10(np.abs(np.linalg.eigvalsh(H)).max()) + math.log10(grid.times[-1])
                  - math.log10(HBAR))
        raise NumericError(f"the {cfg.model} Hamiltonian of the {cfg.params.qubit_kind} qubit "
                           "overflows in propagation: its generator scale max|w| t_final / hbar "
                           f"is about 10^{digits:.1f}") from None
    with _output(cfg.out) as stream:
        if cfg.fmt == "csv":
            export.write_trajectory_csv(traj, stream)
        else:
            export.dump_json(export.trajectory_to_dict(traj), stream)
    return 0


def run_design(cfg: RunConfig) -> int:
    """synthesize a drive plan for a state transfer"""
    *_, plan = design_transfer(cfg.psi0, cfg.psif, cfg.tf, cfg.params)
    with _output(cfg.out) as stream:
        export.dump_json(plan_to_dict(plan), stream)
    return 0


def run_drive_run(cfg: RunConfig) -> int:
    """design a plan, replay it on the rotating-frame and exact models"""
    r0, rf, plan = design_transfer(cfg.psi0, cfg.psif, cfg.tf, cfg.params)
    grid = TimeGrid(cfg.tf / cfg.steps, cfg.steps)
    results = {model: closed_loop_experiment(plan, cfg.psi0, model, grid, cfg.params,
                                             r_target=rf)
               for model in REPLAY_CSV_SUFFIXES}
    summary = {
        "plan": plan_to_dict(plan),
        "r0": [float(c) for c in r0],
        "rf": [float(c) for c in rf],
    }
    for model, res in results.items():
        summary[model] = {
            "fidelity": res.fidelity,
            "final_bloch": [float(c) for c in res.r_final],
        }
    summary["fidelity_gap"] = (results["approximate_rotating"].fidelity
                               - results["exact_lab"].fidelity)
    with _output(cfg.out) as stream:
        export.dump_json(summary, stream)
    if cfg.out is not None:
        stem = Path(cfg.out)
        for model, suffix in REPLAY_CSV_SUFFIXES.items():
            with open(stem.with_suffix("").as_posix() + suffix, "w", newline="\n") as f:
                export.write_trajectory_csv(results[model].trajectory, f)
    return 0


def run_lyapunov(cfg: RunConfig) -> int:
    """stabilize the L-C-JJ qubit to a target Bloch state"""
    grid = TimeGrid(cfg.dt, cfg.steps)
    run = simulate_closed_loop(cfg.r0, cfg.rf, Gains(cfg.alpha, cfg.beta),
                               BilinearParams.from_qubit(cfg.params), grid,
                               integrator=cfg.integrator)
    with _output(cfg.out) as stream:
        if cfg.fmt == "csv":
            export.write_lyapunov_csv(run, stream)
        else:
            export.dump_json(export.lyapunov_to_dict(run), stream)
    return 0


_DISPATCH = {
    "simulate": run_simulate,
    "design": run_design,
    "drive-run": run_drive_run,
    "lyapunov": run_lyapunov,
}


#: help text per option key, shared by every command that takes the key
_OPTION_HELP = {
    "qubit": "circuit kind",
    "model": "approx | exact2 | fock:N",
    "psi0": "initial state 're,im;re,im;...'",
    "psif": "target state 're,im;re,im;...'",
    "t_final": "evolution time, s",
    "tf": "transfer time, s",
    "dt": "sample interval, s (simulate: t_final / 2000 by default, must divide t_final)",
    "steps": "trajectory samples",
    "substeps": "accepted (>= 1), no effect: both replays use exact propagators",
    "r0": "initial Bloch vector 'x,y,z'",
    "rf": "target Bloch vector 'x,y,z'",
    "alpha": "feedback gain of the voltage channel",
    "beta": "feedback gain of the current channel",
    "integrator": "fixed_rk4: one RK4 step per sample; substepped: adaptive "
                  "Dormand-Prince steps, for gains far above 1/dt",
    "params": "qubit parameter file (key = value)",
    "out": "output path (default: stdout)",
    "format": "output format",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        if message.endswith("expected one argument"):
            message += "; a value that starts with '-' goes after '=', as in --r0=-0.6,0,0.8"
        super().error(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, one option per schema key of config.COMMAND_KEYS.

    A command's help is its run function's docstring. Options keep their
    text: values are converted and checked by config.resolve, the path
    config files take too, which also refuses a repeated option as a
    duplicate key and a value outside an enumerated kind's CHOICES (the
    help lists them). Options are not abbreviated. The schema is fixed, so
    one parser serves every call in a process.
    """
    parser = _Parser(
        prog="scqsim",
        description="Superconducting qubit evolution, drive design and stabilization",
        allow_abbrev=False,
    )
    parser.add_argument("--config", action="append",
                        help="run configuration file (instead of a subcommand)")
    sub = parser.add_subparsers(dest="command")
    for command, schema in COMMAND_KEYS.items():
        p = sub.add_parser(command, help=_DISPATCH[command].__doc__, allow_abbrev=False)
        for key, (kind, default) in schema.items():
            text = _OPTION_HELP[key]
            if default not in (REQUIRED, None):
                text += f" (default {default})"
            metavar = "{" + ",".join(CHOICES[kind]) + "}" if kind in CHOICES else None
            p.add_argument("--" + key.replace("_", "-"), dest=key, required=default is REQUIRED,
                           action="append", metavar=metavar, help=text)
    return parser


def _option_entries(args, keys) -> list:
    """(flag, key, text) each time an option is given; a value that is not text is refused."""
    entries = [("--" + key.replace("_", "-"), key, value)
               for key in keys for value in getattr(args, key) or ()]
    for flag, _, value in entries:
        if not isinstance(value, str):  # argparse passes [] for --key=--
            raise ConfigError(f"{flag}: expected one value, got {value!r}")
    return entries


def _config_from_args(args) -> RunConfig:
    return resolve(args.command, _option_entries(args, COMMAND_KEYS[args.command]),
                   "command line")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            if args.command is not None:
                parser.error("give either --config or a subcommand, not both")
            (_, _, path), *repeated = _option_entries(args, ["config"])
            if repeated:
                raise ConfigError("--config: duplicate key 'config'")
            cfg = parse_config(path)
        elif args.command is None:
            parser.error("a subcommand or --config is required")
        else:
            cfg = _config_from_args(args)
        with np.errstate(over="raise"):
            return _DISPATCH[cfg.command](cfg)
    except (NumericError, OverflowError, FloatingPointError) as exc:
        print(f"scqsim: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"scqsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"scqsim: I/O failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
