"""Command-line front end: simulate evolutions, design drives, run experiments.

Exit codes: 0 success, 2 configuration error, 3 numeric/integration failure,
4 I/O failure. All diagnostics go to stderr; results go to --out or stdout.
"""

import argparse
import contextlib
import functools
import sys
from pathlib import Path

import numpy as np

from . import export
from .config import CHOICES, COMMAND_KEYS, REQUIRED, RunConfig, parse_config, resolve
from .drives import closed_loop_experiment, design_transfer, plan_to_dict
from .errors import IntegrationError, NumericError, SimulationError
from .evolution import TimeGrid, propagate_static
from .hamiltonians import build_approximate, build_exact_two_level, build_fock
from .lyapunov import BilinearParams, Gains, simulate_closed_loop


@contextlib.contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as stream:
            yield stream


def _build_static(cfg: RunConfig):
    if cfg.model == "approx":
        return build_approximate(cfg.params)
    if cfg.model == "exact2":
        return build_exact_two_level(cfg.params)
    return build_fock(cfg.params, cfg.n_levels)


def run_simulate(cfg: RunConfig) -> int:
    """evolve a state under a static circuit Hamiltonian"""
    grid = TimeGrid(0.0, cfg.dt, cfg.steps)
    H = _build_static(cfg)
    psi0 = cfg.psi0
    if H.dim > 2 and psi0.size == 2:
        padded = np.zeros(H.dim, dtype=complex)
        padded[:2] = psi0
        psi0 = padded
    traj = propagate_static(H, psi0, grid)
    with _output(cfg.out) as stream:
        if cfg.fmt == "csv":
            export.write_trajectory_csv(traj, stream)
        else:
            export.dump_json(export.trajectory_to_dict(traj), stream)
    return 0


def run_design(cfg: RunConfig) -> int:
    """synthesize a drive plan for a state transfer"""
    _, plan = design_transfer(cfg.psi0, cfg.psif, cfg.tf, cfg.params)
    with _output(cfg.out) as stream:
        export.dump_json(plan_to_dict(plan), stream)
    return 0


def run_drive_run(cfg: RunConfig) -> int:
    """design a plan, replay it on the rotating-frame and exact models"""
    target, plan = design_transfer(cfg.psi0, cfg.psif, cfg.tf, cfg.params)
    grid = TimeGrid(0.0, cfg.tf / cfg.steps, cfg.steps)
    results = {model: closed_loop_experiment(plan, cfg.psi0, model, grid, cfg.params,
                                             r_target=target.rf)
               for model in ("approximate_rotating", "exact_lab")}
    summary = {
        "plan": plan_to_dict(plan),
        "r0": [float(c) for c in target.r0],
        "rf": [float(c) for c in target.rf],
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
        for model, suffix in (("approximate_rotating", "_approx.csv"),
                              ("exact_lab", "_exact.csv")):
            with open(stem.with_suffix("").as_posix() + suffix, "w", newline="\n") as f:
                export.write_trajectory_csv(results[model].trajectory, f)
    return 0


def run_lyapunov(cfg: RunConfig) -> int:
    """stabilize the L-C-JJ qubit to a target Bloch state"""
    grid = TimeGrid(0.0, cfg.dt, cfg.steps)
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
    "integrator": "closed-loop integrator",
    "params": "qubit parameter file (key = value)",
    "out": "output path (default: stdout)",
    "format": "output format",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, one option per schema key of config.COMMAND_KEYS.

    A command's help is its run function's docstring. Options keep their
    text: values are converted and checked by config.resolve, the path
    config files take too. The schema is fixed, so one parser serves every
    call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="scqsim",
        description="Superconducting qubit evolution, drive design and stabilization",
    )
    parser.add_argument("--config", help="run configuration file (instead of a subcommand)")
    sub = parser.add_subparsers(dest="command")
    for command, schema in COMMAND_KEYS.items():
        p = sub.add_parser(command, help=_DISPATCH[command].__doc__)
        for key, (kind, default) in schema.items():
            text = _OPTION_HELP[key]
            if default not in (REQUIRED, None):
                text += f" (default {default})"
            p.add_argument("--" + key.replace("_", "-"), dest=key, required=default is REQUIRED,
                           choices=CHOICES.get(kind), help=text)
    return parser


def _config_from_args(args) -> RunConfig:
    entries = [("--" + key.replace("_", "-"), key, value)
               for key, value in vars(args).items()
               if key in COMMAND_KEYS[args.command] and value is not None]
    return resolve(args.command, entries, "command line")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            if args.command is not None:
                parser.error("give either --config or a subcommand, not both")
            cfg = parse_config(args.config)
        elif args.command is None:
            parser.error("a subcommand or --config is required")
        else:
            cfg = _config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except (IntegrationError, NumericError) as exc:
        print(f"scqsim: numeric failure: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"scqsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"scqsim: I/O failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
