"""Command-line front end: simulate evolutions, design drives, run experiments.

Exit codes: 0 success, 2 configuration error, 3 numeric/integration failure,
4 I/O failure. All diagnostics go to stderr; results go to --out or stdout.
"""

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from . import export
from .config import RunConfig, config_from_options, format_choices, parse_config
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
    _, plan = design_transfer(cfg.psi0, cfg.psif, cfg.t_final, cfg.params)
    with _output(cfg.out) as stream:
        export.dump_json(plan_to_dict(plan), stream)
    return 0


def run_drive_run(cfg: RunConfig) -> int:
    target, plan = design_transfer(cfg.psi0, cfg.psif, cfg.t_final, cfg.params)
    grid = TimeGrid(0.0, cfg.t_final / cfg.steps, cfg.steps)
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


def _add_common(p, formats):
    p.add_argument("--params", help="qubit parameter file (key = value)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=formats, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scqsim",
        description="Superconducting qubit evolution, drive design and stabilization",
    )
    parser.add_argument("--config", help="run configuration file (instead of a subcommand)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="evolve a state under a static circuit Hamiltonian")
    p.add_argument("--qubit", required=True, choices=["charge", "phase", "flux", "lcjj"])
    p.add_argument("--model", default=None, help="approx | exact2 | fock:N")
    p.add_argument("--psi0", help="initial state 're,im;re,im;...' (default ground state)")
    p.add_argument("--t-final", dest="t_final", type=float, required=True)
    p.add_argument("--dt", type=float, help="sample interval (default t_final/2000); "
                   "t_final must be a whole number of them")

    p = sub.add_parser("design", help="synthesize a drive plan for a state transfer")
    p.add_argument("--qubit", required=True, choices=["charge", "phase", "flux"])
    p.add_argument("--psi0", required=True)
    p.add_argument("--psif", required=True)
    p.add_argument("--tf", type=float, required=True, help="transfer time, s")

    p = sub.add_parser("drive-run",
                       help="design a plan, replay it on the rotating-frame and exact models")
    p.add_argument("--qubit", required=True, choices=["charge", "phase", "flux"])
    p.add_argument("--psi0", required=True)
    p.add_argument("--psif", required=True)
    p.add_argument("--tf", type=float, required=True)
    p.add_argument("--steps", type=int, help="trajectory samples (default 2000)")
    p.add_argument("--substeps", type=int, help="accepted (>= 1), no effect: "
                   "both replays use exact propagators, not a time stepper")

    p = sub.add_parser("lyapunov", help="stabilize the L-C-JJ qubit to a target Bloch state")
    p.add_argument("--r0", required=True, help="initial Bloch vector 'x,y,z'")
    p.add_argument("--rf", required=True, help="target Bloch vector 'x,y,z'")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, help="samples (default 20000)")
    p.add_argument("--integrator", choices=["fixed_rk4", "substepped"])

    for command, p in sub.choices.items():
        _add_common(p, format_choices(command))
    return parser


def _config_from_args(args) -> RunConfig:
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "config")}
    return config_from_options(args.command, options)


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
