#!/usr/bin/env python3
"""Hash every output of a fixed list of scqsim runs, to compare two checkouts byte for byte.

Each run is one argv through ``scqsim.cli.main`` in this process, from a fresh
working directory. For each run the script prints

    exit <code> <label>
    sha256 <hex> <label>:stdout
    sha256 <hex> <label>:stderr
    sha256 <hex> <label>:<path>      one line per file the run wrote, by path

The argvs are the shipped configs; 40 seeded draws for each benchmark workload
(free evolution, drive replay, feedback), made by this script's own generator;
design and drive-run on three drive kinds x three transfer times; simulate on
four kinds x four models x CSV and JSON; simulate runs that cross the seams
between the kernel's blocks of states (5,000 steps on exact2 and fock:8, and
25,000 at fock:200); 10 seeded substepped lyapunov runs at desk gains toward
off-axis targets, which move over many samples, and lyapunov JSON from both
integrators; and the argvs of CI's entry-point step. Warnings are
written without their source path, so two checkouts compare by a diff of the
lines they print; the run count and the time taken go to stderr.

Usage: python scripts/output_corpus.py > corpus.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from scqsim.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
SEED = 20201127
DRAWS = 40

KINDS = ("charge", "phase", "flux", "lcjj")
DRIVE_KINDS = ("charge", "phase", "flux")
#: free-evolution horizon per kind, as in the shipped static configs
T_FINAL = {"charge": 5e-12, "phase": 1e-13, "flux": 1e-10, "lcjj": 5e-12}
TRANSFER_TIMES = (1e-12, 3e-10, 1e-9)

#: params files the runs read, written once into the inputs directory
INPUTS = {"cg0.params": "C_g = 0\n", "big.params": "E_c = 1e300\nE_J = 1e300\n",
          "cg.params": "C_g = 1e-310\n"}


def params_args(kind: str) -> list:
    """The shipped parameter file of a kind; lcjj runs on its defaults."""
    path = CONFIGS / "params" / f"{kind}.params"
    return ["--params", str(path)] if path.exists() else []


def state_spec(rng) -> str:
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amps /= np.linalg.norm(amps)
    return ";".join(f"{float(a.real)!r},{float(a.imag)!r}" for a in amps)


def bloch_spec(rng) -> str:
    v = rng.standard_normal(3)
    return ",".join(repr(float(c)) for c in v / np.linalg.norm(v))


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** rng.random())


def free_evolution(rng):
    for i in range(DRAWS):
        kind = KINDS[rng.integers(len(KINDS))]
        model = ("approx", "exact2", f"fock:{rng.integers(8, 41)}")[rng.integers(3)]
        if kind == "lcjj" and model == "approx":
            model = "exact2"
        fmt = "json" if rng.random() < 0.25 else "csv"
        yield f"free_evolution/{i:02d}", [
            "simulate", "--qubit", kind, "--model", model, f"--psi0={state_spec(rng)}",
            "--t-final", repr(T_FINAL[kind]), "--format", fmt, "--out", f"out.{fmt}",
            *params_args(kind)]


def drive_replay(rng):
    for i in range(DRAWS):
        kind = DRIVE_KINDS[rng.integers(len(DRIVE_KINDS))]
        tf = log_uniform(rng, 1e-12, 1e-9)
        steps = round(log_uniform(rng, 200, 2000))
        yield f"drive_replay/{i:02d}", [
            "drive-run", "--qubit", kind, f"--psi0={state_spec(rng)}",
            f"--psif={state_spec(rng)}", "--tf", repr(tf), "--steps", str(steps),
            "--out", "out.json", *params_args(kind)]


def feedback(rng):
    for i in range(DRAWS):
        r0 = bloch_spec(rng)
        if i % 3 == 2:  # physical gains to the pole, adaptive steps
            options = ["--rf=0,0,1", "--alpha", "1e10", "--beta", "5e10", "--dt", "1e-06",
                       "--steps", "20000", "--integrator", "substepped"]
        else:  # desk gains, one RK4 step per sample over 20 s
            dt = log_uniform(rng, 1e-3, 2e-3)
            options = [f"--rf={bloch_spec(rng)}", "--alpha", "2.0", "--beta", "10.0",
                       "--dt", repr(dt), "--steps", str(round(20.0 / dt)),
                       "--integrator", "fixed_rk4"]
        yield f"feedback/{i:02d}", ["lyapunov", f"--r0={r0}", *options, "--out", "out.csv"]


def moving_feedback(rng):
    """Substepped runs that move over many samples, so their rows come from the adaptive
    loop's continuous extension, and JSON output from both integrators."""
    for i in range(10):
        dt = log_uniform(rng, 0.02, 0.1)
        yield f"feedback-moving/{i:02d}", [
            "lyapunov", f"--r0={bloch_spec(rng)}", f"--rf={bloch_spec(rng)}", "--alpha", "2.0",
            "--beta", "10.0", "--dt", repr(dt), "--steps", str(round(20.0 / dt)),
            "--integrator", "substepped", "--out", "out.csv"]
    for integrator in ("fixed_rk4", "substepped"):
        yield f"lyapunov-json/{integrator}", [
            "lyapunov", "--r0=0.6,0,0.8", "--rf=0.6,-0.48,0.64", "--alpha", "2", "--beta", "10",
            "--dt", "0.05", "--steps", "400", "--integrator", integrator, "--format", "json",
            "--out", "out.json"]


def transfers():
    for command in ("design", "drive-run"):
        for kind in DRIVE_KINDS:
            for tf in TRANSFER_TIMES:
                extra = ["--steps", "400"] if command == "drive-run" else []
                yield f"{command}/{kind}/{tf!r}", [
                    command, "--qubit", kind, "--psi0=1,0;0,0", "--psif=0.6,0;0,0.8",
                    "--tf", repr(tf), *extra, "--out", "out.json"]


def simulations():
    for kind in KINDS:
        for model in ("approx", "exact2", "fock:8", "fock:40"):
            for fmt in ("csv", "json"):
                yield f"simulate/{kind}/{model}/{fmt}", [
                    "simulate", "--qubit", kind, "--model", model, "--t-final",
                    repr(T_FINAL[kind]), "--format", fmt, "--out", f"out.{fmt}"]


def block_seams():
    """Runs longer than one block of the propagation kernel (2,048 samples)."""
    for kind in ("charge", "flux"):
        for model in ("exact2", "fock:8"):
            for fmt in ("csv", "json"):
                yield f"seam/{kind}/{model}/{fmt}", [
                    "simulate", "--qubit", kind, "--model", model, "--t-final",
                    repr(T_FINAL[kind]), "--dt", repr(T_FINAL[kind] / 5000), "--format", fmt,
                    "--out", f"out.{fmt}"]
    yield "seam/flux/fock:200/csv", ["simulate", "--qubit", "flux", "--model", "fock:200",
                                     "--t-final", "1e-10", "--dt", "4e-15", "--out", "out.csv"]


def entry_point(inputs: Path):
    """The argvs of CI's entry-point step."""
    yield "entry/help", ["--help"]
    yield "entry/stdout", ["simulate", "--qubit", "charge", "--t-final", "1e-13"]
    for i, args in enumerate((["--t-final", "inf"], ["--t-final=--"],
                              ["--t-final", "1e-13", "--t-final", "2e-13"],
                              ["--model", "approx", "--t-final", "1e-13"],
                              ["--t-final", "5e-324"],
                              ["--model", "fock:3", "--t-final", "1e-13"])):
        kind = "lcjj" if "approx" in args else "charge"
        yield f"entry/refused/{i}", ["simulate", "--qubit", kind, *args]
    for i, args in enumerate((["--alpha", "2", "--dt", "1e-3", "--integrator", "rk45"],
                              ["--alpha", "0", "--dt", "1e-3"],
                              ["--alpha", "2", "--dt", "1e308", "--steps", "2"])):
        yield f"entry/refused-lyapunov/{i}", ["lyapunov", "--r0=0.6,0,0.8", "--rf=0,0,1",
                                              "--beta", "10", *args]
    yield "entry/cg0", ["design", "--qubit", "charge", "--psi0=1,0;0,0", "--psif=0.6,0;0,0.8",
                        "--tf", "1e-12", "--params", str(inputs / "cg0.params")]
    yield "entry/big", ["simulate", "--qubit", "phase", "--t-final", "1e-12",
                        "--params", str(inputs / "big.params")]
    yield "entry/cg", ["lyapunov", "--r0=0.6,0,0.8", "--rf=0,0,1", "--alpha", "2", "--beta",
                       "10", "--dt", "1e-3", "--steps", "10", "--params", str(inputs / "cg.params")]
    yield "entry/fock200", ["simulate", "--qubit", "flux", "--model", "fock:200", "--t-final",
                            "5e-12", "--dt", "1e-16"]
    yield "entry/refused-enum/0", ["simulate", "--qubit", "transmon", "--t-final", "1e-13"]
    yield "entry/refused-enum/1", ["design", "--qubit", "charge", "--psi0=1,0;0,0",
                                   "--psif=0.6,0;0,0.8", "--tf", "1e-12", "--format", "csv"]
    yield "entry/replay-overflow", ["drive-run", "--qubit", "charge", "--psi0=1,0;0,0",
                                    "--psif=0.6,0;0,0.8", "--tf", "1e300", "--steps", "3"]


def all_runs(inputs: Path):
    for config in sorted(CONFIGS.glob("*.cfg")):
        yield f"config/{config.name}", ["--config", str(config)]
    rng = np.random.default_rng(SEED)
    for workload in (free_evolution, drive_replay, feedback):
        yield from workload(rng)
    yield from transfers()
    yield from simulations()
    yield from block_seams()
    yield from moving_feedback(np.random.default_rng(SEED + 1))
    yield from entry_point(inputs)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning without the source path, which differs between checkouts."""
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run_one(label: str, argv: list, workdir: Path) -> list:
    """Output lines of one run made from ``workdir``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # a run's warnings do not depend on earlier runs
        warnings.showwarning = show_warning
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse: --help and refused argvs
            code = exc.code
    lines = [f"exit {code} {label}",
             f"sha256 {digest(stdout.getvalue().encode())} {label}:stdout",
             f"sha256 {digest(stderr.getvalue().encode())} {label}:stderr"]
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        lines.append(f"sha256 {digest(path.read_bytes())} {label}:{path.relative_to(workdir)}")
    return lines


def main() -> int:
    os.environ["COLUMNS"] = "100"  # argparse wraps --help to the terminal width
    start, count, home = time.perf_counter(), 0, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        for name, text in INPUTS.items():
            (inputs / name).write_text(text)
        try:
            for label, argv in all_runs(inputs):
                workdir = Path(tmp) / f"run{count}"
                workdir.mkdir()
                print("\n".join(run_one(label, argv, workdir)), flush=True)
                count += 1
        finally:
            os.chdir(home)
    print(f"{count} runs in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
