#!/usr/bin/env python3
"""scqsim benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload free_evolution --seed 1 --seconds 25 --trace 0

Each run takes the program from ``src/`` of the current directory, measures
set-up as the median of seven fresh-process ``import scqsim.cli`` timings, and
runs the workload in its own fresh process (perfbench/worker.py): a single
client in a closed loop, BLAS pinned to one thread. ``--trace 1`` runs an
untraced pass for half the time, replays the same cases with per-layer spans,
and adds ``-X importtime`` figures from fresh processes.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the machine and inputs. Spans, per-run records
and failure reasons are kept under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6          # plus the worker's own import: seven set-up samples
IMPORTTIME_PROBES = 3
WORKER_TIMEOUT_S = 150    # the whole run must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for name in BLAS_ENV:
        env[name] = "1"
    return env


def _python(args, env, **kwargs):
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, **kwargs)


def measure_setup(env, root) -> list:
    """(import seconds, machine speed) from fresh processes, after one that fills the bytecode cache."""
    probe = [str(HERE / "worker.py"), "--probe"]
    _python(probe, env, cwd=root)
    samples = []
    for _ in range(SETUP_PROBES):
        seconds, speed = _python(probe, env, cwd=root).stdout.split()
        samples.append((float(seconds), float(speed)))
    return samples


def parse_importtime(stderr: str) -> dict:
    """Seconds for everything scqsim.cli pulls in, split by top package.

    ``-X importtime`` prints one line per module as it finishes, with self and
    cumulative microseconds and the name indented by nesting depth. numpy and
    scipy take the cumulative time of their outermost entries; scqsim counts
    only its own modules' self time.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(self_us), int(cumulative_us)))
    # lines come children first, so walking them backwards meets parents first
    totals = {"import.total_s": 0, "import.scipy_s": 0, "import.numpy_s": 0,
              "import.scqsim_self_s": 0}
    ancestors = []  # (depth, top package) of the entries enclosing the current one
    for depth, name, self_us, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top == "scqsim":
            totals["import.scqsim_self_s"] += self_us
            if depth == 0:
                totals["import.total_s"] += cumulative_us
        elif top in ("numpy", "scipy") and not any(
                pkg in ("numpy", "scipy") for _, pkg in ancestors):
            totals[f"import.{top}_s"] += cumulative_us
        ancestors.append((depth, top))
    return {key: value / 1e6 for key, value in totals.items()}


def measure_importtime(env, root) -> dict:
    samples = [parse_importtime(_python(["-X", "importtime", "-c", "import scqsim.cli"],
                                        env, cwd=root).stderr)
               for _ in range(IMPORTTIME_PROBES)]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(root, args, result, runs, setup) -> dict:
    """The machine, inputs and unscaled figures behind one result line."""
    import numpy
    import scipy

    record = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "git_commit": git_commit(root), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "blas_env": {name: "1" for name in BLAS_ENV},
        "case_counts": dict(sorted(Counter(r["label"] for r in runs).items())),
        "exit_counts": dict(sorted(Counter(str(r["exit"]) for r in runs).items())),
        "fail_ratio": sum(not r["ok"] for r in runs) / len(runs),
        "speed_median": statistics.median(r["speed"] for r in runs),
        "wall_metrics": result["wall_metrics"],
        "setup_samples_s_speed": setup,
    }
    if args.trace:
        loops, matching = result["post_calls_loops"]
        record["post_calls_2x_samples"] = f"{matching} of {loops} completed loops"
        record["skipped_wrappers"] = result["skipped_wrappers"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scqsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "scqsim" / "cli.py").is_file():
        print(f"perfbench: no src/scqsim/cli.py under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    env = _child_env(root)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        setup = [] if args.trace else measure_setup(env, root)
        result_path = work_dir / "result.json"
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        worker = [str(HERE / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--work-dir", str(work_dir),
                  "--result", str(result_path), "--spans", str(spans_path)]
        try:
            proc = subprocess.run([sys.executable, *worker], env=env, cwd=root,
                                  capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not result_path.is_file():
            sys.stderr.write(proc.stderr[-4000:])
            print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
        imports = measure_importtime(env, root) if args.trace else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    runs = result["traced_runs"] if args.trace else result["runs"]
    correct = not any(r["check_failed"] for r in result["runs"] + runs)
    if args.trace:
        values = dict(result["layers"], **imports)
    else:
        setup.append((result["import_s"], result["import_speed"]))
        values = dict(result["metrics"], peak_rss_mb=result["peak_rss_mb"],
                      setup_s=statistics.median(seconds / speed for seconds, speed in setup))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("# environment " + json.dumps(environment(root, args, result, runs, setup),
                                        sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(runs),
                      "failed": sum(not r["ok"] for r in runs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
