"""One workload in a fresh process: a single closed-loop client calling scqsim.cli.main.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``. The
first thing it does is time ``import scqsim.cli``, the cost every CLI call
pays, between two machine-speed samples. Each run writes a generated config,
calls ``scqsim.cli.main(["--config", ...])`` in-process under a SIGALRM time
limit, and starts the next run when it returns. Config writing, speed
samples and the output check sit outside the timed region. Results go to the
JSON file named by --result; ``--probe`` prints the import time and speed
and exits.
"""

import time

from calibrate import speed_factor

_speed_before = speed_factor()
_import_start = time.perf_counter()
import scqsim.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start
IMPORT_SPEED = (_speed_before + speed_factor()) / 2

import sys  # noqa: E402

if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    print(IMPORT_S, IMPORT_SPEED)
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: an untraced pass runs at least this many cases, so >= 10 lie beyond p90
MIN_RUNS = 100
#: per-run time limit at reference speed (calibrate.py): about ten times the
#: slowest run of any workload, so only a hang reaches it
RUN_LIMIT_S = 5.0


class RunTimeout(BaseException):
    """Raised by the SIGALRM handler; a BaseException so no `except Exception` in scqsim eats it."""


def _on_alarm(signum, frame):
    raise RunTimeout()


def _call_cli(argv, limit_s):
    """(exit code or failure label, seconds, captured stderr) of one CLI call."""
    err = io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stderr(err):
            outcome = scqsim.cli.main(argv)
    except RunTimeout:
        outcome = "timeout"
    except Exception as exc:  # a crash is a failed run, not a benchmark error
        outcome = f"exception:{type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    return outcome, elapsed, err.getvalue()


def _percentile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def run_pass(cases, work_dir, budget_s=None, min_runs=0, tracer=None):
    """Run cases until their timed wall total reaches budget_s and min_runs ran.

    A machine-speed sample is taken before the first run and right after
    every run. Each run's time is also reported scaled by the mean of the
    samples on either side of it, and its time limit (RUN_LIMIT_S) is
    scaled by the one before it.
    """
    records = []
    speeds = [speed_factor()]
    timed = 0.0
    params_path = os.path.join(work_dir, "case.params")
    cfg_path = os.path.join(work_dir, "case.cfg")
    for case in cases:
        if budget_s is not None and timed >= budget_s and len(records) >= min_runs:
            break
        out_path = os.path.join(work_dir, "out" + case.out_suffix)
        with open(params_path, "w") as f:
            f.write(case.params_text())
        with open(cfg_path, "w") as f:
            f.write(case.config_text(out_path, params_path))
        if tracer is not None:
            root = tracer.root(case.index)
        outcome, elapsed, stderr = _call_cli(["--config", cfg_path], RUN_LIMIT_S * speeds[-1])
        if tracer is not None and tracer.stack and tracer.stack[0] is root:
            del tracer.stack[1:]  # spans a timeout cut short
            tracer.close(root)
        speeds.append(speed_factor())
        timed += elapsed
        if outcome == 0:
            reason = checks.check(case, out_path)
        elif isinstance(outcome, int):
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            reason = f"exit {outcome}: {last}"
        else:
            reason = outcome
        speed = (speeds[-2] + speeds[-1]) / 2
        record = {"index": case.index, "label": case.label, "seconds": elapsed,
                  "speed": speed, "scaled_seconds": elapsed / speed, "exit": outcome,
                  "check_failed": outcome == 0 and reason is not None, "ok": reason is None}
        if reason is not None:
            record.update(reason=reason, options=case.options)
        records.append(record)
        for name in os.listdir(work_dir):
            if name.startswith("out"):
                os.remove(os.path.join(work_dir, name))
    return records


def summarize(records, key="scaled_seconds"):
    seconds = [r[key] for r in records]
    passed = sum(r["ok"] for r in records)
    return {
        "runs_per_s": passed / sum(seconds),
        "run_p50_ms": 1e3 * statistics.median(seconds),
        "run_p90_ms": 1e3 * _percentile(seconds, 90),
    }


def layer_metrics(tracer, records, untraced_p50_ms):
    """Per-run means over the traced pass; times scaled to reference speed."""
    n = len(records)
    ms = 1e3 / n / statistics.median(r["speed"] for r in records)
    counters = tracer.counters
    fock = tracer.values["hamiltonians.fock_dim"]
    drift = tracer.values["evolution.drift"]
    converged = tracer.values["lyapunov.converged"]
    root_s = tracer.total_seconds("cli.main")
    root_self = sum(s.self_s for s in tracer.spans if s.name == "cli.main")
    traced_p50_ms = 1e3 * statistics.median(r["scaled_seconds"] for r in records)
    return {
        "cli.self_ms": ms * tracer.self_seconds("cli"),
        "config.parse_ms": ms * tracer.self_seconds("config.parse"),
        "hamiltonians.build_ms": ms * tracer.self_seconds("hamiltonians.build"),
        "hamiltonians.build_fock_ms": ms * tracer.self_seconds("hamiltonians.build_fock"),
        "hamiltonians.fock_dim": statistics.mean(fock) if fock else 0.0,
        "hamiltonians.h_of_t_calls": counters["hamiltonians.h_of_t_calls"] / n,
        "hamiltonians.h_of_t_ms": ms * counters["hamiltonians.h_of_t_s"],
        "evolution.static_ms": ms * tracer.self_seconds("evolution.static"),
        "evolution.static_calls": sum(s.name == "evolution.static" for s in tracer.spans) / n,
        "evolution.rk4_ms": ms * tracer.self_seconds("evolution.rk4"),
        "evolution.rk4_steps": counters["evolution.rk4_steps"] / n,
        "evolution.drift_max": max(drift) if drift else 0.0,
        "evolution.drift_warn_count": counters["evolution.drift_warn_count"] / n,
        "drives.design_ms": ms * tracer.total_seconds("drives.design"),
        "drives.replay_approx_ms": ms * tracer.total_seconds("drives.replay_approx"),
        "drives.replay_exact_ms": ms * tracer.total_seconds("drives.replay_exact"),
        "drives.self_ms": ms * tracer.self_seconds("drives"),
        "lyapunov.loop_fixed_ms": ms * tracer.self_seconds("lyapunov.loop_fixed"),
        "lyapunov.loop_substepped_ms": ms * tracer.self_seconds("lyapunov.loop_substepped"),
        "lyapunov.post_ms": ms * counters["lyapunov.post_s"],
        "lyapunov.post_calls": counters["lyapunov.post_calls"] / n,
        "lyapunov.converged_ratio": (sum(converged) / len(converged)) if converged else 0.0,
        "export.csv_ms": ms * tracer.self_seconds("export.csv"),
        "export.csv_rows": counters["export.csv_rows"] / n,
        "export.csv_bytes": counters["export.csv_bytes"] / n,
        "export.json_ms": ms * tracer.self_seconds("export.json"),
        "export.json_bytes": counters["export.json_bytes"] / n,
        "trace.overhead_ratio": traced_p50_ms / untraced_p50_ms,
        "trace.coverage_ratio": 1.0 - root_self / root_s,
    }


def post_calls_per_loop(tracer, records):
    """(completed loops, loops whose post-processing made 2 calls per sample)."""
    completed = [tracer.per_run[r["index"]] for r in records if r["exit"] == 0]
    loops = [run for run in completed if run["lyapunov.loop_samples"]]
    matching = sum(run["lyapunov.post_calls"] == 2 * run["lyapunov.loop_samples"]
                   for run in loops)
    return len(loops), matching


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:  # the untraced half only sets the base of trace.overhead_ratio
        budget, min_runs = args.seconds / 2, 0
    else:
        budget, min_runs = args.seconds, MIN_RUNS
    records = run_pass(workloads.cases(args.workload, args.seed), args.work_dir,
                       budget, min_runs)
    result = {"import_s": IMPORT_S, "import_speed": IMPORT_SPEED, "runs": records,
              "metrics": summarize(records), "wall_metrics": summarize(records, "seconds")}
    if args.trace:
        stream = workloads.cases(args.workload, args.seed)
        replay = [next(stream) for _ in records]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(replay, args.work_dir, tracer=tracer)
        finally:
            tracer.uninstall()
        result["traced_runs"] = traced
        result["layers"] = layer_metrics(tracer, traced, result["metrics"]["run_p50_ms"])
        result["post_calls_loops"] = post_calls_per_loop(tracer, traced)
        result["skipped_wrappers"] = tracer.skipped
        if args.spans:
            with open(args.spans, "w") as f:
                for record in tracer.records():
                    f.write(json.dumps(record) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
