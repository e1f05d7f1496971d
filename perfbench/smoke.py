#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload at tiny size untraced and traced, and checks that
the last line names every metric of BENCHMARK.json with its unit. On the
traced runs it checks that spans cover >= 90% of cli.main time, that RK4 has
the largest self time on drive_replay, and that every completed feedback loop
made 2 x (steps + 1) post-processing calls. It feeds each output check a
corrupted output and expects a failure, and it runs the benchmark in a
directory without the program and expects it to refuse. Exit status 0 means
every check passed.
"""

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL:", message)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result_lines(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{label}: correct is {result['correct']}")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label}: metrics/units differ: {set(got) ^ set(wanted)}")
            for name, metric in result["metrics"].items():
                expect(isinstance(metric["value"], (int, float)), f"{label}: {name} not a number")
            if trace:
                check_trace(workload, result["metrics"], proc.stdout.splitlines()[-2])
            print(f"ok   {label}: {result['attempted']} runs, {result['failed']} failed")


def check_trace(workload, metrics, environment_line):
    value = {name: m["value"] for name, m in metrics.items()}
    expect(value["trace.coverage_ratio"] >= 0.9,
           f"{workload}: spans cover {value['trace.coverage_ratio']:.3f} of cli.main")
    if workload == "drive_replay":
        self_times = {name: v for name, v in value.items()
                      if name.endswith("_ms") and name not in (
                          "drives.design_ms", "drives.replay_approx_ms", "drives.replay_exact_ms")}
        top = max(self_times, key=self_times.get)
        expect(top == "evolution.rk4_ms", f"drive_replay: largest self time is {top}")
    if workload == "feedback":
        environment = json.loads(environment_line[len("# environment "):])
        matching, _, loops = environment["post_calls_2x_samples"].split()[:3]
        expect(matching == loops, f"feedback: post calls match 2 x samples in {matching} of "
                                  f"{loops} completed loops")


def _corrupt_csv(path):
    lines = Path(path).read_text().splitlines()
    cells = lines[-1].split(",")
    cells[2] = repr(-float(cells[2]) - 0.5)  # the y (or x) column of the last row
    lines[-1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def _corrupt_json(path):
    data = json.loads(Path(path).read_text())
    if "exact_lab" in data:
        data["exact_lab"]["final_bloch"][0] += 0.1
    else:
        data["y"][-1] = -data["y"][-1] - 0.5
    Path(path).write_text(json.dumps(data))


def check_checks():
    """Each check passes a real output and rejects a corrupted one."""
    sys.path.insert(0, str(ROOT / "src"))
    import scqsim.cli

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        for workload, count in (("free_evolution", 12), ("drive_replay", 3), ("feedback", 4)):
            # one shuffled block: every case family of the workload once
            for case in itertools.islice(workloads.cases(workload, 7), count):
                out = os.path.join(work, "out" + case.out_suffix)
                params = os.path.join(work, "case.params")
                cfg = os.path.join(work, "case.cfg")
                Path(params).write_text(case.params_text())
                Path(cfg).write_text(case.config_text(out, params))
                if scqsim.cli.main(["--config", cfg]) != 0:
                    continue
                verdict = checks.check(case, out)
                expect(verdict is None,
                       f"{case.label} #{case.index}: check rejects a real output: {verdict}")
                (_corrupt_json if case.out_suffix == ".json" else _corrupt_csv)(out)
                expect(checks.check(case, out) is not None,
                       f"{case.label} #{case.index}: check accepts a corrupted output")
                print(f"ok   check {case.label} ({case.out_suffix}) rejects a corrupted output")


def check_refuses_without_program():
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as empty:
        proc = run_bench("free_evolution", 0, cwd=empty)
        expect(proc.returncode != 0, "benchmark ran without the program")
        expect(proc.stdout.strip() == "", "benchmark printed a result without the program")
    print("ok   refuses to run without src/scqsim")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_program()
    check_checks()
    check_result_lines(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
