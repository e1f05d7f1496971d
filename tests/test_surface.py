"""Reachability guard: every function and method of ``src/scqsim`` is entered by a command.

A fresh interpreter records, through ``sys.setprofile``, the code object of each
Python call while ``scqsim.cli.main`` runs the shipped configs, ``design`` for
the three drive kinds, ``simulate`` for four kinds x three models as JSON, one
JSON ``lyapunov`` run and one argv the parser refuses. The profile is set before
``scqsim`` is imported, so import-time calls and cached builders count too.
Every ``def`` in the package must show up: code that no command reaches is
deleted, or moved to ``tests/oracles.py`` when tests compare against it. There
is no allowlist. No command loads scipy either: it is a test dependency only.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "scqsim"

TRACER = r"""
import json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
import scqsim.cli
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(scqsim.cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
with open(sys.argv[2], "w") as f:
    json.dump({"package": scqsim.cli.__file__, "codes": codes, "entered": sorted(entered),
               "scipy_loaded": "scipy" in sys.modules}, f)
"""

PSI = {"charge": ("2,0;0,-1", "1,0;2,1"), "phase": ("-2,0;3,-3", "2,0;2,-1"),
       "flux": ("-1,0;0,1", "2,0;1,8")}


def command_set(out: Path) -> list:
    """(argv, expected exit code) of every traced run."""
    runs = [(["--config", str(cfg)], 0) for cfg in sorted((REPO / "configs").glob("*.cfg"))]
    for kind, (psi0, psif) in PSI.items():
        runs.append((["design", "--qubit", kind, f"--psi0={psi0}", f"--psif={psif}",
                      "--tf", "1e-12", "--out", str(out / f"design_{kind}.json")], 0))
    for kind in ("charge", "phase", "flux", "lcjj"):
        for model in ("approx", "exact2", "fock:8"):
            refused = kind == "lcjj" and model == "approx"
            runs.append((["simulate", "--qubit", kind, "--model", model, "--t-final", "1e-13",
                          "--format", "json", "--out", str(out / f"{kind}_{model}.json")],
                         2 if refused else 0))
    runs.append((["lyapunov", "--r0", "0.6,0,0.8", "--rf", "0,0,1", "--alpha", "2", "--beta", "10",
                  "--dt", "1e-3", "--steps", "200", "--format", "json",
                  "--out", str(out / "feedback.json")], 0))
    # refused by the parser: '-0.6,0,0.8' reads as a flag
    runs.append((["lyapunov", "--r0", "-0.6,0,0.8", "--rf", "0,0,1"], 2))
    return runs


def defined_functions() -> list:
    """(path, qualname, first line with decorators, def line) of every def in the package."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((path, name, first, child.lineno))
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path.resolve()), "")
    return found


def test_every_function_is_entered_by_a_command(tmp_path):
    runs = command_set(tmp_path)
    record = tmp_path / "entered.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, "-c", TRACER, json.dumps([argv for argv, _ in runs]),
                    str(record)], cwd=tmp_path, env=env, check=True, capture_output=True)
    data = json.loads(record.read_text())
    assert Path(data["package"]).resolve().parent == PACKAGE.resolve()
    assert data["codes"] == [code for _, code in runs]
    assert data["scipy_loaded"] is False
    entered = {}
    for filename, line, name in data["entered"]:
        entered.setdefault((str(Path(filename).resolve()), name), set()).add(line)
    functions = defined_functions()
    # the walk found the package: cli.main, and a def in every module whose text has one
    assert (str((PACKAGE / "cli.py").resolve()), "main") in {f[:2] for f in functions}
    with_defs = {str(path.resolve()) for path in PACKAGE.glob("*.py")
                 if re.search(r"^\s*(async\s+)?def ", path.read_text(), re.MULTILINE)}
    assert {f[0] for f in functions} == with_defs
    unreached = [f"{Path(path).stem}.{qualname} (line {line})"
                 for path, qualname, first, line in functions
                 if not any(first <= entry <= line
                            for entry in entered.get((path, qualname.rsplit(".", 1)[-1]), ()))]
    assert unreached == [], f"{len(unreached)} functions no command enters: {unreached}"
