"""Physics of the shipped reference configs, pinned to stored values.

Each config under configs/ is run through the CLI and its outputs are reduced
to a few numbers: the final Bloch vector, for drive replays the plan fields,
both fidelities and the fidelity gap, and for feedback runs the final error
and the largest |V| and |I|. tests/data/reference_outputs.json holds these
numbers as one commit wrote them; regenerate it only for a change that is
meant to move the physics, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_reference_outputs.py

Tolerances, per path:

* exact (static propagation, exact-propagator replays, closed-form plans):
  1e-10. These paths are one eigendecomposition or formula per sample, so
  only roundoff of a few ulps separates two numpy builds.
* integrated (the Lyapunov loop, 20000 RK4 samples): 1e-9. Roundoff of a
  different numpy or BLAS build enters every step; 20000 steps at 2.2e-16
  bound it near 4e-12 before the contracting loop damps it, and 1e-9 leaves
  over two decades above that.

Values that carry a unit (drive amplitudes, frequencies, times, volts,
amperes) compare relative to the stored value; dimensionless ones (Bloch
components, fidelities, axis components, angles, the final error) compare
absolutely, with the tolerance scaled up only for stored values above 1.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from scqsim.cli import main
from scqsim.config import parse_config

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
REFERENCE = Path(__file__).resolve().parent / "data" / "reference_outputs.json"

TOLERANCE = {"exact": 1e-10, "integrated": 1e-9}
RELATIVE = {"amplitude", "dc_offset", "omega_c_rad_s", "t_f_s", "omega_q_rad_s",
            "max_abs_V", "max_abs_I"}
_PLAN_FIELDS = ("lambda_rad", "amplitude", "dc_offset", "omega_c_rad_s", "t_f_s",
                "n_hat", "omega_q_rad_s")


def _rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def summarize(config: Path, workdir: Path) -> dict:
    """Reduce the outputs a run of ``config`` wrote under ``workdir`` to the pinned values."""
    cfg = parse_config(config)
    out = workdir / cfg.out
    if cfg.command == "simulate":
        return {"path": "exact", "final_bloch": _rows(out)[-1, 1:4].tolist()}
    if cfg.command == "drive-run":
        data = json.loads(out.read_text())
        summary = {"path": "exact", "fidelity_gap": data["fidelity_gap"]}
        summary.update({f"plan.{name}": data["plan"][name] for name in _PLAN_FIELDS})
        for model in ("approximate_rotating", "exact_lab"):
            summary[f"{model}.fidelity"] = data[model]["fidelity"]
            summary[f"{model}.final_bloch"] = data[model]["final_bloch"]
        return summary
    rows = _rows(out)
    return {"path": "integrated",
            "final_bloch": rows[-1, 1:4].tolist(),
            "final_error": float(np.linalg.norm(rows[-1, 1:4] - cfg.rf)),
            "max_abs_V": float(np.abs(rows[:, 4]).max()),
            "max_abs_I": float(np.abs(rows[:, 5]).max())}


def _run(config: Path, workdir: Path) -> dict:
    rc = main(["--config", str(config)])
    if rc != 0:
        raise RuntimeError(f"{config.name} exited {rc}")
    return summarize(config, workdir)


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_matches_reference(config, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative out/ paths land in tmp
    expected = json.loads(REFERENCE.read_text())[config.name]
    actual = _run(config, tmp_path)
    assert actual.keys() == expected.keys()
    assert actual["path"] == expected["path"]
    tol = TOLERANCE[expected["path"]]
    for key, want in expected.items():
        if key == "path":
            continue
        want = np.asarray(want, dtype=float)
        got = np.asarray(actual[key], dtype=float)
        floor = 0.0 if key.split(".")[-1] in RELATIVE else 1.0
        bound = tol * np.maximum(np.abs(want), floor)
        assert np.all(np.abs(got - want) <= bound), (key, got.tolist(), want.tolist())


if __name__ == "__main__":
    reference = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for config in sorted(CONFIG_DIR.glob("*.cfg")):
            reference[config.name] = _run(config, Path(workdir))
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({len(reference)} configs)", file=sys.stderr)
