"""Deterministic CSV / JSON serialization of trajectories and feedback runs.

Floats are written with repr(), the shortest representation that round-trips,
so identical runs produce byte-identical files. Lines end with LF.
"""

import json
from typing import IO

import numpy as np

from .errors import MissingDataError
from .evolution import BlochTrajectory
from .lyapunov import LyapunovRun

TRAJECTORY_HEADER = ("t", "x", "y", "z", "sx", "sy", "sz", "norm")
LYAPUNOV_HEADER = ("t", "x", "y", "z", "V", "I", "gamma")


def fmt(x) -> str:
    return repr(float(x))


def _trajectory_columns(traj: BlochTrajectory):
    if traj.norms is None:
        raise MissingDataError("trajectory has no norm series to export")
    columns = [traj.times, traj.bloch[:, 0], traj.bloch[:, 1], traj.bloch[:, 2],
               traj.expectations["sx"], traj.expectations["sy"],
               traj.expectations["sz"], traj.norms]
    header = list(TRAJECTORY_HEADER)
    if traj.leakage is not None:
        columns.append(traj.leakage)
        header.append("leakage")
    return header, columns


def write_trajectory_csv(traj: BlochTrajectory, stream: IO[str]):
    header, columns = _trajectory_columns(traj)
    stream.write(",".join(header) + "\n")
    for row in zip(*columns):
        stream.write(",".join(fmt(v) for v in row) + "\n")


def trajectory_to_dict(traj: BlochTrajectory) -> dict:
    header, columns = _trajectory_columns(traj)
    return {name: [float(v) for v in col] for name, col in zip(header, columns)}


def write_lyapunov_csv(run: LyapunovRun, stream: IO[str]):
    """CSV of a feedback run, one row per sample.

    A row whose six state and control values have the same bits as the
    previous row's (a converged or frozen tail) reuses that row's formatted
    text; only ``t`` is formatted anew. Comparing bits, not values, keeps
    0.0 and -0.0 apart, whose reprs differ.
    """
    stream.write(",".join(LYAPUNOV_HEADER) + "\n")
    values = np.column_stack((run.trajectory.bloch, run.V_series, run.I_series,
                              run.gamma_series))
    bits = values.view(np.int64)
    repeats = [False] + (bits[1:] == bits[:-1]).all(axis=1).tolist()
    tail = ""
    for t, row, repeat in zip(run.trajectory.times.tolist(), values, repeats):
        if not repeat:
            tail = ",".join(map(repr, row.tolist()))
        stream.write(repr(t) + "," + tail + "\n")


def lyapunov_to_dict(run: LyapunovRun) -> dict:
    traj = run.trajectory
    return {
        "t": [float(v) for v in traj.times],
        "x": [float(v) for v in traj.bloch[:, 0]],
        "y": [float(v) for v in traj.bloch[:, 1]],
        "z": [float(v) for v in traj.bloch[:, 2]],
        "V": [float(v) for v in run.V_series],
        "I": [float(v) for v in run.I_series],
        "gamma": [float(v) for v in run.gamma_series],
        "converged": run.converged,
        "final_error": run.final_error,
    }


def dump_json(data: dict, stream: IO[str]):
    json.dump(data, stream, indent=2, sort_keys=True)
    stream.write("\n")
