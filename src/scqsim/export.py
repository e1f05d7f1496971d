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


def _lyapunov_columns(run: LyapunovRun):
    traj = run.trajectory
    columns = [traj.times, traj.bloch[:, 0], traj.bloch[:, 1], traj.bloch[:, 2],
               run.V_series, run.I_series, run.gamma_series]
    return list(LYAPUNOV_HEADER), columns


def _columns_to_dict(header, columns) -> dict:
    return {name: col.tolist() for name, col in zip(header, columns)}


def _write_csv(header, columns, stream: IO[str]):
    """CSV with a time column first, one row per sample.

    A row whose values after ``t`` have the same bits as the previous row's
    (a frozen state, a converged or frozen feedback tail) reuses that row's
    formatted text; only ``t`` is formatted anew. Comparing bits, not values,
    keeps 0.0 and -0.0 apart, whose reprs differ.
    """
    stream.write(",".join(header) + "\n")
    values = np.column_stack(columns[1:])
    bits = values.view(np.int64)
    repeats = [False] + (bits[1:] == bits[:-1]).all(axis=1).tolist()
    tail = ""
    for t, row, repeat in zip(columns[0].tolist(), values, repeats):
        if not repeat:
            tail = ",".join(map(repr, row.tolist()))
        stream.write(repr(t) + "," + tail + "\n")


def write_trajectory_csv(traj: BlochTrajectory, stream: IO[str]):
    _write_csv(*_trajectory_columns(traj), stream)


def trajectory_to_dict(traj: BlochTrajectory) -> dict:
    return _columns_to_dict(*_trajectory_columns(traj))


def write_lyapunov_csv(run: LyapunovRun, stream: IO[str]):
    _write_csv(*_lyapunov_columns(run), stream)


def lyapunov_to_dict(run: LyapunovRun) -> dict:
    data = _columns_to_dict(*_lyapunov_columns(run))
    data.update(converged=run.converged, final_error=run.final_error)
    return data


def dump_json(data: dict, stream: IO[str]):
    json.dump(data, stream, indent=2, sort_keys=True)
    stream.write("\n")
