"""Deterministic CSV / JSON serialization of trajectories and feedback runs.

Floats are written with repr(), the shortest representation that round-trips,
so identical runs produce byte-identical files. Lines end with LF.

One cell formatter serves both formats. Rows go out in blocks of BLOCK_ROWS;
within a block each distinct 64-bit pattern is formatted once (repr depends
only on a float's bits), the block's text is assembled by %-formats and
written with one write call.
"""

import json
from typing import IO

import numpy as np

from .errors import MissingDataError
from .evolution import BlochTrajectory
from .lyapunov import LyapunovRun

TRAJECTORY_HEADER = ("t", "x", "y", "z", "sx", "sy", "sz", "norm")
LYAPUNOV_HEADER = ("t", "x", "y", "z", "V", "I", "gamma")

#: rows formatted and written per block; bounds the text held in memory
BLOCK_ROWS = 256

#: how json spells the floats that repr() writes as nan / inf / -inf
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


def _cell_texts(values: np.ndarray, json_style: bool = False) -> np.ndarray:
    """Text of every cell of a float64 array, as an object array of its shape.

    Each distinct bit pattern is formatted once. Bits, not values, decide:
    0.0 and -0.0 compare equal but print differently. ``json_style`` spells
    non-finite cells the way json does.
    """
    uniq, inverse = np.unique(np.ascontiguousarray(values).view(np.int64), return_inverse=True)
    floats = uniq.view(np.float64)
    texts = list(map(repr, floats.tolist()))
    if json_style and not np.isfinite(floats).all():
        texts = [_JSON_NON_FINITE.get(s, s) for s in texts]
    return np.array(texts, dtype=object)[inverse].reshape(values.shape)


def _write_csv(header, columns, stream: IO[str]):
    """CSV with a time column first, one row per sample.

    A row whose values after ``t`` have the same bits as the previous row's
    (a frozen state, a converged or frozen feedback tail) reuses that row's
    text, also when the previous row lies in an earlier block; only ``t`` is
    formatted anew.
    """
    stream.write(",".join(header) + "\n")
    times = columns[0]
    values = np.column_stack(columns[1:])
    n_rows, width = values.shape
    bits = values.view(np.int64)
    fresh = np.ones(n_rows, dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    # the row whose text each row reuses: the last fresh row at or before it
    source = np.maximum.accumulate(np.where(fresh, np.arange(n_rows), 0))
    line_format = "%s," * (width - 1) + "%s\n"
    for start in range(0, n_rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n_rows)
        # the block's fresh rows, and the row its leading repeats reuse
        needed = fresh[start:stop].copy()
        needed[0] = True
        payload = _cell_texts(values[source[start:stop][needed]])
        stamps = _cell_texts(times[start:stop])
        # pairing t with whole lines saves formatting repeated rows again but
        # costs a split and a second format, which a block without repeats
        # does not repay
        if needed.all():  # no repeats: one format over every cell
            cells = np.column_stack((stamps, payload))
            text = ("%s," + line_format) * (stop - start) % tuple(cells.ravel().tolist())
        else:  # each needed row's line once, then every row is t plus its source's line
            lines = (line_format * len(payload) % tuple(payload.ravel().tolist())).splitlines(True)
            pairs = np.column_stack((stamps, np.array(lines, dtype=object)[np.cumsum(needed) - 1]))
            text = "%s,%s" * (stop - start) % tuple(pairs.ravel().tolist())
        stream.write(text)


def _write_json_column(column: np.ndarray, stream: IO[str]):
    """A float array as a json list nested one level deep (indent=2)."""
    if column.size == 0:
        stream.write("[]")
        return
    separator = "[\n    "
    for start in range(0, column.size, BLOCK_ROWS):
        texts = _cell_texts(column[start:start + BLOCK_ROWS], json_style=True).tolist()
        stream.write(separator + ",\n    ".join(texts))
        separator = ",\n    "
    stream.write("\n  ]")


def write_trajectory_csv(traj: BlochTrajectory, stream: IO[str]):
    _write_csv(*_trajectory_columns(traj), stream)


def trajectory_to_dict(traj: BlochTrajectory) -> dict:
    return dict(zip(*_trajectory_columns(traj)))


def write_lyapunov_csv(run: LyapunovRun, stream: IO[str]):
    _write_csv(*_lyapunov_columns(run), stream)


def lyapunov_to_dict(run: LyapunovRun) -> dict:
    data = dict(zip(*_lyapunov_columns(run)))
    data.update(converged=run.converged, final_error=run.final_error)
    return data


def dump_json(data: dict, stream: IO[str]):
    """``json.dump(data, indent=2, sort_keys=True)`` plus a newline, byte for byte.

    Top-level 1-D float64 arrays are written as json lists through the cell
    formatter; every other value goes through json, which refuses other
    arrays.
    """
    separator = "{\n"
    for key in sorted(data):
        value = data[key]
        stream.write(f"{separator}  {json.dumps(key)}: ")
        if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64:
            _write_json_column(value, stream)
        else:
            stream.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
        separator = ",\n"
    stream.write("\n}\n" if data else "{}\n")
