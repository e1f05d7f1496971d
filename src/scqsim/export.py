"""Deterministic CSV / JSON serialization of trajectories and feedback runs.

Floats are written as repr() writes them, the shortest decimal that reads
back to the same double, so identical runs produce byte-identical files.
Lines end with LF.

The text comes from ``floattext.cell_words``, a vectorised Schubfach
formatter (R. Giulietti, "The Schubfach way to render doubles", 2020) that
lays each cell's repr() text out in four uint64 words with NUL padding; one
``bytes.translate`` per write call deletes the padding. A CSV block formats
at most as many cells as BLOCK_ROWS fresh rows hold and goes out BLOCK_ROWS
rows per write. JSON float columns go out in blocks of ``8 * BLOCK_ROWS``
cells.
"""

import json
from typing import IO

import numpy as np

from .errors import MissingDataError
from .evolution import BlochTrajectory
from .lyapunov import LyapunovRun

TRAJECTORY_HEADER = ("t", "x", "y", "z", "sx", "sy", "sz", "norm")
LYAPUNOV_HEADER = ("t", "x", "y", "z", "V", "I", "gamma")

#: fresh CSV rows formatted and written per block; bounds the memory a block takes
BLOCK_ROWS = 256

#: the text before a json list's first item and between its items, as one word
_JSON_OPEN, _JSON_SEPARATOR = np.frombuffer(b"[\n    \0\0,\n    \0\0", dtype="<u8")


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


def _write_csv(header, columns, stream: IO[str]):
    """CSV with a time column first, one row per sample.

    A row whose values after ``t`` have the same bits as the previous row's
    (a frozen state, a converged or frozen feedback tail) reuses that row's
    text, also when the previous row lies in an earlier block; only ``t`` is
    formatted anew. A block formats at most as many cells as BLOCK_ROWS fresh
    rows hold, so a block of repeats spans more rows, and its text goes out
    BLOCK_ROWS rows at a time. Each line is written with its leading newline,
    the header without one.
    """
    from . import floattext  # on first use: its compile time stays out of import

    stream.write(",".join(header))
    times = columns[0]
    values = np.column_stack(columns[1:])
    n_rows, width = values.shape
    bits = values.view(np.int64)
    fresh = np.ones(n_rows, dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    budget = BLOCK_ROWS * (1 + width)  # cells a block formats; every row takes 1 or more
    start = last_fresh = 0
    while start < n_rows:
        # the block's fresh rows, and the last fresh row before them, whose
        # text the block's leading repeats reuse
        needed = fresh[start:start + budget].copy()
        needed[0] = True
        stop = start + max(1, np.searchsorted(np.cumsum(1 + width * needed), budget, "right"))
        needed = needed[:stop - start]
        sources = start + np.flatnonzero(needed)
        if not fresh[start]:
            sources[0] = last_fresh
        last_fresh = sources[-1]
        words = floattext.cell_words(np.concatenate((times[start:stop], values[sources].ravel())))
        stamps, lines = words[:stop - start], words[stop - start:].reshape(-1, width, 4)
        slot = np.cumsum(needed) - 1  # each row's line among the block's
        for part in range(0, stop - start, BLOCK_ROWS):
            rows = slice(part, part + BLOCK_ROWS)
            cells = np.empty((len(slot[rows]), 1 + width, 4), words.dtype)
            cells[:, 0] = stamps[rows]
            cells[:, 1:] = lines[slot[rows]]
            cells[:, 0, 0] |= ord("\n")
            cells[:, 1:, 0] |= ord(",")
            stream.write(floattext.text(cells))
        start = stop
    stream.write("\n")


def _write_json_column(column: np.ndarray, stream: IO[str]):
    """A float array as a json list nested one level deep (indent=2)."""
    from . import floattext

    if column.size == 0:
        stream.write("[]")
        return
    separator = _JSON_OPEN
    step = 8 * BLOCK_ROWS  # as many cells as a CSV block of 8 columns
    for start in range(0, column.size, step):
        block = column[start:start + step]
        cells = np.empty((block.size, 5), _JSON_OPEN.dtype)
        cells[:, 0] = _JSON_SEPARATOR
        cells[0, 0] = separator
        cells[:, 1:] = floattext.cell_words(block, json_style=True)
        stream.write(floattext.text(cells))
        separator = _JSON_SEPARATOR
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
