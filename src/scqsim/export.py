"""Deterministic CSV / JSON serialization of trajectories and feedback runs.

Floats are written as repr() writes them, the shortest decimal that reads
back to the same double, so identical runs produce byte-identical files.
Lines end with LF.

The text comes from ``floattext.cell_words``, a vectorised Schubfach
formatter (R. Giulietti, "The Schubfach way to render doubles", 2020) that
lays each cell's repr() text out in four uint64 words with NUL padding; one
``bytes.translate`` per write call deletes the padding. Each writer formats
blocks of at most BLOCK_CELLS cells in one ``floattext.Workspace`` per file,
the JSON columns of a file in shared blocks, and a write call carries at
most an eighth of a block's cells, which bounds the memory its text takes.
CSV rows that repeat the line before them go out as their ``t`` text with
that one line joined in.
"""

import json
from typing import IO

import numpy as np

from .evolution import BlochTrajectory
from .lyapunov import LyapunovRun

TRAJECTORY_HEADER = ("t", "x", "y", "z", "sx", "sy", "sz", "norm")
LYAPUNOV_HEADER = ("t", "x", "y", "z", "V", "I", "gamma")

#: cells formatted per block: a formatter call costs about 0.25 ms plus 0.2 us
#: per cell, and a block's workspace takes 81 bytes per cell
BLOCK_CELLS = 16384

#: write calls per full block: bounds the memory a write's text takes
_WRITES_PER_BLOCK = 8

#: the text before a json list's first item and between its items, as one word
_JSON_OPEN, _JSON_SEPARATOR = np.frombuffer(b"[\n    \0\0,\n    \0\0", dtype="<u8")


def _trajectory_columns(traj: BlochTrajectory):
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
    text; only ``t`` is formatted anew. A block's first row is formatted in
    full: a repeat has the bits, and so the text, of the row it repeats. A
    block formats at most BLOCK_CELLS cells, at least one row's, so a block
    of repeats spans more rows. Each line is written with its leading
    newline, the header without one. A write part's rows from its last fresh
    row on share one line: their ``t`` text is translated alone and the line
    joined in with ``str.replace``, instead of gathering words per row.
    """
    from . import floattext  # on first use: its compile time stays out of import

    stream.write(",".join(header))
    times, payload = columns[0], columns[1:]
    n_rows, width = len(times), len(payload)
    fresh = np.zeros(n_rows, dtype=bool)
    fresh[:1] = True
    for column in payload:
        bits = column.view(np.int64)
        fresh[1:] |= bits[1:] != bits[:-1]
    fresh_count = np.cumsum(fresh)  # fresh rows up to each row
    cost = np.cumsum(1 + width * fresh)  # cells up to each row, each fresh row's line included
    budget = max(BLOCK_CELLS, 1 + width)
    rows_per_write = max(1, budget // (_WRITES_PER_BLOCK * (1 + width)))
    work = floattext.Workspace(min(budget, cost[-1]) if n_rows else 0)
    start = 0
    while start < n_rows:
        # cells counted before start; a repeated first row's line counts too
        spent = (cost[start - 1] if start else 0) - (0 if fresh[start] else width)
        stop = max(start + 1, np.searchsorted(cost, spent + budget, "right"))
        # the rows whose lines the block formats: its fresh rows and its first
        needed = fresh[start:stop].copy()
        needed[0] = True
        sources = start + np.flatnonzero(needed)
        cells = work.values[:stop - start + width * len(sources)]  # each row's t, then the lines
        cells[:stop - start] = times[start:stop]
        for j, column in enumerate(payload):
            np.take(column, sources, out=cells[stop - start:].reshape(-1, width)[:, j])
        words = floattext.cell_words(cells, work=work)
        stamps, lines = words[:stop - start], words[stop - start:].reshape(-1, width, 4)
        stamps[:, 0] |= ord("\n")
        lines[:, :, 0] |= ord(",")
        for part in range(start, stop, rows_per_write):
            end = min(part + rows_per_write, stop)
            slot = fresh_count[part:end] - fresh_count[start]  # each row's line among the block's
            shared = part + int(np.searchsorted(slot, slot[-1]))  # the rows sharing the last line
            if part < shared:
                text = np.empty((shared - part, 1 + width, 4), words.dtype)
                text[:, 0] = stamps[part - start:shared - start]
                text[:, 1:] = lines[slot[:shared - part]]
                stream.write(floattext.text(text))
            line = floattext.text(lines[slot[-1]])
            stream.write("\n")
            stream.write(floattext.text(stamps[shared - start:end - start])[1:]
                         .replace("\n", line + "\n"))
            stream.write(line)
        start = stop
    stream.write("\n")


def _json_words(columns, work):
    """The json-style words of the columns' cells in order, in pieces of one
    column and block and at most an eighth of a block.

    Blocks of work.size cells run on across columns, so short columns share
    a formatter call. A piece is a view into ``work``, valid until the next.
    """
    from . import floattext

    per_write = max(1, BLOCK_CELLS // _WRITES_PER_BLOCK)
    j, offset = 0, 0
    while j < len(columns):
        pieces, filled = [], 0
        while j < len(columns) and filled < work.size:
            cells = columns[j][offset:offset + work.size - filled]
            work.values[filled:filled + len(cells)] = cells
            pieces.append((filled, filled + len(cells)))
            filled += len(cells)
            offset += len(cells)
            if offset == len(columns[j]):
                j, offset = j + 1, 0
        words = floattext.cell_words(work.values[:filled], json_style=True, work=work)
        for lo, hi in pieces:
            for part in range(lo, hi, per_write):
                yield words[part:min(part + per_write, hi)]


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

    Top-level 1-D float64 arrays are written as json lists nested one level
    deep through the cell formatter, in blocks shared across them; every
    other value goes through json, which refuses other arrays.
    """
    from . import floattext

    keys = sorted(data)
    listed = {key for key in keys if isinstance(data[key], np.ndarray)
              and data[key].ndim == 1 and data[key].dtype == np.float64}
    columns = [data[key] for key in keys if key in listed and data[key].size]
    pieces = _json_words(columns, floattext.Workspace(min(BLOCK_CELLS, sum(map(len, columns)))))
    separator = "{\n"
    for key in keys:
        value = data[key]
        stream.write(f"{separator}  {json.dumps(key)}: ")
        if key not in listed:
            stream.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
        elif not value.size:
            stream.write("[]")
        else:
            lead, written = _JSON_OPEN, 0
            while written < value.size:
                words = next(pieces)
                cells = np.empty((len(words), 5), _JSON_OPEN.dtype)
                cells[:, 0] = _JSON_SEPARATOR
                cells[0, 0] = lead
                cells[:, 1:] = words
                stream.write(floattext.text(cells))
                lead, written = _JSON_SEPARATOR, written + len(words)
            stream.write("\n  ]")
        separator = ",\n"
    stream.write("\n}\n" if data else "{}\n")
