#!/usr/bin/env python3
"""Check scqsim.floattext and the CSV/JSON writers against repr() on seeded bit patterns.

Usage: python scripts/check_float_text.py

Draws COUNT uniformly random 64-bit patterns (every sign, exponent and
mantissa, NaNs and infinities included) from SEED, CHUNK at a time, and
compares the formatter's text of each, in repr's spelling and in json's, with
repr(). Each chunk also goes through the writers as one file: a CSV of WIDTH
columns (export._write_csv, every seventh row repeating the previous row's
values after ``t``) and a JSON column (export.dump_json), each spanning
several blocks of export.BLOCK_CELLS cells, compared with the repr texts
joined the way the writers join them. Prints the count checked and each
mismatch; exits 1 on any mismatch. The result does not depend on the
platform: it compares text, not floating-point results. For a shorter run,
lower COUNT.
"""

import io
import sys

import numpy as np

from scqsim import export, floattext

COUNT = 10**7
SEED = 20201127
CHUNK = 2**17
WIDTH = 8
JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def mismatches(values: np.ndarray, texts: list, json_style: bool):
    """(value bits, repr text, formatter text) of each cell where the two differ."""
    words = floattext.cell_words(values, json_style)
    words[:, 0] |= ord("\n")
    got = floattext.text(words).split("\n")[1:]
    for value, want, text in zip(values.tolist(), texts, got):
        if text != want:
            yield np.float64(value).view(np.uint64), want, text


def first_difference(label: str, want: str, got: str):
    """A mismatch line naming the first line where two file texts differ, or None."""
    if want == got:
        return None
    want_lines, got_lines = want.split("\n"), got.split("\n")
    line = next((i for i, (w, g) in enumerate(zip(want_lines, got_lines)) if w != g),
                min(len(want_lines), len(got_lines)))
    return (f"mismatch: {label} line {line}: repr {want_lines[line:line + 1]!r} "
            f"writer {got_lines[line:line + 1]!r}")


def file_mismatches(values: np.ndarray, texts: list, json_texts: list):
    """Mismatch lines of the CSV and the JSON writer on one chunk."""
    grid = values.reshape(-1, WIDTH).copy()
    grid[6::7, 1:] = grid[5::7, 1:]
    text_grid = np.array(texts, dtype=object).reshape(-1, WIDTH)
    text_grid[6::7, 1:] = text_grid[5::7, 1:]
    header = [f"c{j}" for j in range(WIDTH)]
    want = ",".join(header) + "".join("\n" + ",".join(row) for row in text_grid) + "\n"
    stream = io.StringIO()
    export._write_csv(header, list(grid.T), stream)
    yield first_difference("csv", want, stream.getvalue())
    want = '{\n  "v": [\n    ' + ",\n    ".join(json_texts) + "\n  ]\n}\n"
    stream = io.StringIO()
    export.dump_json({"v": values}, stream)
    yield first_difference("json", want, stream.getvalue())


def main() -> int:
    rng = np.random.default_rng(SEED)
    checked = failed = 0
    while checked < COUNT:
        size = min(CHUNK, COUNT - checked)
        values = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
        texts = [repr(v) for v in values.tolist()]
        json_texts = [JSON_SPELLING.get(t, t) for t in texts]
        for json_style, want in ((False, texts), (True, json_texts)):
            for bits, text, got in mismatches(values, want, json_style):
                failed += 1
                print(f"mismatch: bits {int(bits):#018x} repr {text!r} formatter {got!r}"
                      f"{' (json)' if json_style else ''}")
        if size % WIDTH == 0:
            for line in filter(None, file_mismatches(values, texts, json_texts)):
                failed += 1
                print(line)
        checked += size
    print(f"checked {checked} bit patterns (seed {SEED}), {failed} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
