#!/usr/bin/env python3
"""Check scqsim.floattext against repr() on seeded random float64 bit patterns.

Usage: python scripts/check_float_text.py

Draws COUNT uniformly random 64-bit patterns (every sign, exponent and
mantissa, NaNs and infinities included) from SEED, CHUNK at a time, and
compares the formatter's text of each, in repr's spelling and in json's, with
repr(). Prints the count checked and each mismatch; exits 1 on any mismatch.
The result does not depend on the platform: it compares text, not
floating-point results. For a shorter run, lower COUNT.
"""

import sys

import numpy as np

from scqsim import floattext

COUNT = 10**7
SEED = 20201127
CHUNK = 2**17
JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def mismatches(values: np.ndarray, json_style: bool):
    """(value bits, repr text, formatter text) of each cell where the two differ."""
    words = floattext.cell_words(values, json_style)
    words[:, 0] |= ord("\n")
    got = floattext.text(words).split("\n")[1:]
    for value, text in zip(values.tolist(), got):
        want = repr(value)
        if json_style:
            want = JSON_SPELLING.get(want, want)
        if text != want:
            yield np.float64(value).view(np.uint64), want, text


def main() -> int:
    rng = np.random.default_rng(SEED)
    checked = failed = 0
    while checked < COUNT:
        size = min(CHUNK, COUNT - checked)
        values = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
        for json_style in (False, True):
            for bits, want, got in mismatches(values, json_style):
                failed += 1
                print(f"mismatch: bits {int(bits):#018x} repr {want!r} formatter {got!r}"
                      f"{' (json)' if json_style else ''}")
        checked += size
    print(f"checked {checked} bit patterns (seed {SEED}), {failed} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
