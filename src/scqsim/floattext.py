"""Shortest round-trip text of float64 arrays, byte for byte what repr() writes.

repr() writes the shortest decimal that reads back to the same double (of
two as short, the closer) in one of two layouts: positional when the decimal
point falls at most 16 places after the first digit or 3 zeros before it
(``0.0001``, ``1234567890123456.0``), otherwise ``d[.ddd]e±XX``. This module
writes the same text for a whole array at once, without a Python call per
cell:

- the digits come from Schubfach (R. Giulietti, "The Schubfach way to render
  doubles", 2020; the algorithm of Java's ``Double.toString`` since JDK 19),
  run on ``uint64`` arrays: the decimal exponent from integer logarithms, a
  126-bit g = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1 from a
  617-entry table, its product with the scaled value from 32-bit limbs (the
  products for the two ends of the rounding interval follow by adding g
  shifted), and the choice among the candidate digit strings. Java's rule of
  at least two digits (its ``C_TINY`` path, which writes ``4.9E-324``) is
  left out: repr writes ``5e-324``, and the one-digit-shorter candidates are
  tried for every value;
- each cell's text is laid out in four little-endian ``uint64`` words: a
  separator slot, the sign and a ``0.000`` prefix; then the 17 digits with the
  point inserted, those past the last shown one cleared, and the exponent.
  Digits are converted eight at a time inside a word, the layout comes from
  small word tables, and unused bytes are NUL; deleting the NULs leaves
  repr's text.

The arithmetic runs in a ``Workspace``: buffers for a number of cells,
allocated once and filled through ``out=`` and in-place operations. A
writer that formats a file in blocks makes one workspace for the file, and
no block allocates an array per cell. Table lookups use ``take`` with
``mode="clip"``: every index is in range by construction, and the default
mode's bounds check costs about 0.7 us per call.
"""

import functools

import numpy as np

_U64 = np.uint64


class _Constants(dict):
    """Read-only 0-d arrays of one dtype by value, made on first use: numpy
    takes them as operands with less overhead per call than numpy scalars or
    Python ints (a shift of 256-2048 cells: 0.8-1.3 us against 1.1-1.6 and
    1.2-2.2 us); the fixed-gain feedback CSVs are written about 4% faster."""

    def __init__(self, dtype):
        super().__init__()
        self.dtype = dtype

    def __missing__(self, value):
        constant = np.array(value, dtype=self.dtype)
        constant.flags.writeable = False
        self[value] = constant
        return constant


_U, _I = _Constants(_U64), _Constants(np.int64)
_K_MIN, _K_MAX = -324, 292  # decimal exponents the g table covers
_POINT_MIN, _POINT_MAX = -323, 309  # 5e-324 = 0.5 * 10**-323 ... 1.8e308 = 0.18 * 10**309
_P10 = 10 ** np.arange(18, dtype=_U64)
_P10_DOWN = _P10[::-1].copy()
_SHIFTS = np.uint8(64)
_NON_FINITE = {False: (b"nan", b"inf"), True: (b"NaN", b"Infinity")}


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 5456721."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_tables():
    """g1 and g0, each indexed by k + 324 (k = -324..292).

    10**-k = beta * 2**r with 2**125 <= beta < 2**126, g = floor(beta) + 1,
    g = g1 * 2**63 + g0 with g0 < 2**63. Built with Python ints on first use.
    """
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        g = (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1
        rows.append((g >> 63, g & ((1 << 63) - 1)))
    return tuple(np.array(rows, dtype=_U64).T.copy())


class Workspace:
    """Buffers to format up to ``size`` cells in, allocated once and reused.

    ``cell_words(values, work=work)`` copies the cells into ``values`` (a
    caller may gather them there itself and pass ``work.values[:n]``) and
    returns a view of ``words``, which the next call overwrites. The
    arithmetic runs in ``values`` once each cell's sign and whether it is
    zero or not finite are read, in four more uint64 rows, in ``words``
    while it is not yet written, in five flag rows and four rows of shift
    counts: 81 bytes per cell in all.
    """

    def __init__(self, size: int):
        self.size = size
        self.values = np.empty(size, np.float64)
        self.words = np.empty((size, 4), _U64)
        self._rows = np.empty((4, size), _U64)
        self._flags = np.empty((5, size), bool)
        self._shifts = np.empty((4, size), np.uint8)


def _product(table, row, lo, hi, a, b, t, low, carry):
    """The words of table[row] * (hi * 2**32 + lo) for hi < 2**27: the low one
    into ``low``, the high one into ``b``.

    a, b and t are scratch; ``low`` may be ``hi``, which is then overwritten.
    """
    table.take(row, out=t, mode="clip")
    np.bitwise_and(t, _U[0xFFFF_FFFF], out=a)
    np.right_shift(t, _U[32], out=b)
    np.multiply(b, lo, out=t)
    b *= hi
    np.multiply(a, hi, out=low)
    a *= lo
    t += low  # the cross terms, below 2**64 as hi < 2**27
    np.left_shift(t, _U[32], out=low)
    low += a
    t >>= _U[32]
    b += t
    b += np.less(low, a, out=carry)  # carry out of the low word
    return low, b


def _neighbour(low, high, g, shift, back, sign, out_low, out_high, carry):
    """The words (out_low, out_high) of (low, high) + sign * g * 2**shift; back = 64 - shift."""
    np.left_shift(g, shift, out=out_low)
    np.right_shift(g, back, out=out_high)
    if sign > 0:
        out_low += low
        out_high += high
        out_high += np.less(out_low, low, out=carry)
    else:
        np.subtract(low, out_low, out=out_low)
        np.subtract(high, out_high, out=out_high)
        out_high -= np.greater(out_low, low, out=carry)


def _rop(x1, y0, y1, z, out, flag):
    """Schubfach's rop, into ``out``, from the high word x1 of g0 * cp and the
    words y1:y0 of g1 * cp.

    floor(g * cp / 2**127), its lowest bit set if any bit of g * cp from
    2**64 to 2**126 is. z is scratch and may be y0; out may be x1.
    """
    np.right_shift(y0, _U[1], out=z)
    z += x1
    np.right_shift(z, _U[63], out=out)
    out += y1
    z <<= _U[1]
    out |= np.not_equal(z, _U[0], out=flag)


def _shortest(bits, rows, words, flags, shifts):
    """(f, k): the shortest decimal f * 10**k that reads back to each bit pattern.

    Of two as short, the closer; of two as close, the even one. f may carry
    trailing zeros. Zeros and non-finite patterns give meaningless digits.
    f goes to ``bits`` and k (int64) to rows[1]; the other rows, the words
    rows, flags and shifts are scratch.
    """
    g1s, g0s = _g_tables()
    r0, r1, r2, r3, r4 = bits, *rows
    w0, w1, w2, w3 = words
    irregular, odd, carry, flag = flags
    up, down, up_back, down_back = shifts
    c, biased = r0, r1
    np.right_shift(bits, _U[52], out=biased)
    biased &= _U[0x7FF]
    c &= _U[(1 << 52) - 1]
    # below a power of two the next value down lies half as far as the next one up
    np.equal(c, _U[0], out=irregular)
    irregular &= np.greater(biased, _U[1], out=carry)
    np.minimum(biased, _U[1], out=r3)
    r3 <<= _U[52]
    c |= r3
    q = np.maximum(biased, _U[1], out=biased).view(np.int64)
    q -= _I[1075]  # value = c * 2**q
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) if irregular
    k = np.multiply(q, _I[661_971_961_083], out=r2.view(np.int64))
    np.subtract(k, _I[274_743_187_321], out=k, where=irregular)
    k >>= _I[41]
    h = np.multiply(k, _I[-913_124_641_741], out=r3.view(np.int64))
    h >>= _I[38]
    h += q
    h += _I[2]  # q + floor(log2(10**-k)) + 2, 1..4
    np.add(h, 1, out=up, casting="unsafe")
    np.subtract(up, irregular, out=down)
    np.subtract(_SHIFTS, up, out=up_back)
    np.subtract(_SHIFTS, down, out=down_back)
    np.bitwise_and(c, _U[1], out=r1)
    np.not_equal(r1, _U[0], out=odd)  # an even c's interval includes its ends
    # rop of g times cp = 4c << h, cp in 32-bit halves lo and hi; those of g
    # times (4c + 2) << h and (4c - 2) << h (4c - 1 if irregular) from it and
    # g shifted
    c <<= _U[2]
    c <<= h.view(_U64)
    lo, hi = r1, r0
    np.bitwise_and(c, _U[0xFFFF_FFFF], out=lo)
    hi >>= _U[32]
    row = k
    row -= _I[_K_MIN]
    x0, x1 = _product(g0s, row, lo, hi, w0, w1, r3, w2, carry)
    g0 = g0s.take(row, out=r3, mode="clip")
    x1_up, x1_down = w3, r4
    _neighbour(x0, x1, g0, up, up_back, +1, w0, x1_up, carry)
    _neighbour(x0, x1, g0, down, down_back, -1, w0, x1_down, carry)
    y0, y1 = _product(g1s, row, lo, hi, w0, w2, r3, hi, carry)
    vb, vbr, vbl = x1, x1_up, x1_down
    _rop(x1, y0, y1, r1, vb, flag)
    g1 = g1s.take(row, out=r3, mode="clip")
    _neighbour(y0, y1, g1, up, up_back, +1, r1, w0, carry)
    _rop(x1_up, r1, w0, r1, vbr, flag)
    vbr -= odd
    _neighbour(y0, y1, g1, down, down_back, -1, r1, w0, carry)
    _rop(x1_down, r1, w0, r1, vbl, flag)
    vbl += odd
    s, sp10, t = r0, r1, r3
    np.right_shift(vb, _U[2], out=s)
    # s * 10**k or (s + 1) * 10**k, or one digit shorter a multiple of ten next to s
    np.floor_divide(s, _U[10], out=sp10)
    sp10 *= _U[10]
    uin, win, closer, tie = flags
    np.left_shift(s, _U[2], out=t)
    np.less_equal(vbl, t, out=uin)
    t += _U[2]  # the middle of s and s + 1
    np.less(vb, t, out=closer)
    np.equal(vb, t, out=tie)
    t += _U[2]
    np.less_equal(t, vbr, out=win)
    # one of s and s + 1 in: that one; both or neither: the closer, ties to even
    np.bitwise_and(s, _U[1], out=t)
    t ^= _U[1]
    np.logical_and(tie, t, out=tie)
    closer |= tie
    np.not_equal(uin, win, out=tie)
    np.copyto(closer, uin, where=tie)
    s += np.logical_not(closer, out=closer)
    not_upin, wpin = uin, win
    np.left_shift(sp10, _U[2], out=t)
    np.greater(vbl, t, out=not_upin)
    t += _U[40]
    np.less_equal(t, vbr, out=wpin)
    np.add(sp10, _U[10], out=sp10, where=not_upin)
    np.copyto(s, sp10, where=np.equal(not_upin, wpin, out=tie))
    row += _I[_K_MIN]
    return s, row


def _eight_digits(x, t, u):
    """The 8 decimal digits of each x < 10**8, in place, the most significant in
    the lowest byte; t and u are scratch."""
    np.multiply(x, _U[109_951_163], out=t)
    t >>= _U[40]  # x // 10**4
    np.multiply(t, _U[10_000], out=u)
    x -= u
    x <<= _U[32]
    x |= t  # two 4-digit lanes
    np.multiply(x, _U[5243], out=t)
    t >>= _U[19]
    t &= _U[0x7F_0000_007F]  # lane // 100
    np.multiply(t, _U[100], out=u)
    x -= u
    x <<= _U[16]
    x |= t  # four 2-digit lanes
    np.multiply(x, _U[103], out=t)
    t >>= _U[10]
    t &= _U[0x000F_000F_000F_000F]  # lane // 10
    np.multiply(t, _U[10], out=u)
    x -= u
    x <<= _U[8]
    x |= t


def _last_nonzero_byte(digits, out, t):
    """Index of the last nonzero byte of words of 8 digits, into ``out`` (as
    int64); negative if all are 0. t is scratch."""
    np.add(digits, _U[0x7F7F_7F7F_7F7F_7F7F], out=t)
    t &= _U[0x8080_8080_8080_8080]
    np.copyto(out.view(np.float64), t, casting="unsafe")
    index = out.view(np.int64)
    index >>= _I[52]
    index -= _I[1030]
    index >>= _I[3]
    return index


def _words(texts, offset=0):
    """Little-endian uint64 words of byte strings, each placed at byte ``offset``."""
    return np.frombuffer(b"".join((b"\0" * offset + t).ljust(8, b"\0") for t in texts),
                         dtype="<u8").astype(_U64)


@functools.cache
def _layout():
    """Word tables of the layout, built on first use.

    Per layout class (0: point before the first digit, 1..16: point after
    that many digits, 17: exponent form) and count of significant digits
    (0..17), three words each of: the bytes that keep their digit, the bytes
    that take the digit before them, and the point. Per point position and
    sign: the separator slot, sign and ``0.000`` prefix. Per point position:
    its layout class, and the exponent in bytes 2..6 of the third body word.
    Per json style: the words of zeros, infinities and NaNs.
    """
    keep, move, dot = [], [], []
    for cls in range(18):
        for n in range(18):
            point = 1 if cls == 17 and n > 1 else cls if 0 < cls < 17 else 24
            shown = max(n, point + 1) if 0 < cls < 17 else n
            keep.append(bytes(255 * (j < min(point, shown)) for j in range(24)))
            move.append(bytes(255 * (point < j <= shown) for j in range(24)))
            dot.append(bytes(46 * (j == point) for j in range(24)))
    tables = [tuple(_words([row[i:i + 8] for row in rows]) for i in (0, 8, 16))
              for rows in (keep, move, dot)]
    points = range(_POINT_MIN, _POINT_MAX + 1)
    classes = np.array([max(p, 0) if -3 <= p <= 16 else 17 for p in points])
    prefixes = _words([sign + (b"0." + b"0" * -p if -3 <= p <= 0 else b"")
                       for sign in (b"\0", b"-") for p in points], offset=1)
    exponents = _words([b"" if -3 <= p <= 16 else b"e%+03d" % (p - 1) for p in points],
                       offset=2)
    plain = {}
    for json_style, (nan, inf) in _NON_FINITE.items():
        signs = [b"\0", b"\0", b"\0", b"-", b"-", b"\0"]  # a NaN prints no sign
        texts = [b"0.0", inf, nan] * 2
        plain[json_style] = np.stack([_words(signs, offset=1), _words(texts),
                                      np.zeros(6, _U64), np.zeros(6, _U64)], axis=1)
    return tables, classes, prefixes, exponents, plain


def cell_words(values: np.ndarray, json_style: bool = False,
               work: Workspace | None = None) -> np.ndarray:
    """The repr() text of each cell in four little-endian uint64 words, NUL-padded.

    Returns shape values.shape + (4,). Byte 0 of each cell is NUL, free for
    the caller's separator; other NULs are padding that ``text`` deletes.
    ``json_style`` spells non-finite cells ``NaN``/``Infinity``/``-Infinity``
    as json does; repr writes ``nan`` (also for a NaN with the sign bit set),
    ``inf`` and ``-inf``. ``work`` is a workspace of at least values.size
    cells; the words are then a view into it, valid until its next use.
    Without one, a workspace of values.size cells is made.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if work is None:
        work = Workspace(n)
    work.values[:n] = values.reshape(-1)
    bits = work.values[:n].view(_U64)
    rows, flags = work._rows[:, :n], work._flags[:, :n]
    (keep, move, dot), classes, prefixes, exponents, plain = _layout()
    r0, r1, r2, r3, r4 = bits, *rows
    # zeros and non-finite cells take fixed words; bits is scratch from here on
    sign, special, fixed = flags[4], flags[0], flags[1]
    np.less(bits.view(np.int64), 0, out=sign)
    np.bitwise_and(bits, _U[0x7FF << 52], out=r1)
    np.equal(r1, _U[0x7FF << 52], out=special)
    np.left_shift(bits, _U[1], out=r1)
    np.equal(r1, _U[0], out=fixed)
    fixed |= special
    any_fixed = fixed.any()
    if any_fixed:
        fixed_at = np.flatnonzero(fixed)
        kind = special[fixed_at] * (1 + ((bits[fixed_at] << _U[12]) != 0))  # 0.0, inf, nan
        fixed_words = plain[json_style][kind + 3 * sign[fixed_at]]
    scratch = work.words.reshape(-1)[:4 * n].reshape(4, n)  # unused until the words are written
    f, k = _shortest(bits, rows, scratch, flags[:4], work._shifts[:, :n])
    w0, w1, w2, w3 = scratch
    # digit count: t - (f < 10**t) + 1 for t = floor(bit length * log10(2)),
    # the bit length from the exponent of f as a double
    n_digits = r1.view(np.int64)
    np.copyto(r1.view(np.float64), f, casting="unsafe")
    n_digits >>= _I[52]
    n_digits -= _I[1022]
    n_digits *= _I[1233]
    n_digits >>= _I[12]
    n_digits -= np.less(f, _P10.take(n_digits, out=r3, mode="clip"), out=flags[0])
    n_digits += _I[1]
    k += n_digits  # value = 0.ddd * 10**k
    f *= _P10_DOWN.take(n_digits, out=r3, mode="clip")  # 17 digits: 1, then 8 and 8
    row = np.maximum(k, _I[_POINT_MIN], out=k)
    np.minimum(row, _I[_POINT_MAX], out=row)
    row -= _I[_POINT_MIN]
    first, high, low = r1, r3, f
    np.floor_divide(f, _U[10**16], out=first)
    np.multiply(first, _U[10**16], out=high)
    f -= high
    np.floor_divide(f, _U[10**8], out=high)
    np.multiply(high, _U[10**8], out=r4)
    f -= r4
    _eight_digits(high, r4, w0)
    _eight_digits(low, r4, w0)
    layout = _last_nonzero_byte(high, r4, w0)
    layout += _I[2]
    layout_low = _last_nonzero_byte(low, w1, w0)
    layout_low += _I[10]
    np.maximum(layout, layout_low, out=layout)
    np.maximum(layout, _I[1], out=layout)  # significant digits
    class_row = classes.take(row, out=w0.view(np.int64), mode="clip")
    class_row *= _I[18]
    layout += class_row
    # the body: first | high << 8, high >> 56 | low << 8, low >> 56
    np.left_shift(high, _U[8], out=w0)
    first |= w0
    high >>= _U[56]
    np.left_shift(low, _U[8], out=w0)
    high |= w0
    low >>= _U[56]
    body, carry = (first, high, low), w3
    for i, word in enumerate(body):
        word |= _U[0x3030_3030_3030_3030]  # ASCII
        keep[i].take(layout, out=w0, mode="clip")
        w0 &= word
        np.left_shift(word, _U[8], out=w1)
        if i:
            w1 |= carry
        w1 &= move[i].take(layout, out=w2, mode="clip")
        w0 |= w1
        w0 |= dot[i].take(layout, out=w2, mode="clip")
        np.right_shift(word, _U[56], out=carry)
        np.copyto(word, w0)
    sign_row = np.multiply(sign, _I[len(classes)], out=r4.view(np.int64))
    sign_row += row
    out = work.words[:n]  # from here on the scratch words are overwritten
    out[:, 1] = first
    out[:, 2] = high
    exponent = exponents.take(row, out=r1, mode="clip")
    exponent |= low
    out[:, 3] = exponent
    out[:, 0] = prefixes.take(sign_row, out=r3, mode="clip")
    if any_fixed:
        out[fixed_at] = fixed_words
    return out.astype("<u8", copy=False).reshape(values.shape + (4,))


def text(words: np.ndarray) -> str:
    """The text of ``cell_words`` output, separators set, its NULs deleted."""
    return words.tobytes().translate(None, b"\0").decode("ascii")
