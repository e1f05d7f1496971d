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
"""

import functools

import numpy as np

_U64 = np.uint64


class _Constants(dict):
    """Read-only 0-d uint64 arrays by value, made on first use: numpy takes
    them as operands with less overhead per call than numpy scalars or
    Python ints (a shift of 256-2048 cells: 0.8-1.3 us against 1.1-1.6 and
    1.2-2.2 us); the fixed-gain feedback CSVs are written about 4% faster."""

    def __missing__(self, value):
        constant = np.array(value, dtype=_U64)
        constant.flags.writeable = False
        self[value] = constant
        return constant


_U = _Constants()
_K_MIN, _K_MAX = -324, 292  # decimal exponents the g table covers
_POINT_MIN, _POINT_MAX = -323, 309  # 5e-324 = 0.5 * 10**-323 ... 1.8e308 = 0.18 * 10**309
_P10 = 10 ** np.arange(18, dtype=_U64)
_NON_FINITE = {False: (b"nan", b"inf"), True: (b"NaN", b"Infinity")}


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 5456721."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_tables():
    """g1, g0 and their 32-bit limbs, each indexed by k + 324 (k = -324..292).

    10**-k = beta * 2**r with 2**125 <= beta < 2**126, g = floor(beta) + 1,
    g = g1 * 2**63 + g0 with g0 < 2**63. Built with Python ints on first use.
    """
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        g = (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g0, g1 & 0xFFFF_FFFF, g1 >> 32, g0 & 0xFFFF_FFFF, g0 >> 32))
    return tuple(np.array(rows, dtype=_U64).T.copy())


def _mul_high(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the 128-bit products of uint64 arrays given as 32-bit limbs."""
    cross1 = a_lo * b_hi
    cross2 = a_hi * b_lo
    middle = a_lo * b_lo
    middle >>= _U[32]
    middle += cross1 & _U[0xFFFF_FFFF]
    middle += cross2 & _U[0xFFFF_FFFF]
    middle >>= _U[32]
    middle += a_hi * b_hi
    cross1 >>= _U[32]
    cross2 >>= _U[32]
    middle += cross1
    middle += cross2
    return middle


def _rop(x1, y0, y1):
    """Schubfach's rop from the high word x1 of g0 * cp and the words y1:y0 of g1 * cp.

    floor(g * cp / 2**127), its lowest bit set if any bit of g * cp from
    2**64 to 2**126 is.
    """
    z = y0 >> _U[1]
    z += x1
    y1 = y1 + (z >> _U[63])
    y1 |= (z << _U[1]) != _U[0]
    return y1


def _neighbour(low, high, g_half, shift, sign):
    """The words (low, high) of product + sign * g_half * 2**shift, from those of product."""
    add_low = g_half << shift
    add_high = g_half >> (_U[64] - shift)
    if sign > 0:
        add_low += low
        add_high += high
        add_high += add_low < low  # carry
    else:
        np.subtract(low, add_low, out=add_low)
        np.subtract(high, add_high, out=add_high)
        add_high -= add_low > low  # borrow
    return add_low, add_high


def _shortest(bits):
    """(f, k): the shortest decimal f * 10**k that reads back to each bit pattern.

    Of two as short, the closer; of two as close, the even one. f may carry
    trailing zeros. Zeros and non-finite patterns give meaningless digits.
    """
    g1s, g0s, g1_los, g1_his, g0_los, g0_his = _g_tables()
    biased = (bits >> _U[52]) & _U[0x7FF]
    c = bits & _U[(1 << 52) - 1]
    # below a power of two the next value down lies half as far as the next one up
    irregular = (c == _U[0]) & (biased > _U[1])
    c |= np.minimum(biased, _U[1]) << _U[52]
    q = np.maximum(biased, _U[1], out=biased).view(np.int64)
    q -= 1075  # value = c * 2**q
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) if irregular
    k = q * 661_971_961_083
    k -= irregular * 274_743_187_321
    k >>= 41
    h = k * -913_124_641_741
    h >>= 38
    h += q
    h += 2  # q + floor(log2(10**-k)) + 2, 1..4
    h = h.view(_U64)
    del q
    row = k - _K_MIN
    odd = (c & _U[1]).astype(bool)  # an even c's interval includes its ends
    # rop of g times cp = 4c << h by 32-bit limbs; those of g times
    # (4c + 2) << h and (4c - 2) << h (4c - 1 if irregular) from it and g shifted
    cp = c
    cp <<= _U[2]
    cp <<= h
    cp_lo, cp_hi = cp & _U[0xFFFF_FFFF], cp >> _U[32]
    up = h
    up += _U[1]
    down = up - irregular
    g0 = g0s[row]
    x0, x1 = g0 * cp, _mul_high(g0_los[row], g0_his[row], cp_lo, cp_hi)
    x1_up = _neighbour(x0, x1, g0, up, +1)[1]
    x1_down = _neighbour(x0, x1, g0, down, -1)[1]
    del g0, x0
    g1 = g1s[row]
    y0, y1 = g1 * cp, _mul_high(g1_los[row], g1_his[row], cp_lo, cp_hi)
    del cp, cp_lo, cp_hi, row
    vbr = _rop(x1_up, *_neighbour(y0, y1, g1, up, +1))
    vbr -= odd
    vbl = _rop(x1_down, *_neighbour(y0, y1, g1, down, -1))
    vbl += odd
    vb = _rop(x1, y0, y1)
    del g1, y0, y1, x1, x1_up, x1_down, up, down, odd
    s = vb >> _U[2]
    # s * 10**k or (s + 1) * 10**k, or one digit shorter a multiple of ten next to s
    sp10 = s // _U[10]
    sp10 *= _U[10]
    upin = vbl <= sp10 << _U[2]
    wpin = (sp10 + _U[10]) << _U[2] <= vbr
    uin = vbl <= s << _U[2]
    win = (s + _U[1]) << _U[2] <= vbr
    del vbl, vbr
    # both in: the closer, ties to even
    middle = s << _U[2]
    middle += _U[2]
    closer_s = (vb < middle) | ((vb == middle) & ((s & _U[1]) == _U[0]))
    s += ~((uin & ~win) | (~(uin ^ win) & closer_s))
    sp10 += ~upin * _U[10]
    np.copyto(s, sp10, where=upin != wpin)
    return s, k


def _eight_digits(x):
    """The 8 decimal digits of each x < 10**8, the most significant in the lowest byte."""
    high = (x * _U[109_951_163]) >> _U[40]  # x // 10**4
    x = high | ((x - high * _U[10_000]) << _U[32])  # two 4-digit lanes
    high = ((x * _U[5243]) >> _U[19]) & _U[0x7F_0000_007F]  # lane // 100
    x = high | ((x - high * _U[100]) << _U[16])  # four 2-digit lanes
    high = ((x * _U[103]) >> _U[10]) & _U[0x000F_000F_000F_000F]  # lane // 10
    return high | ((x - high * _U[10]) << _U[8])


def _last_nonzero_byte(digits):
    """Index of the last nonzero byte of words of 8 digits; negative if all are 0."""
    flags = (digits + _U[0x7F7F_7F7F_7F7F_7F7F]) & _U[0x8080_8080_8080_8080]
    return ((flags.astype(np.float64).view(np.int64) >> 52) - 1030) >> 3


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


def cell_words(values: np.ndarray, json_style: bool = False) -> np.ndarray:
    """The repr() text of each cell in four little-endian uint64 words, NUL-padded.

    Returns shape values.shape + (4,). Byte 0 of each cell is NUL, free for
    the caller's separator; other NULs are padding that ``text`` deletes.
    ``json_style`` spells non-finite cells ``NaN``/``Infinity``/``-Infinity``
    as json does; repr writes ``nan`` (also for a NaN with the sign bit set),
    ``inf`` and ``-inf``.
    """
    (keep, move, dot), classes, prefixes, exponents, plain = _layout()
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(_U64)
    f, k = _shortest(bits)
    n_digits = np.searchsorted(_P10, f, side="right")
    k += n_digits  # value = 0.ddd * 10**k
    f *= _P10[::-1][n_digits]  # 17 digits: 1, then 8 and 8
    del n_digits
    row = np.minimum(np.maximum(k, _POINT_MIN, out=k), _POINT_MAX, out=k)
    row -= _POINT_MIN
    first = f // _U[10**16]
    f -= first * _U[10**16]
    high = f // _U[10**8]
    f -= high * _U[10**8]
    high, low = _eight_digits(high), _eight_digits(f)
    del f
    layout = np.maximum(_last_nonzero_byte(high) + 2, _last_nonzero_byte(low) + 10)
    np.maximum(layout, 1, out=layout)  # significant digits
    layout += classes[row] * 18
    out = np.zeros((bits.size, 4), _U64)
    out[:, 0] = prefixes[row + (bits >> _U[63]).view(np.int64) * len(classes)]
    out[:, 3] = exponents[row]
    del row
    words = [first | (high << _U[8]), (high >> _U[56]) | (low << _U[8]), low >> _U[56]]
    del first, high, low
    carry = 0
    for i in range(3):
        word = words.pop(0)
        word |= _U[0x3030_3030_3030_3030]  # ASCII
        out[:, 1 + i] |= ((word & keep[i][layout])
                         | (((word << _U[8]) | carry) & move[i][layout])
                         | dot[i][layout])
        carry = word >> _U[56]
    special = (bits & _U[0x7FF << 52]) == _U[0x7FF << 52]
    fixed = special | ((bits << _U[1]) == _U[0])
    if fixed.any():
        kind = special[fixed] * (1 + ((bits[fixed] << _U[12]) != 0))  # 0.0, inf, nan
        out[fixed] = plain[json_style][kind + 3 * (bits[fixed] >> _U[63]).view(np.int64)]
    return out.astype("<u8", copy=False).reshape(np.shape(values) + (4,))


def text(words: np.ndarray) -> str:
    """The text of ``cell_words`` output, separators set, its NULs deleted."""
    return words.tobytes().translate(None, b"\0").decode("ascii")
