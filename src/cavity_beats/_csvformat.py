"""CSV lines for blocks of doubles, byte for byte what "%.17g" writes.

`format_rows` turns a (rows, columns) float64 block into comma-separated
lines. A value with 1e-290 <= |x| <= 1e290 is scaled to the 17-digit
integer D = round(|x| * 10**(16 - X)), X the decimal exponent "%.17g"
prints: floor(e log10 2) from the binary exponent e, plus one where |x|
reaches the least double that rounds up to 10**(X + 1). 10**(16 - X) is
held as a double-double hi + lo, and |x| * hi is taken with Dekker's
product (about 2**-104 relative error, far inside the 1e-6 margin below).
+-0 comes out of the same tables. Every other value -- NaN, +-inf, the far
ends of the range, and any value whose scaled fraction lies within 1e-6 of
an integer or of 1/2, where the rounding could come out either way -- is
formatted by "%.17g" itself.

Each value gets a 24-byte cell built from table words that already hold
NUL wherever "%.17g" prints nothing. A cell starts with its separator: a
comma, a newline where a row starts, NUL for the block's first value. In
fixed notation (-4 <= X <= 16) bytes 0-7 hold the separator, the sign, the
"0." to "0.000" of 1e-4 <= |x| < 1, the leading digit and the point, and
bytes 8-23 four groups of four digits, a group that only zero groups follow
with its trailing zeros as NUL; X = 1..15 then rotates the point from byte
7 to byte 7 + X. In exponent notation bytes 0-3 hold the separator, the
sign, the leading digit and the point, the groups move to bytes 4-19 and
the two-digit exponent fills bytes 20-23. A block that holds a value of
three exponent digits (|X| >= 100, or a "%.17g" text of 24 bytes) takes
32-byte cells from the same code, the exponent in bytes 20-31. The cells
are built in a bytearray the caller may own and reuse, one translate drops
the NUL bytes, and the block's last newline is appended. The tables are
built from exact integers on first use, never at import.

Working memory is held to about 70 bytes per value besides the caller's
buffer (tracemalloc peak of a 1024 x 8 block: 64 to 76 bytes, the lines
returned included): no step holds more than seven arrays of 8-byte items
at once. Each step writes into an array it already holds, with the
floating-point operations in the order of the plain expressions, so no byte
of output depends on it, and the large arrays are dropped once read. This
matters because glibc gives the top of the heap back to the system once
more than its trim threshold lies free there, and a block whose arrays
reach past that point faults every page back in on the next call. In a
reduced-scan pass of bench/run.py an 801-row block of 8 columns stays
below that point at 70 bytes per value and crosses it at 140 (900 KB).
"""

from __future__ import annotations

import functools
import math

import numpy as np

LOW, HIGH = 1e-290, 1e290  # the fast path's range of |x|
X_MIN, X_MAX = -292, 292  # decimal exponents the tables cover
MARGIN = 1e-6  # scaled fractions this close to 0, 1/2 or 1 take "%.17g"
CELL = 24  # bytes per value, the separator first; a three-digit exponent takes 8 more


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """Tables by binary exponent e and by X.

    estimate[e + 1023] = floor(e log10 2) - X_MIN is X - X_MIN or one less
    (e * 78913 >> 18 is exact for every e of a double; e = -1023, the zeros,
    gets X = 0). tens[X - X_MIN] is the least double that rounds up to
    10**(X + 1) at 17 digits. hi, top, bottom and lo by X - X_MIN, one table
    each, give 10**(16 - X) = hi + lo and hi's top and bottom 26-bit halves;
    the halves split hi's integer mantissa, since splitting 1e308 by a
    multiplication would overflow.
    """
    estimate = np.clip(np.arange(-1023, 1025) * 78913 >> 18, X_MIN, X_MAX) - X_MIN
    estimate[0] = -X_MIN
    tens, rows = [], []
    for x in range(X_MIN, X_MAX + 1):
        # 10**(x + 1) - 10**(x - 16) / 2 = num / den
        num, den = (2 * 10**17 - 1) * 10**max(x - 16, 0), 2 * 10**max(16 - x, 0)
        ten = num / den  # correctly rounded
        n, d = ten.as_integer_ratio()
        tens.append(ten if n * den >= num * d else math.nextafter(ten, math.inf))
        p = 16 - x
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        s = num.bit_length() - den.bit_length() - 110  # m below has 109-111 bits
        num, den = (num << -s, den) if s < 0 else (num, den << s)
        q, r = divmod(num, den)
        m = q + (2 * r >= den)
        h = int(float(m))  # m rounded to 53 bits
        cut = h.bit_length() - 26
        top = (h + (1 << cut - 1)) >> cut << cut  # h rounded to 26 bits
        rows.append([math.ldexp(float(v), s) for v in (h, top, h - top, m - h)])
    return estimate, np.array(tens), *np.array(rows).T.copy()


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Cell words and, by X, the head offset, notation and exponent.

    head[40 k + 20 sign + 2 lead + point], k = -X for X = -1..-4, else 0, is
    the fixed notation head; short[20 sign + 2 lead + point] the exponent
    notation head. quads[g] is "%04d" % g, quads[10000 + g] the same with
    trailing zeros NUL. notation by X: 0 fixed, 1 fixed with the point
    rotated, 2 exponent, 3 exponent of three digits.
    """
    head = np.zeros(256, np.uint64)  # a bad value's uint8 index may run past 200
    head[:200] = np.frombuffer(b"".join(
        b"," + b"\0-"[s:s + 1]
        + (b"0.000"[:k + 1].rjust(5, b"\0") + b"%d" % d if k else b"\0\0\0\0%d" % d + b"\0."[p:p + 1])
        for k in range(5) for s in (0, 1) for d in range(10) for p in (0, 1)), np.uint64)
    short = np.zeros(64, np.uint32)  # a bad value's index may run past 40
    short[:40] = np.frombuffer(b"".join(
        b"," + b"\0-"[s:s + 1] + b"%d" % d + b"\0."[p:p + 1]
        for s in (0, 1) for d in range(10) for p in (0, 1)), np.uint32)
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    quads = np.concatenate([digits, digits * kept]).view(np.uint32).ravel()
    xs = range(X_MIN, X_MAX + 1)
    base = np.array([-40 * x if -4 <= x < 0 else 0 for x in xs], np.uint8)
    notation = np.array([(0 < x < 16) + 2 * (not -4 <= x < 17) + (abs(x) >= 100) for x in xs], np.uint8)
    # the exponent's text in three words; the first holds a two-digit one whole
    expo = np.frombuffer(b"".join((b"" if -4 <= x < 17 else b"e%+03d" % x).ljust(12, b"\0") for x in xs),
                         np.uint32).reshape(len(xs), 3)
    return head, short, quads, base, notation, expo


def _scaled(a):
    """X - X_MIN, D = round(|a| * 10**(16 - X)) half up, and the scaled fraction plus 1/2.

    +-0 and the values outside the fast path's range are scaled as 0. Seven arrays of
    a's size hold the work: each table column is gathered into one of them in turn,
    and each product term is added to the sum where it was computed, in the order
    of the sum.
    """
    estimate, tens, hi, top, bottom, lo = _powers()
    y = np.abs(a)
    inside = y >= LOW
    inside &= y <= HIGH
    y[~inside] = 0.0
    row = estimate.take(y.view(np.int64) >> 52)  # X - X_MIN or one less
    col = tens.take(row)
    row += y >= col
    # the gathers clip, since an index out of range never occurs and a raising
    # take would copy its output
    hi.take(row, out=col, mode="clip")
    p = y * col  # 0 or above 2**53, so an integer-valued double
    y_top = (y.view(np.uint64) & np.uint64(2**64 - 2**27)).view(np.float64)  # its top 26 bits
    y_bottom = y - y_top
    lo.take(row, out=col, mode="clip")
    y *= col  # y * lo, the last term
    top.take(row, out=col, mode="clip")
    r = y_top * col
    r -= p
    bottom.take(row, out=col, mode="clip")
    y_top *= col
    r += y_top
    top.take(row, out=y_top, mode="clip")  # y_top is read; its array takes y_bottom top
    y_top *= y_bottom
    r += y_top
    y_bottom *= col
    r += y_bottom
    r += y
    r += 0.5
    # r = (((y_top top - p) + y_top bottom + y_bottom top) + y_bottom bottom) + y lo + 1/2
    del y, y_top, y_bottom
    whole = np.floor(r, out=col)
    r -= whole
    d = p.astype(np.int64)
    del p
    d += whole.astype(np.int64)
    return row, d, r


def _cells(a, row, d, notation, text):
    """Build the cells of the values a in text, a (values, CELL or CELL + 8) uint8 array.

    X = X_MIN + row, d holds the 17 digits and notation is _tables()'s by row. d is
    split into its digit groups in place.
    """
    head, short, quads, base, _, expo = _tables()
    part = d // 10**16
    lead = part.astype(np.uint8)
    part *= 10**16
    d -= part
    high = np.floor_divide(d, 10**8, out=part)
    term = high * 10**8
    d -= term  # the low eight digits
    g2 = d // 10**4
    np.multiply(g2, 10**4, out=term)
    d -= term  # g3
    q3 = quads[10000:].take(d)
    # a group that only zero groups follow takes its trailing zeros as NUL
    zero = d == 0
    np.multiply(zero, 10000, out=term)
    term += g2
    q2 = quads.take(term)
    zero &= g2 == 0
    g0 = np.floor_divide(high, 10**4, out=g2)
    np.multiply(g0, 10**4, out=term)
    high -= term  # g1
    np.multiply(zero, 10000, out=term)
    term += high
    q1 = quads.take(term)
    zero &= high == 0
    np.multiply(zero, 10000, out=term)
    term += g0
    q0 = quads.take(term)
    zero &= g0 == 0
    del high, g0, g2, part, term
    # head index in uint8: the base by X, the sign, the leading digit and the point
    index = base.take(row)
    index += 20 * np.signbit(a).view(np.uint8)
    index += 2 * lead
    index += (~zero).view(np.uint8)
    words = text.view(np.uint32)
    text.view(np.uint64)[:, 0] = head.take(index)
    for j, q in enumerate((q0, q1, q2, q3), 2):
        words[:, j] = q
    words[:, 6:] = 0  # a wide cell's last two words
    # fixed notation with X = 1..15: the point moves from byte 7 to byte 7 + X, one
    # slice move for each X the block holds (np.unique would import numpy.ma)
    shift = np.flatnonzero(notation == 1)
    if shift.size:
        xs = row.take(shift) + X_MIN
        for x in np.flatnonzero(np.bincount(xs)):
            at = shift[xs == x]
            text[at, 7:8 + x] = np.roll(text[at, 7:8 + x], -1, axis=1)
    # exponent notation: a one-word head, the groups in the next four words, the
    # exponent in the rest
    sci = np.flatnonzero(notation > 1)
    at = sci * words.shape[1]
    flat = words.reshape(-1)
    flat[at] = short.take(index.take(sci))
    for j, q in enumerate((q0, q1, q2, q3), 1):
        flat[at + j] = q.take(sci)
    for j, e in enumerate(expo.take(row.take(sci), axis=0).T[:words.shape[1] - 5], 5):
        flat[at + j] = e


def format_rows(block: np.ndarray, buf: bytearray) -> bytearray:
    """CSV lines of a (rows, columns) float64 block, each value as "%.17g" writes it.

    The cells are built in buf, resized to the block's rows x columns x cell
    bytes (CELL, or CELL + 8 where a value needs it), so a caller that formats
    many blocks hands the same bytearray to every call. The lines come back as
    a new bytearray.
    """
    cols = block.shape[1]
    a = block.ravel()
    row, d, frac = _scaled(a)
    # a tie leaves frac 0 or 1, an exact value (0 too) 1/2: |(|frac - 1/2|) - 1/4| is
    # taken in place
    frac -= 0.5
    np.abs(frac, out=frac)
    frac -= 0.25
    np.abs(frac, out=frac)
    bad = frac > 0.25 - MARGIN
    del frac
    bad &= a != 0
    other = np.flatnonzero(bad)
    texts = [b"%.17g" % x for x in a[other].tolist()]
    notation = _tables()[4].take(row)
    # a three-digit exponent, or a "%.17g" text that fills a cell, widens every cell of the block
    width = CELL + 8 * (notation.max(initial=0) > 2 or max(map(len, texts), default=0) >= CELL)
    size = a.size * width
    if len(buf) != size:
        buf.extend(bytes(max(size - len(buf), 0)))
        del buf[size:]
    text = np.frombuffer(buf, np.uint8).reshape(a.size, width)
    _cells(a, row, d, notation, text)
    # all fallback cells in one write, each padded to its cell after its separator
    fallback = b"".join([t.ljust(width - 1, b"\0") for t in texts])
    text[other, 1:] = np.frombuffer(fallback, np.uint8).reshape(other.size, width - 1)
    text[::cols, 0] = ord("\n")
    text[:1, 0] = 0  # the block's first value follows the previous block's last newline
    lines = buf.translate(None, b"\0")
    if a.size:
        lines.append(ord("\n"))
    return lines
