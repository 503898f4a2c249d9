"""CSV lines for blocks of doubles, byte for byte what "%.17g" writes.

`format_rows` turns a (rows, columns) float64 block into comma-separated
lines. A value with 1e-290 <= |x| <= 1e290 is scaled to the 17-digit
integer D = round(|x| * 10**(16 - X)), X its decimal exponent, in
double-double arithmetic (about 2**-104 relative error, far inside the
1e-6 margin below). +-0 is written directly. Every other value -- NaN,
+-inf, the far ends of the range, and any value whose scaled fraction lies
within 1e-6 of an integer or of 1/2, where the exponent or the rounding
could come out either way -- is formatted by "%.17g" itself.

Each value gets a 48-byte cell of six uint64 words, each copied from a
table: the sign, the "0.000" of 1e-4 <= |x| < 1 and the leading digit;
four words of four digits, each digit followed by a point slot; the
exponent and the separator. A keep mask, looked up by notation, exponent,
significant digits and sign, zeroes the bytes "%.17g" does not print, and
the zero bytes are dropped. The tables are built from exact integers on
first use, never at import.
"""

from __future__ import annotations

import functools
import math

import numpy as np

LOW, HIGH = 1e-290, 1e290  # the fast path's range of |x|
X_MIN, X_MAX = -292, 292  # decimal exponents the tables cover
MARGIN = 1e-6  # scaled fractions this close to 0, 1/2 or 1 take "%.17g"
SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
CELL = 48  # bytes per value; the separator is the last one
SCI, SCI_BIG = 21, 22  # layout classes after fixed notation's X + 4 = 0..20


def _split(a):
    c = SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _words(data: bytes) -> np.ndarray:
    return np.frombuffer(data, np.uint64)


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """10**(16 - X) = (hi + lo) * 2**k for X in X_MIN..X_MAX, hi with its split."""
    hi, lo, k = [], [], []
    for x in range(X_MIN, X_MAX + 1):
        p = 16 - x
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        s = num.bit_length() - den.bit_length() - 110  # m below has 109-111 bits
        num, den = (num << -s, den) if s < 0 else (num, den << s)
        q, r = divmod(num, den)
        m = q + (2 * r >= den)
        h = float(m)
        hi.append(math.ldexp(h, -110))
        lo.append(math.ldexp(float(m - int(h)), -110))
        k.append(s + 110)
    hi = np.array(hi)
    return (*_split(hi), np.array(lo), np.array(k, np.int32))


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Cell words: head by leading digit, four digits, exponent by X; keep masks.

    The digits' table also gives each group's count of digits up to its
    last nonzero one. Cell bytes: 0 sign, 1-5 "0.000", then digit k at
    6 + 2k with its point slot after it, 40-44 the exponent, 47 the
    separator.
    """
    head = _words(b"".join(b"-0.000%d." % d for d in range(10)))
    text = [b"%04d" % i for i in range(10000)]
    spread = np.full((10000, 8), ord("."), np.uint8)
    spread[:, ::2] = np.frombuffer(b"".join(text), np.uint8).reshape(-1, 4)
    quads = spread.view(np.uint64).ravel()
    sig = np.array([len(t.rstrip(b"0")) for t in text])
    xs = range(X_MIN, X_MAX + 1)
    expo = _words(b"".join(b"e%+04d\0\0," % x for x in xs))
    classes = [x + 4 if -4 <= x < 17 else SCI if abs(x) < 100 else SCI_BIG for x in xs]
    layout = np.array(classes) * 36  # keep row 36 * class + 2 * digits + sign
    keep = bytearray()
    for cls in range(SCI_BIG + 1):
        x = cls - 4
        lead = 1 if cls >= SCI else max(x + 1, 0)
        zeros = 1 - x if x < 0 and cls < SCI else 0
        for nd in range(18):
            for neg in (0, 1):
                mask = bytearray(CELL)
                mask[0] = neg
                mask[1:1 + zeros] = b"\1" * zeros
                for k in range(max(nd, lead)):
                    mask[6 + 2 * k] = 1
                if 0 < lead < nd:
                    mask[5 + 2 * lead] = 1
                if cls >= SCI:
                    mask[40:45] = b"\1\1\1\1\1" if cls == SCI_BIG else b"\1\1\0\1\1"
                mask[-1] = 1
                keep += mask
    keep = _words(bytes(keep).replace(b"\1", b"\xff"))
    return head, quads, sig, expo, layout, keep.reshape(-1, CELL // 8)


def _scaled(f, e, row):
    """floor(f * 2**e * 10**(16 - X)) and the fraction left over, X = X_MIN + row."""
    p_hi, p_split, p_lo, k = (t.take(row) for t in _powers())
    hi, lo = _split(f)
    p = f * p_hi
    err = ((hi * p_hi - p) + hi * p_split + lo * p_hi) + lo * p_split
    scale = e + k
    v = np.ldexp(p, scale)
    top = np.floor(v)
    r = (v - top) + np.ldexp(err + f * p_lo, scale)
    below = np.floor(r)
    return top.astype(np.int64) + below.astype(np.int64), r - below


def format_rows(block: np.ndarray) -> bytes:
    """CSV lines of a (rows, columns) float64 block, each value as "%.17g" writes it."""
    cols = block.shape[1]
    a = block.ravel()
    mag = np.abs(a)
    fast = (mag >= LOW) & (mag <= HIGH)
    y = np.where(fast, mag, 1.0)
    f, e = np.frexp(y)
    row = np.floor(np.log10(y)).astype(np.intp) - X_MIN
    t, frac = _scaled(f, e, row)
    off = np.flatnonzero((t < 10**16) | (t >= 10**17))
    if off.size:
        row[off] += np.where(t[off] < 10**16, -1, 1)
        t[off], frac[off] = _scaled(f[off], e[off], row[off])
    bad = ~fast | (t < 10**16) | (t >= 10**17)
    bad |= (frac < MARGIN) | (frac > 1 - MARGIN) | (abs(frac - 0.5) < MARGIN)
    d = np.where(bad, 10**16, t + (frac > 0.5))
    carry = d == 10**17
    d[carry] = 10**16
    row = np.where(bad, -X_MIN, row + carry)

    head, quads, sig, expo, layout, keep = _tables()
    cells = np.empty((a.size, CELL // 8), np.uint64)
    groups = []
    for j in range(4, 0, -1):
        q = d // 10000
        groups.append(d - q * 10000)
        cells[:, j] = quads.take(groups[-1])
        d = q
    cells[:, 0] = head.take(d)
    cells[:, 5] = expo.take(row)
    # significant digits run to the last nonzero digit of the last nonzero group
    nd = 13 + sig.take(groups[0])
    for lead, r in zip((9, 5, 1), groups[1:]):
        z = np.flatnonzero(nd == lead + 4)
        nd[z] = lead + sig.take(r[z])
    cells &= keep.take(layout.take(row) + 2 * nd + np.signbit(a), axis=0)

    text = cells.view(np.uint8).reshape(a.size, CELL)
    text[cols - 1::cols, -1] = ord("\n")
    zero = mag == 0
    text[zero, 6] = ord("0")  # a bad value is laid out as 1
    other = np.flatnonzero(bad & ~zero)
    for i, x in zip(other, a[other].tolist()):
        text[i, :-1] = np.frombuffer((b"%.17g" % x).ljust(CELL - 1, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")
