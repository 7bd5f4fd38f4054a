# src/rmx/floattext.py

"""float.__repr__ of many doubles at once, as the parts of one text.

float.__repr__ writes the shortest digits that read back as the double, of
those the nearest to it (Steele and White 1990).  repr_parts finds them with
array arithmetic, as Ryu (Adams 2018) does with integers: D = |x| 10^(16 -
e10) in [1e16, 1e17) is Dekker's exact product of |x| with a table's 10^k =
hi + lo, known to about 3e-14; the digits are those of the multiple of the
largest power of ten within the rounding interval of x (half the gaps to
its neighbours), the one nearest D if there are several.  A number within
_TOL of an interval edge or of a tie, with |x| outside [1e-250, 1e250) and
not 0, or not finite gets float.__repr__'s own text, so every text is
float.__repr__'s.  The texts are subsequences of rows of bytes (_ROW): a
mask keyed by the layout turns the other bytes into NUL, which
bytearray.translate drops; the mask's key also gives the text's length.
The byte tricks need a little-endian host.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-11  # in D's units
_BLOCK = 8192  # numbers per array pass: 64 kB temporaries, below malloc's mmap threshold


def _pow10_table(k0: int, k1: int) -> np.ndarray:
    """Rows hi, lo, hi1, hi2 over k0 <= k <= k1: hi + lo = 10^k to 2^-106
    relative (int / int rounds correctly), hi = hi1 + hi2 its Veltkamp split."""
    rows = []
    for k in range(k0, k1 + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        a, b = hi.as_integer_ratio()
        rows.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(rows).T
    hi1 = hi * 134217729.0
    hi1 -= hi1 - hi
    return np.array([hi, lo, hi1, hi - hi1])


_K0 = -240
_P10 = _pow10_table(_K0, 270)


def _shortest(a: np.ndarray):
    """float.__repr__'s digits of the doubles a, 1e-250 <= a < 1e250, as
    (h, r, dp, ok): those of the integer 100 h + r < 10^17 without its
    trailing zeros, with a ~ 0.DIGITS 10^dp; ok is False where the
    arithmetic does not settle them."""
    e10 = np.floor(np.log10(a))
    k = (16 - _K0 - e10).astype(np.intp)
    hi, lo, hi1, hi2 = (row.take(k) for row in _P10)
    c = a * 134217729.0
    a1 = c - (c - a)
    a2 = a - a1
    p = a * hi  # D = p + q
    q = (((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2) + a * lo
    ok = ((p - 1e16) + q >= 0) & ((p - 1e17) + q < 0)  # else e10 != floor(log10 a)
    P = p.astype(np.int64)  # p >= 1e16 > 2^53 is an integer
    h = P // 100
    d = (P - 100 * h) + q  # D = 100 h + d
    m, e = np.frexp(a)
    up = np.ldexp(hi, e - 54)  # half the gap to the next double up, in D's units
    low = d - up * (1 - 0.5 * (m == 0.5))  # the gap below a power of two halves
    high = d + up
    A, B = np.ceil(low), np.floor(high)  # the integers of the rounding interval
    ok &= (np.abs(A - low - 0.5) < 0.5 - _TOL) & (np.abs(high - B - 0.5) < 0.5 - _TOL)
    s = 1 + 9 * (B - 10 * np.floor(B / 10) <= B - A)  # 10 if a multiple of 10 is in it
    t = d / s
    dev = t - np.floor(t + 0.5)
    r = d - s * dev  # the multiple of s nearest D, or the next above if that is out
    r += s * (r < A)
    hb = np.floor(B / 100)
    j2 = B - 100 * hb <= B - A  # a multiple of 100 is in it, then the only one
    ok &= j2 | (np.abs(dev) < 0.5 - _TOL)
    r = np.where(j2, 100 * hb, r)
    f = np.floor(r / 100)
    h = h + f  # < 2^53, exact
    top = h == 1e15  # D rounded up to 10^17
    return np.where(top, 1e14, h), r - 100 * f, e10 + 1 + top, ok


def _mask_table() -> np.ndarray:
    """Byte masks of _ROW as uint64 words by key (form * 17 + nd - 1) * 2 +
    sign, for nd digits: form dp + 3 < 20 is positional, 20-23 an exponent
    (+1 if it is negative, +2 if it has 3 digits) and 24 a zero."""
    key = np.arange(850)[:, None]
    form, nd, neg = key // 34, key // 2 % 17 + 1, key % 2
    dp, col = form - 3, np.arange(48)
    i = np.where((col >= 6) & (col < 40) & (col % 2 == 0), (col - 6) // 2, 99)  # digit
    pos, expo = form < 20, (form >= 20) & (form < 24)
    m = (col == 0) & (neg == 1) | (col == 46)
    m |= pos & (dp > 0) & ((i < np.maximum(nd, dp + 1)) | (col == 5 + 2 * dp))
    m |= pos & (dp <= 0) & ((col == 1) | (col == 2) | (col >= 3) & (col < 3 - dp))
    m |= (pos & (dp <= 0) | expo) & (i < nd)
    m |= expo & ((nd > 1) & (col == 7) | (col == 40) | (col == 41 + form % 2)
                 | (col == 44) | (col == 45) | (col == 43) & (form >= 22))
    m |= (form == 24) & (col >= 1) & (col <= 3)
    return (255 * m).astype(np.uint8).view(np.uint64)


# a row: sign, "0.000", the 17 digits each followed by ".", "e+-" and three
# exponent digits, then the byte 1 after an even index's number, 2 after an
# odd one's, and NUL.  _fill_rows writes columns 40-47 again from _TAIL;
# two rows at once fill a block in 27 us, one row's 40 columns in 44.
_ROW = np.frombuffer(b"".join(b"-0.000" + b"0." * 17 + b"e+-000" + bytes([s, 0])
                              for s in (1, 2)), np.uint8).reshape(2, 48)
_MASK = _mask_table()
_SIZE = np.count_nonzero(_MASK.view(np.uint8)[:, :46], axis=1)  # text length by key
_DP = np.arange(-300, 301)  # by dp + 300; dp = 300 stands for a number left out
# 34 times dp's form, and the words of columns 40-47 ("e+-", |dp - 1| in
# three digits, the separator mark, NUL) by 2 (dp + 300) + index parity
_FORM = 34 * np.where(_DP == 300, 24, np.where((_DP > -4) & (_DP <= 16), _DP + 3,
                                               20 + (_DP <= 0) + 2 * (abs(_DP - 1) >= 100)))
_TAIL = np.frombuffer(b"".join(b"e+-%03d" % abs(dp - 1) + bytes([s, 0])
                               for dp in _DP.tolist() for s in (1, 2)), np.uint64)
_PARITY = np.arange(_BLOCK) & 1


def _fill_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill rows, shape (len(x), 48), with the rows (_ROW, digits, _TAIL) of x
    (an even count), each masked to its number's float.__repr__ text, and
    return the lengths of those texts."""
    a = np.abs(x)
    fast = (a >= 1e-250) & (a < 1e250)  # the table's range, no zeros
    h, r, dp, ok = _shortest(np.where(fast, a, 1.0))
    u = np.floor(h / 1e7)
    w = np.empty((len(x), 2), np.uint64)  # digits 1-8 and 9-16, one per byte
    w[:, 0] = u
    w[:, 1] = (h - 1e7 * u) * 10 + np.floor(r / 10)
    q = w // 10000
    w = q | (w - 10000 * q) << 32
    q = (w * 10486 >> 20) & 0x7F0000007F  # // 100 in each 32-bit lane
    w = q | (w - 100 * q) << 16
    q = (w * 103 >> 10) & 0xF000F000F000F  # // 10 in each 16-bit lane
    w = q | (w - 10 * q) << 8
    last = r - 10 * np.floor(r / 10)  # digit 17
    # the digits as bytes 0-16 of one number: its highest nonzero byte, digit
    # nd, is below 16, so the sum as a double keeps that byte's exponent
    wi = w.view(np.int64)
    nd = np.frexp(last * 2.0**128 + wi[:, 1] * 2.0**64 + wi[:, 0])[1] + 7 >> 3
    rows.reshape(-1, 2, 48)[...] = _ROW
    np.bitwise_or(w.view(np.uint8), 48, out=rows[:, 6:38:2])
    rows[:, 38] = 48 + last
    dpi = np.where(fast, dp, 300).astype(np.intp) + 300
    words = rows.view(np.uint64)
    words[:, 5] = _TAIL.take(2 * dpi + _PARITY[:len(x)])
    key = _FORM.take(dpi) + 2 * nd - 2 + np.signbit(x)
    words &= _MASK.take(key, axis=0)
    size = _SIZE.take(key)
    for j in np.flatnonzero((a != 0) & ~(fast & ok)).tolist():
        text = repr(float(x[j]))
        rows[j, :46] = np.frombuffer(text.encode().ljust(46, b"\0"), np.uint8)
        size[j] = len(text)
    return size


def _text(block: np.ndarray, sep0: str, sep1: str) -> tuple:
    """The text of the numbers of block (an even count, at most _BLOCK),
    each followed by sep0 at an even index and by sep1 at an odd one, and
    the lengths of their texts."""
    rows = np.empty((len(block), 48), np.uint8)
    size = _fill_rows(block, rows)
    text = rows.tobytes().translate(None, b"\0")  # 0.3 ms a block, bytearray's 0.5
    return text.replace(b"\1", sep0.encode()).replace(b"\2", sep1.encode()).decode("ascii"), size


def _repr_text(block: np.ndarray, sep0: str, sep1: str) -> tuple:
    """_text by float.__repr__, number by number."""
    texts = list(map(float.__repr__, block.tolist()))
    it = iter(texts)
    return (sep1.join(map(sep0.join, zip(it, it))) + sep1,
            np.fromiter(map(len, texts), np.intp, len(texts)))


def repr_parts(x: np.ndarray, sep0: str, sep1: str, repr_max: int) -> list:
    """float.__repr__ of each number of x (float64, an even count above 0),
    followed by sep0 at an even index and by sep1 at an odd one, but the
    last by nothing: that text as a list of strings, whose join it is.

    A pair of two +0.0s (bit pattern 0) has the constant text zero below,
    and a run of k of them is zero * k.  The other pairs go through _text,
    packed, a block at a time, or through _repr_text if there are no more
    than repr_max numbers in them; their runs are cut from each block's
    text at the offsets that its numbers' text lengths give.  No separator
    may hold the characters 1 and 2."""
    zero = "0.0" + sep0 + "0.0" + sep1
    bits = x.view(np.uint64).reshape(-1, 2)
    is_zero = (bits[:, 0] | bits[:, 1]) == 0
    y = x.view(np.complex128)[~is_zero].view(np.float64)  # the other pairs
    # pieces: the runs of zero pairs and of other pairs, the latter also cut
    # where a block begins
    per = _BLOCK // 2
    cut = np.concatenate([[True], is_zero[1:] != is_zero[:-1], [True]])  # before pair i
    if len(y) > _BLOCK:
        cut[np.flatnonzero(~is_zero)[per::per]] = True
    edges = np.flatnonzero(cut)
    count = np.diff(edges)
    piece_is_zero = is_zero[edges[:-1]]
    last = np.cumsum(count[~piece_is_zero])  # other pairs up to a piece's end
    write = _repr_text if len(y) <= repr_max else _text
    cuts = []
    for s in range(0, len(y) // 2, per):
        text, size = write(y[2 * s:2 * s + _BLOCK], sep0, sep1)
        end = np.cumsum(size[0::2] + size[1::2] + (len(sep0) + len(sep1)))
        ends = last[np.searchsorted(last, s, "right"):np.searchsorted(last, s + per, "right")]
        at = [0, *end[ends - s - 1].tolist()]
        if s + per >= len(y) // 2 and not piece_is_zero[-1]:
            at[-1] -= len(sep1)  # the last number's separator
        cuts += [text[i:j] for i, j in zip(at, at[1:])]
    cuts = iter(cuts)
    parts = [zero * k if z else next(cuts) for k, z in zip(count.tolist(), piece_is_zero.tolist())]
    if piece_is_zero[-1]:
        parts[-1:] = [zero * (int(count[-1]) - 1), zero[:-len(sep1)]]
    return parts
