# src/rmx/floattext.py

"""float.__repr__ of many doubles at once, as one text.

float.__repr__ writes the shortest digits that read back as the double, of
those the nearest to it (Steele and White 1990).  join_reprs finds them with
array arithmetic, as Ryu (Adams 2018) does with integers: D = |x| 10^(16 -
e10) in [1e16, 1e17) is Dekker's exact product of |x| with a table's 10^k =
hi + lo, known to about 3e-14; the digits are those of the multiple of the
largest power of ten within the rounding interval of x (half the gaps to
its neighbours), the one nearest D if there are several.  A number within
_TOL of an interval edge or of a tie, with |x| outside [1e-250, 1e250) and
not 0, or not finite gets float.__repr__'s own text, so every text is
float.__repr__'s.  The texts are subsequences of rows of bytes (_ROW): a
mask keyed by the layout turns the other bytes into NUL, which
bytearray.translate drops.  The byte tricks need a little-endian host.
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
    hi, lo, hi1, hi2 = (row.take((16 - _K0 - e10).astype(np.intp)) for row in _P10)
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
# odd one's, and NUL
_ROW = np.frombuffer(b"".join(b"-0.000" + b"0." * 17 + b"e+-000" + bytes([s, 0])
                              for s in (1, 2)), np.uint8).reshape(2, 48)
_MASK = _mask_table()
_DP = np.arange(-300, 300)  # _FORM[dp + 300] is 34 times dp's form
_FORM = 34 * np.where((_DP > -4) & (_DP <= 16), _DP + 3, 20 + (_DP <= 0) + 2 * (abs(_DP - 1) >= 100))
_PAIRS = np.array([48 + i // 10 | (48 + i % 10) << 8 for i in range(100)], np.uint16)


def _fill_rows(x: np.ndarray, rows: np.ndarray):
    """Fill rows, shape (len(x), 48), with the _ROW rows of the numbers of x
    (an even count), each masked to its number's float.__repr__ text."""
    a = np.abs(x)
    i = np.flatnonzero((a >= 1e-250) & (a < 1e250))  # the table's range, no zeros
    h, r, dp, ok = _shortest(a[i])
    u = np.floor(h / 1e7)
    w = np.empty((len(i), 2), np.uint64)  # digits 1-8 and 9-16, one per byte
    w[:, 0] = u
    w[:, 1] = (h - 1e7 * u) * 10 + np.floor(r / 10)
    q = w // 10000
    w = q | (w - 10000 * q) << 32
    q = (w * 10486 >> 20) & 0x7F0000007F  # // 100 in each 32-bit lane
    w = q | (w - 100 * q) << 16
    q = (w * 103 >> 10) & 0xF000F000F000F  # // 10 in each 16-bit lane
    w = q | (w - 10 * q) << 8 | 0x3030303030303030
    last = r - 10 * np.floor(r / 10)
    nd = np.where(last > 0, 17, 16 - np.argmax(w.view(np.uint8)[:, ::-1] > 48, axis=1))
    X = np.abs(dp - 1)
    Xh = np.floor(X / 100)
    sub = _ROW.take(i & 1, axis=0)
    sub.view(np.uint16)[:, 3:19] = w.view(np.uint8) | np.uint16(0x2E00)
    sub[:, 38] = 48 + last
    sub[:, 43] = 48 + Xh
    sub.view(np.uint16)[:, 22] = _PAIRS[(X - 100 * Xh).astype(np.intp)]
    rows.reshape(-1, 2, 48)[...] = _ROW
    rows[i] = sub
    key = 816 + np.signbit(x)  # a zero's
    key[i] += _FORM.take((dp + 300).astype(np.intp)) + 2 * nd - 818
    words = rows.view(np.uint64)
    words &= _MASK.take(key, axis=0)
    other = a != 0
    other[i[ok]] = False
    for j in np.flatnonzero(other).tolist():
        rows[j, :46] = np.frombuffer(repr(float(x[j])).encode().ljust(46, b"\0"), np.uint8)


def join_reprs(x: np.ndarray, sep0: str, sep1: str, head: str, tail: str) -> str:
    """head, then float.__repr__ of each number of x (float64, an even count
    above 0), followed by sep0 at an even index and by sep1 at an odd one,
    but the last by tail.  No argument may hold the characters 1 and 2."""
    parts, buf = [head.encode()], bytearray(48 * min(len(x), _BLOCK))
    for s in range(0, len(x), _BLOCK):
        block = x[s:s + _BLOCK]
        if len(buf) > 48 * len(block):  # the last block, if shorter
            buf = bytearray(48 * len(block))
        _fill_rows(block, np.frombuffer(buf, np.uint8).reshape(-1, 48))
        parts.append(buf.translate(None, b"\0"))
    parts[-1] = parts[-1][:-1]  # the last number's separator mark
    parts.append(tail.encode())
    text = b"".join(parts)
    del parts, buf  # no more than two copies of the text at a time
    text = text.replace(b"\1", sep0.encode())
    text = text.replace(b"\2", sep1.encode())
    return text.decode()
