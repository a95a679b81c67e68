"""CSV number text: the exact bytes of format(v, ".17g") for a whole array at once.

`text_matrix(column)` returns a uint8 matrix with one row per value, holding
that value's text with NUL bytes in between; dropping the NULs leaves the
text.  Floats get the text of format(v, ".17g"), integers that of str(v).

Float kernel.  For finite nonzero x take k = floor(log10|x|) and
D = |x| * 10**(16 - k) in long double, with 10**q from a table of correctly
rounded long doubles.  D carries at most two roundings, so it lies within
D * eps of the exact product (eps of long double).  When rint(D) = R is in
[1e16 + 1, 1e17 - 1] and D is more than that bound away from the nearest
half-integer, R is the exact value rounded to 17 significant digits, and its
digits, the '.', the '0.000' prefix of exponents -4..-1 and the e+XX suffix
are written into fixed byte slots.  Every other value is formatted by
CPython's own '%.17g': a rounding too close to call, a log10 off by one, a
value in [1e16, 1e17), inf and nan, about 1% of random values.  ±0 is
written directly.  Arrays shorter than _SMALL go to CPython whole.  Where long double is no wider than double the bound
exceeds 1/2, so every value goes to CPython: the bytes stay the same and
only the speed is lost.  So does every value on a double-double long double
and on big-endian machines, which the byte layout below does not cover.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

_LD = np.longdouble
_U = np.uint64
_LD_BITS = np.finfo(_LD).nmant + 1
# Relative error bound of D: the table entry and the product are each
# rounded by at most eps/2 relative, and 1/16 of slack covers the eps**2 term
# and the float64 test.  At D = 1e17 it is 0.0115 with a 64-bit mantissa.
_REL_ERR = float(np.finfo(_LD).eps) * 1.0625
# The kernel runs where long double is IEEE extended or quad precision and the
# bound leaves rounding decidable: not where it is a double (the bound exceeds
# 1/2) or double-double (which has no fixed ulp).
_KERNEL = (_LD_BITS in (64, 113) and 1e17 * _REL_ERR < 0.25
           and sys.byteorder == "little")

# Below this many values CPython formats them: the kernel's fixed cost, some
# 60 numpy calls, exceeds CPython's cost per value.
_SMALL = 256
# Exponents k of finite nonzero doubles: 5e-324 .. 1.8e308.
_K_LO, _K_HI = -324, 308
# A value's slot is 7 words of 8 bytes: integer digits (2), fraction digits
# (2), sign, '.' and exponent.  The text takes them in the order of _ORDER,
# and the bytes of a word from the lowest.
_WORDS = 7
_ORDER = np.array([4, 0, 1, 5, 2, 3, 6])
_DIGITS0 = _U(0x3030303030303030)      # '0' in each byte


@functools.cache
def _tables():
    """The kernel's lookup tables, built on first use."""
    # 10**q, q = 16 - k, correctly rounded to long double from exact integers
    bits = _LD_BITS
    mant, shift = [], []
    for q in range(16 - _K_HI, 17 - _K_LO):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        s = bits - num.bit_length() + den.bit_length()      # m = 10**q * 2**s
        m, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
        if m >> bits:                                       # one bit too many
            s -= 1
            m, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
        d = den << max(0, -s)
        m += 2 * r > d or (2 * r == d and m & 1)
        if m >> bits:                                       # rounded up to 2**bits
            m, s = m >> 1, s - 1
        mant.append(m)
        shift.append(s)
    # each mantissa from exact 32-bit pieces, most significant first
    mant = np.array(mant, dtype=object)
    pow10 = np.zeros(len(mant), dtype=_LD)
    for at in range(32 * ((bits - 1) // 32), -1, -32):
        pow10 += ((mant >> at) & 0xFFFFFFFF).astype(np.uint32).astype(_LD) * _LD(2) ** at
    pow10 = np.ldexp(pow10, -np.array(shift, dtype=np.int32))
    # Per k: the split of R into integer digits I and fraction digits F (as
    # 10**(16 - split) and 10**split), the class c of the digit layout, and
    # the exponent word.  Classes 0..15: k in 0..15 (fixed, k + 1 integer
    # digits) or scientific (c = 0, one integer digit); 16..19: k = -1..-4.
    k = np.arange(_K_LO, _K_HI + 1)
    fixed = (k >= 0) & (k <= 15)
    split = np.where(fixed, k, 0)
    cls = np.where((k >= -4) & (k < 0), 15 - k, split)
    exp = [int.from_bytes(b"e%+03d" % v, "little") if not -4 <= v < 17 else 0
           for v in k.tolist()]
    # Per class: the masks keeping the integer digits of the 16-byte integer
    # field (its last split + 1 bytes), the '0.' + zeros prefix that class
    # 16..19 adds before its one digit, and the '.' that classes 0..15 put
    # before a nonzero fraction.
    layout = np.zeros((20, 5), dtype=_U)
    for c in range(20):
        digits = c + 1 if c < 16 else 1
        field = bytes(16 - digits) + b"\xff" * digits
        layout[c, 0] = int.from_bytes(field[:8], "little")
        layout[c, 1] = int.from_bytes(field[8:], "little")
        if c >= 16:
            prefix = b"0." + b"0" * (c - 16)
            field = bytes(15 - len(prefix)) + prefix + bytes(1)
            layout[c, 2] = int.from_bytes(field[:8], "little")
            layout[c, 3] = int.from_bytes(field[8:], "little")
        else:
            layout[c, 4] = ord(".")
    # Per (h, l), the counts of fraction words' bytes up to their last nonzero
    # digit: the masks of the fraction words and the '.' flag.
    h, l = np.divmod(np.arange(81), 9)
    keep = np.where(l > 0, 8 + l, h)
    tail = np.zeros((81, 3), dtype=_U)
    for i, n in enumerate(keep.tolist()):
        field = b"\xff" * n + bytes(16 - n)
        tail[i] = (int.from_bytes(field[:8], "little"), int.from_bytes(field[8:], "little"),
                   0xFF if n else 0)
    # the text of 0000..9999, four bytes each
    quads = np.arange(10 ** 4)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    quads = quads.astype(np.uint8).view(np.uint32).ravel()
    return (pow10, 10 ** (16 - split), 10 ** split, quads, layout[cls].T.copy(),
            np.array(exp, dtype=_U), tail.T.copy())


def _cpython(values: np.ndarray, conversion: str) -> np.ndarray:
    """CPython's text of each value, left-aligned in the rows of a uint8 matrix."""
    text = np.array([conversion % v for v in values.tolist()], dtype="S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _float_text(x: np.ndarray) -> np.ndarray:
    if not _KERNEL or len(x) < _SMALL:
        return _cpython(x, "%.17g")
    pow10, divisor, multiplier, quads, layout, exp, tail = _tables()
    n = len(x)
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        # zero, inf and nan take k = 0: zero gets D = R = 0, which the layout
        # of k = 0 writes as '0', and D = inf or nan fails the tests below
        k = np.floor(np.log10(np.where((ax > 0) & (ax < np.inf), ax, 1.0))).astype(np.intp)
        k -= _K_LO
        d = ax.astype(_LD) * pow10[_K_HI - _K_LO - k]
        r = np.rint(d)
        off = np.abs((d - r).astype(np.float64))
        r = r.astype(np.int64)
    # decidable, R in [1e16 + 1, 1e17 - 1], and not k = 16, whose 17 integer
    # digits the layout has no room for
    ok = off + r * _REL_ERR < 0.5
    ok &= (r - np.int64(10 ** 16 + 1)).view(_U) <= _U(9 * 10 ** 16 - 2)
    ok &= k != 16 - _K_LO
    ok |= ax == 0
    # The slots as 8-byte words, one row of `words` per word: two of
    # integer digits, two of fraction digits, the sign, the '.' and the
    # exponent (the text takes them in the order of _ORDER).  R is split into
    # I * 10**(16 - split) + F, F scaled to 16 digits, and each into 4-digit
    # groups, whose text comes from a table.
    words = np.empty((_WORDS, n), dtype=_U)
    parts = np.empty((2, n), dtype=np.int64)
    np.divmod(r, divisor[k], out=(parts[0], parts[1]))
    parts[1] *= multiplier[k]
    groups = np.empty((2, 2, n, 2), dtype=np.int64)         # field, word, value, group
    eights = parts // 10 ** 8
    for word, eight in enumerate((eights, parts - eights * 10 ** 8)):
        fours = np.floor_divide(eight, 10 ** 4, out=groups[:, word, :, 0])
        np.subtract(eight, fours * 10 ** 4, out=groups[:, word, :, 1])
    quads.take(groups, mode="wrap", out=words[:4].view(np.uint32).reshape(groups.shape))
    # the bytes of each fraction word up to its last nonzero digit
    counts = np.frexp((words[2:4] ^ _DIGITS0).astype(np.float64))[1]
    counts += 7
    counts >>= 3
    at = counts[0] * 9 + counts[1]
    for w, table, index in ((0, layout[0], k), (1, layout[1], k), (2, tail[0], at),
                            (3, tail[1], at)):
        words[w] &= table[index]
    words[0] |= layout[2][k]
    words[1] |= layout[3][k]
    np.multiply(np.signbit(x), _U(ord("-")), out=words[4])
    np.bitwise_and(layout[4][k], tail[2][at], out=words[5])
    words[6] = exp[k]
    if not ok.all():
        # CPython's text, at most 24 bytes, in the last three words of the text
        bad = np.flatnonzero(~ok)
        text = np.array(["%.17g" % v for v in x[bad].tolist()], dtype="S24")
        replace = np.zeros((_WORDS, len(bad)), dtype=_U)
        replace[_ORDER[-3:]] = text.view(_U).reshape(-1, 3).T
        words[:, bad] = replace
    # the bytes that some value uses, in text order; byte j of word w of
    # value i is at i*8 + w*8n + j
    used = np.bitwise_or.reduce(words, axis=1).view(np.uint8).reshape(_WORDS, 8)[_ORDER]
    word, byte = np.nonzero(used)
    slots = np.lib.stride_tricks.as_strided(words.view(np.uint8), (n, _WORDS, 8), (8, 8 * n, 1))
    return slots[:, _ORDER[word], byte]


def text_matrix(column: np.ndarray) -> np.ndarray:
    """Each value's text as a row of a uint8 matrix, with NULs in between.

    Dropping the NULs of row i leaves the text of column[i].  Integers are
    written as str(v): by the float kernel on their float64 values when every
    |v| < 2**53, where the two texts agree, else by '%d'.  Every other column
    is written as format(float(v), ".17g").
    """
    if column.dtype.kind in "iu":
        if len(column) and -2 ** 53 < int(column.min()) and int(column.max()) < 2 ** 53:
            return _float_text(column.astype(np.float64))
        return _cpython(column, "%d")
    return _float_text(column.astype(np.float64, copy=False))
