"""Number text: the exact bytes of '%.17g' % v or repr(v) for a whole array at once.

`text_matrix(column, style)` returns a uint8 matrix with one row per value,
holding that value's text with NUL bytes in between; dropping the NULs leaves
the text.  Floats get the text of style % v, with style '%.17g' (CSV) or '%r'
(JSON: Python's shortest round-trip repr); integers get str(v) in either.

One kernel serves both styles.  For finite nonzero x take k = floor(log10|x|)
and D = |x| * 10**(16 - k) in long double, with 10**q from a table of
correctly rounded long doubles.  D carries at most two roundings, so it lies
within err = D * eps of the exact product (eps of long double).  When
rint(D) = R17 is in [1e16 + 1, 1e17 - 1], k is exact and R17 has 17 digits.

'%.17g' takes R17 when D is more than err away from the nearest
half-integer: then R17 is the exact value rounded to 17 significant digits.

'%r' takes the first of R15 = round(D/100)*100, R16 = round(D/10)*10 and R17
that lies within half an ulp of x, scaled to D's units by 10**(16 - k) (in
long double: that scale overflows a double for k < -292).  The rounding
interval of x is narrower than the 15-digit grid, so it holds at most one
point with 15 or fewer digits, R15, and R15 with its trailing zeros stripped
is the shortest text when it is inside.  Up to three 16-digit points can be
inside, and repr takes the nearest, R16; R17 is always inside.  A value is
decided only when D is more than 2 * err from every rounding boundary and
interval boundary that the choice depends on.  Powers of two, whose interval
is asymmetric, and subnormals are left undecided.  A carry to 10**17 is
written as 1 at k + 1.

The chosen digits, padded to 17, the '.', the '0.000' prefix of exponents
-4..-1 and the e+XX suffix are written into fixed byte slots, with trailing
fraction zeros dropped.  '%.17g' writes fixed notation for -4 <= k < 17 and
never '.0'; repr writes it for -4 <= k < 16, adds '.0' where no fraction
digit is left, and writes 1e+16, 1e-05 and 1.5e+16 in scientific notation.
Every value the kernel leaves undecided is formatted by CPython's own style
% v: a rounding too close to call, a log10 off by one, a value in [1e16,
1e17) under '%.17g', inf and nan, about 1% of random values in either style.
±0 is written directly.  Arrays shorter than _SMALL go to CPython whole.
Where long double is no wider than double the bound exceeds 1/2, so every
value goes to CPython: the bytes stay the same and only the speed is lost.
So does every value on a double-double long double and on big-endian
machines, which the byte layout below does not cover.
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
_DBL_MIN = float(np.finfo(np.float64).smallest_normal)
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
    # 10**(16 - split) and 10**split), the class c of the digit layout, the
    # exponent word, and repr's '.0' where no fraction digit is left.
    # Classes 0..15: k in 0..15 (fixed, k + 1 integer digits) or scientific
    # (c = 0, one integer digit); 16..19: k = -1..-4.  k = 16 is scientific,
    # as repr writes it ('%.17g' leaves it to CPython).
    k = np.arange(_K_LO, _K_HI + 1)
    fixed = (k >= 0) & (k <= 15)
    split = np.where(fixed, k, 0)
    cls = np.where((k >= -4) & (k < 0), 15 - k, split)
    exp = [int.from_bytes(b"e%+03d" % v, "little") if not -4 <= v < 16 else 0
           for v in k.tolist()]
    point_zero = np.where(fixed, _U(int.from_bytes(b".0", "little")), _U(0))
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
    # digit: the masks of the fraction words and of the '.' word (all ones
    # where some fraction digit is left).
    h, l = np.divmod(np.arange(81), 9)
    keep = np.where(l > 0, 8 + l, h)
    tail = np.zeros((81, 3), dtype=_U)
    for i, n in enumerate(keep.tolist()):
        field = b"\xff" * n + bytes(16 - n)
        tail[i] = (int.from_bytes(field[:8], "little"), int.from_bytes(field[8:], "little"),
                   2 ** 64 - 1 if n else 0)
    # the text of 0000..9999, four bytes each
    quads = np.arange(10 ** 4)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    quads = quads.astype(np.uint8).view(np.uint32).ravel()
    return (pow10, 10 ** (16 - split), 10 ** split, quads,
            np.vstack([layout[cls].T, point_zero]), np.array(exp, dtype=_U), tail.T.copy())


def _cpython(values: np.ndarray, conversion: str) -> np.ndarray:
    """CPython's text of each value, left-aligned in the rows of a uint8 matrix."""
    text = np.array([conversion % v for v in values.tolist()], dtype="S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _shortest(ax, r, off, err, k, scale) -> np.ndarray:
    """repr's digits: R15, R16 or R17, padded to 17 digits, in place of r.

    R15 and R16 come from int64 divmod(R17, 100 | 10) plus the offset
    D - R17.  A carry to 10**17 becomes 10**16 at k + 1.  Returns where the
    choice is decided (see the module docstring).
    """
    m, e = np.frexp(ax)
    # half an ulp of x, in D's units
    half_ulp = np.ldexp(scale, e - 54).astype(np.float64)
    margin = 2 * err
    decided = (m != 0.5) & (ax >= _DBL_MIN)
    taken = np.zeros(len(r), dtype=bool)
    for unit in (100, 10):
        q, rem = np.divmod(r, unit)
        f = rem + off                       # D - q*unit
        up = f > unit / 2
        dist = np.abs(f - unit * up)
        decided &= taken | ((np.abs(dist - half_ulp) > margin)
                            & (np.abs(f - unit / 2) > margin))
        take = ~taken & (dist < half_ulp)
        np.copyto(r, (q + up) * unit, where=take)
        taken |= take
    decided &= taken | (np.abs(off) < 0.5 - margin)
    carry = r == 10 ** 17
    r[carry] = 10 ** 16
    k[carry] += 1
    return decided


def _float_text(x: np.ndarray, style: str) -> np.ndarray:
    if not _KERNEL or len(x) < _SMALL:
        return _cpython(x, style)
    pow10, divisor, multiplier, quads, layout, exp, tail = _tables()
    n = len(x)
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        # zero, inf and nan take k = 0: zero gets D = R = 0, which the layout
        # of k = 0 writes as '0', and D = inf or nan fails the tests below
        k = np.floor(np.log10(np.where((ax > 0) & (ax < np.inf), ax, 1.0))).astype(np.intp)
        k -= _K_LO
        scale = pow10[_K_HI - _K_LO - k]
        d = ax.astype(_LD) * scale
        r = np.rint(d)
        off = (d - r).astype(np.float64)
        r = r.astype(np.int64)
    err = r * _REL_ERR
    # R in [1e16 + 1, 1e17 - 1], so k is exact
    ok = (r - np.int64(10 ** 16 + 1)).view(_U) <= _U(9 * 10 ** 16 - 2)
    if style == "%r":
        ok &= _shortest(ax, r, off, err, k, scale)
    else:
        # decidable, and not k = 16, whose 17 integer digits the layout has
        # no room for
        ok &= np.abs(off) + err < 0.5
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
    has_fraction = tail[2][at]
    np.bitwise_and(layout[4][k], has_fraction, out=words[5])
    if style == "%r":           # '.0' in fixed notation without a fraction digit
        words[5] |= layout[5][k] & ~has_fraction
    words[6] = exp[k]
    if not ok.all():
        # CPython's text, at most 24 bytes, in the last three words of the text
        bad = np.flatnonzero(~ok)
        cpython = _cpython(x[bad], style)
        text = np.zeros((len(bad), 24), dtype=np.uint8)
        text[:, :cpython.shape[1]] = cpython
        replace = np.zeros((_WORDS, len(bad)), dtype=_U)
        replace[_ORDER[-3:]] = text.view(_U).reshape(-1, 3).T
        words[:, bad] = replace
    # the bytes that some value uses, in text order; byte j of word w of
    # value i is at i*8 + w*8n + j
    used = np.bitwise_or.reduce(words, axis=1).view(np.uint8).reshape(_WORDS, 8)[_ORDER]
    word, byte = np.nonzero(used)
    slots = np.lib.stride_tricks.as_strided(words.view(np.uint8), (n, _WORDS, 8), (8, 8 * n, 1))
    return slots[:, _ORDER[word], byte]


def text_matrix(column: np.ndarray, style: str = "%.17g") -> np.ndarray:
    """Each value's text as a row of a uint8 matrix, with NULs in between.

    Dropping the NULs of row i leaves the text of column[i].  Integers are
    written as str(v) in either style: by the float kernel's '%.17g' on their
    float64 values when every |v| < 2**53, where the two texts agree, else by
    '%d'.  Every other column is written as style % float(v), with style
    '%.17g' or '%r'.
    """
    if column.dtype.kind in "iu":
        if len(column) and -2 ** 53 < int(column.min()) and int(column.max()) < 2 ** 53:
            return _float_text(column.astype(np.float64), "%.17g")
        return _cpython(column, "%d")
    return _float_text(column.astype(np.float64, copy=False), style)
