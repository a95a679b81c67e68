"""Number text: the exact bytes of '%.17g' % v or repr(v) for a whole array at once.

`text(column, style)` returns a column's text as a Text, which puts each
value's text into its row of a uint8 slot of the writer's row matrix, NUL
bytes in between: dropping the NULs of a row leaves its value's text.
`text_matrix(column, style)` is that slot on its own.  Floats get the text of
style % v, with style '%.17g' (CSV) or '%r' (JSON: Python's shortest
round-trip repr), or 'json', which is '%r' with "inf", "-inf" and "nan"
quoted; integers get str(v) in any style.

One kernel serves both styles.  For finite nonzero x take k = floor(log10|x|)
and D = |x| * 10**(16 - k) in long double, with 10**q from a table of
correctly rounded long doubles.  D carries at most two roundings, so it lies
within err = D * eps of the exact product (eps of long double).  When
rint(D) = R17 is in [1e16 + 1, 1e17 - 1], k is exact and R17 has 17 digits.

'%.17g' takes R17 when D is more than err away from the nearest
half-integer: then R17 is the exact value rounded to 17 significant digits.

'%r' takes the first of R15 = round(D/100)*100, R16 = round(D/10)*10 and R17
that lies within half an ulp of x, scaled to D's units by 10**(16 - k).  That
half ulp is 10**(16 - k) * 2**(e - 54) for x = m * 2**e, 1/2 <= m < 1: the
table entry split once into a double mantissa and a binary exponent, so it is
one ldexp in double, a normal double between 1/64 and 256 for every x, equal
to the long double product rounded to double (10**(16 - k) alone overflows a
double for k < -292).  R15 and R16 and their distances to D are taken in
float64 from R17's last two digits and the offset D - R17, all exact but the
one rounding of each distance.  The rounding interval of x is narrower than
the 15-digit grid, so it holds at most one point with 15 or fewer digits,
R15, and R15 with its trailing zeros stripped is the shortest text when it is
inside.  Up to three 16-digit points can be inside, and repr takes the
nearest, R16; R17 is always inside.  A value is decided only when D is more
than 2 * err from every rounding boundary and interval boundary that the
choice depends on.  Powers of two, whose interval is asymmetric, and
subnormals are left undecided.  A carry to 10**17 is written as 1 at k + 1.

R's 17 digits come from constant divisors, the first and then four groups of
four whose text is a table's.  Each value's text is built in four words of
8 bytes: the sign and the '0', '0.', '0.0' or '0.00' of exponents -1..-4,
right-aligned; the core, the digits before the point, '.' and the fraction
digits up to the last nonzero one; and the exponent, e+XX or e-XXX.  The
point, the lead's last byte, the fraction cut and repr's '.0' come from
byte masks per class of k and per count of fraction digits.  '%.17g' writes
fixed notation for -4 <= k < 17 and never '.0'; repr writes it for -4 <= k
< 16, adds '.0' where no fraction digit is left, and writes 1e+16, 1e-05 and
1.5e+16 in scientific notation.  A column's slot is the run of bytes from the
first that some value uses to the last, copied once into the row matrix.

Every value the kernel leaves undecided is formatted by CPython's own style
% v, which Text.put writes over its row: a rounding too close to call, a
log10 off by one, a value in [1e16, 1e17) under '%.17g', inf and nan, about
1% of random values in either style.  ±0 is written directly.  Arrays
shorter than _SMALL go to CPython whole.  Where long double is no wider than
double the bound exceeds 1/2, so every value goes to CPython: the bytes stay
the same and only the speed is lost.  So does every value on a double-double
long double and on big-endian machines, which the byte layout below does not
cover.
"""

from __future__ import annotations

import functools
import math
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
# A value's text is built in 4 little-endian words, 32 bytes read in order:
# bytes 0-7 hold the sign and the lead of exponents -1..-4 ('0', '0.', '0.0',
# '0.00') right-aligned; bytes 8-25 the core: the integer digits, '.' and the
# fraction digits up to the last nonzero one, or for exponents -1..-4 the
# lead's last byte and the digits; bytes 26-30 the exponent, e+XX or e-XXX.
# Over a column the used bytes run from the first prefix byte to the exponent.
_WORDS = 4
_DIGITS0 = _U(0x3030303030303030)      # '0' in each byte
# Fraction lengths L = 0..16 per class (see _tables).
_LENGTHS = 17


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
    # the text of 0000..9999, byte i of each at bit 8i: ten digit bytes broadcast
    digit = np.arange(ord("0"), ord("9") + 1, dtype=_U)
    quads = (digit[:, None, None, None] | digit[:, None, None] << 8 | digit[:, None] << 16
             | digit << 24).ravel()
    # Classes of k: 0..15 fixed with k + 1 integer digits, 16 for k = -1,
    # 17 for k = -4..-2, 18 scientific (k = 16 included: repr writes 1e+16,
    # '%.17g' leaves it to CPython).  Per class: the last integer digit s of
    # the 17 (-1 for 16 and 17, whose lead holds the '0'), and the byte that
    # follows it, '.' or the lead's last '0'.
    k = np.arange(_K_LO, _K_HI + 1)
    fixed = (k >= 0) & (k <= 15)
    lead = (k >= -4) & (k < 0)
    cls = np.where(fixed, k, np.where(lead, 16 + (k < -1), 18))
    split = np.r_[np.arange(16), -1, -1, 0]
    point = np.array([ord(".")] * 17 + [ord("0"), ord(".")])
    # Per class and fraction length L (digits 1..L of the 17, the last nonzero
    # one at L): the masks of the core's bytes j that the digits D (digit i at
    # byte i) keep, j <= s, and that D shifted by one byte keeps, s + 2 <= j
    # <= L + 1; the byte at s + 1 where some fraction digit or a lead follows
    # it; and repr's '.0' at s + 1 where no fraction digit is left of a fixed
    # class.  Digits 1..L come from the 16 fraction digits, so L <= 16.
    j = np.arange(24)
    s = split[:, None, None]
    length = np.arange(_LENGTHS)[None, :, None]
    keep = np.where((j >= s + 2) & (j <= length + 1), 0xFF, 0)
    dot = np.where((j == s + 1) & (length > s), point[:, None, None], 0)
    point_zero = np.where(j == s + 1, ord("."), np.where(j == s + 2, ord("0"), 0))
    dot_zero = np.where((length <= s) & (np.arange(19) < 16)[:, None, None], point_zero, dot)

    def words(masks):       # bytes j of each row as 3 words, one row per word
        return masks.astype(np.uint8).view(_U).reshape(-1, 3).T

    fraction = (np.vstack([words(keep), words(dot)]), np.vstack([words(keep), words(dot_zero)]))
    integer = words(np.where(j <= split[:, None], 0xFF, 0))[:2]
    # Per sign and k: the prefix word, '-' and the lead less its last byte
    prefix = np.zeros((2, len(k)), dtype=_U)
    prefix[1] = _U(ord("-") << 56)
    for v in range(-4, 0):
        head = b"0.000"[:-v]
        prefix[:, v - _K_LO] = [int.from_bytes(t.rjust(8, b"\0"), "little")
                                for t in (head, b"-" + head)]
    # per k: the exponent e+XX or e-XXX of scientific notation, in bytes 26-30
    size = np.abs(k).astype(_U)
    tail = np.where(size < 100, (size // 10 | size % 10 << 8) + _U(0x3030),
                    (size // 100 | size // 10 % 10 << 8 | size % 10 << 16) + _U(0x303030))
    exp = (_U(ord("e")) | np.where(k < 0, _U(ord("-")), _U(ord("+"))) << 8 | tail << 16) << 16
    exp[fixed | lead] = 0
    # half an ulp of a double x = m * 2**e, 1/2 <= m < 1, in D's units is
    # 10**q * 2**(e - 54): 10**q split into a double mantissa and a binary
    # exponent, so that ldexp(half[0], half[1] + e) rounds once, to a normal double
    mant, shift = np.frexp(pow10)
    half = (mant.astype(np.float64), shift.astype(np.int32) - 54)
    return (pow10, half, quads, prefix.ravel(), integer[:, cls], exp, cls * _LENGTHS, fraction)


def _cpython(values: np.ndarray, conversion: str) -> np.ndarray:
    """CPython's text of each value, left-aligned in the rows of a uint8 matrix:
    conversion % v, or for 'json' repr(v) with inf, -inf and nan quoted."""
    if conversion == "json":
        texts = [repr(v) if math.isfinite(v) else f'"{v!r}"' for v in values.tolist()]
    else:
        texts = [conversion % v for v in values.tolist()]
    text = np.array(texts, dtype="S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _shortest(ax, r, off, err, k, row, half) -> np.ndarray:
    """repr's digits: R15, R16 or R17, padded to 17 digits, in place of r.

    R15 = r - r % 100 and R16 = r - r % 10, each rounded up by one unit where
    D - R (the remainder plus the offset off = D - R17, in float64) exceeds
    half a unit; r % 10 is taken from r % 100 in float64, where both are
    exact.  Half an ulp of x in D's units is ldexp of row `row` of the split
    `half` (see _tables), all in double.  A carry to 10**17 becomes 10**16 at
    k + 1.  Returns where the choice is decided (see the module docstring).
    """
    m, e = np.frexp(ax)
    mant, shift = half
    half_ulp = np.ldexp(mant.take(row), shift.take(row) + e)
    margin = 2 * err
    rem100 = r - r // 100 * 100
    f100 = rem100 + off                     # D - R15 before its round up
    rem10 = rem100.astype(np.float64)
    rem10 -= np.floor(rem10 * 0.1) * 10
    f10 = rem10 + off                       # D - R16 before its round up
    up100 = f100 > 50
    up10 = f10 > 5
    dist100 = np.abs(f100 - 100 * up100)
    dist10 = np.abs(f10 - 10 * up10)
    take100 = dist100 < half_ulp
    take10 = dist10 < half_ulp
    decided = (m != 0.5) & (ax >= _DBL_MIN)
    decided &= np.abs(dist100 - half_ulp) > margin
    decided &= np.abs(f100 - 50) > margin
    decided &= take100 | ((np.abs(dist10 - half_ulp) > margin) & (np.abs(f10 - 5) > margin))
    decided &= take100 | take10 | (np.abs(off) < 0.5 - margin)
    r[:] = np.where(take100, r - rem100 + 100 * up100,
                    np.where(take10, r - rem10.astype(np.int64) + 10 * up10, r))
    carry = r == 10 ** 17
    r[carry] = 10 ** 16
    k[carry] += 1
    return decided


class Text:
    """A column's text, for an (n, width) uint8 slot of a block's row matrix.

    `text` holds each value's bytes in a row, NULs in between; the rows `bad`
    take CPython's text, the rows of `fallback`, in their place.  put(slot)
    writes them: dropping the NULs of slot row i leaves the text of value i.
    """

    def __init__(self, text: np.ndarray, bad=None, fallback=None):
        self._text, self._bad, self._fallback = text, bad, fallback
        self.width = max(text.shape[1], 0 if fallback is None else fallback.shape[1])

    def put(self, slot: np.ndarray) -> None:
        used = self._text.shape[1]
        slot[:, :used] = self._text
        slot[:, used:] = 0
        if self._bad is not None:       # the kernel left their bytes NUL
            slot[self._bad, :self._fallback.shape[1]] = self._fallback


def _float_text(x: np.ndarray, style: str) -> Text:
    if not _KERNEL or len(x) < _SMALL:
        return Text(_cpython(x, style))
    pow10, half, quads, prefix, integer, exp, classes, fraction = _tables()
    n = len(x)
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        # zero, inf and nan take k = 0: zero gets D = R = 0, which the layout
        # of k = 0 writes as '0', and D = inf or nan fails the tests below
        k = np.floor(np.log10(np.where((ax > 0) & (ax < np.inf), ax, 1.0))).astype(np.intp)
        k -= _K_LO
        row = _K_HI - _K_LO - k
        d = ax.astype(_LD) * pow10[row]
        r = np.rint(d)
        off = (d - r).astype(np.float64)
        r = r.astype(np.int64)
    err = r * _REL_ERR
    # R in [1e16 + 1, 1e17 - 1], so k is exact
    ok = (r - np.int64(10 ** 16 + 1)).view(_U) <= _U(9 * 10 ** 16 - 2)
    shortest = style != "%.17g"
    if shortest:
        ok &= _shortest(ax, r, off, err, k, row, half)
    else:
        # decidable, and not k = 16, whose 17 integer digits the layout has
        # no room for
        ok &= np.abs(off) + err < 0.5
        ok &= k != 16 - _K_LO
    ok |= ax == 0
    # R's 17 digits: the first, then 16 in four 4-digit groups whose text
    # comes from a table, by constant divisors only
    high = r // 10 ** 8
    first = high // 10 ** 8
    eights = np.empty((2, n), dtype=np.int64)
    np.subtract(high, first * 10 ** 8, out=eights[0])
    np.subtract(r, high * 10 ** 8, out=eights[1])
    groups = np.empty((2, 2, n), dtype=np.int64)          # (first four, last four), word
    np.floor_divide(eights, 10 ** 4, out=groups[0])
    np.subtract(eights, groups[0] * 10 ** 4, out=groups[1])
    tail = quads.take(groups, mode="wrap")
    tail[1] <<= 32
    tail = np.bitwise_or(tail[0], tail[1], out=tail[0])     # digits 1-8, 9-16
    # L, the last nonzero digit of the 16: its byte, found by the exponent of
    # the digit words' nonzero bytes
    at = np.frexp((tail ^ _DIGITS0).astype(np.float64))[1]
    length = np.where(at[1] > 0, at[1] + 64, at[0])
    length += 7
    length >>= 3
    # The words in text order, one row per word.  D holds the 17 digits at
    # bytes 0-16; the core is D on the integer digits, D shifted by one byte
    # on the fraction digits up to L, and the '.' or '0' in between.
    words = np.empty((_WORDS, n), dtype=_U)
    digits = np.empty((3, n), dtype=_U)
    np.left_shift(tail, 8, out=digits[:2])
    digits[0] |= (first + ord("0")).view(_U)
    digits[1] |= tail[0] >> 56
    np.right_shift(tail[1], 56, out=digits[2])
    core = words[1:]
    np.left_shift(digits, 8, out=core)
    core[1:] |= digits[:2] >> 56
    masks = fraction[shortest].take(classes[k] + length, axis=1)
    core &= masks[:3]
    core |= masks[3:]
    digits[:2] &= integer.take(k, axis=1)
    core[:2] |= digits[:2]
    core[2] |= exp[k]
    prefix.take(k + len(exp) * np.signbit(x), out=words[0])
    bad = None
    fallback = None
    if not ok.all():
        bad = np.flatnonzero(~ok)
        words[:, bad] = 0
        fallback = _cpython(x[bad], style)
    # the bytes from the first that some value uses to the last
    used = np.flatnonzero(np.bitwise_or.reduce(words, axis=1).view(np.uint8))
    slots = np.ascontiguousarray(words.T).view(np.uint8)
    return Text(slots[:, used[0]:used[-1] + 1] if len(used) else slots[:, :0], bad, fallback)


def text(column: np.ndarray, style: str = "%.17g") -> Text:
    """A column's text: each value's text as text_matrix writes it."""
    if column.dtype.kind in "iu":
        if len(column) and -2 ** 53 < int(column.min()) and int(column.max()) < 2 ** 53:
            return _float_text(column.astype(np.float64), "%.17g")
        return Text(_cpython(column, "%d"))
    return _float_text(column.astype(np.float64, copy=False), style)


def text_matrix(column: np.ndarray, style: str = "%.17g") -> np.ndarray:
    """Each value's text as a row of a uint8 matrix, with NULs in between.

    Dropping the NULs of row i leaves the text of column[i].  Integers are
    written as str(v) in either style: by the float kernel's '%.17g' on their
    float64 values when every |v| < 2**53, where the two texts agree, else by
    '%d'.  Every other column is written as style % float(v), with style
    '%.17g' or '%r', or 'json': '%r', with "inf", "-inf" and "nan" quoted.
    """
    column_text = text(column, style)
    matrix = np.empty((len(column), column_text.width), dtype=np.uint8)
    column_text.put(matrix)
    return matrix
