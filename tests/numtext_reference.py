"""repr's shortest-digit choice as the number kernel first made it, in long double.

Tests compare oqwalk._numtext._shortest against this copy: the same decided
mask, digits and exponent on the same kernel front, so that no value is newly
decided outside the bound the module docstring states.
"""

import numpy as np

from oqwalk import _numtext
from oqwalk._numtext import _DBL_MIN, _K_HI, _K_LO, _LD, _REL_ERR


def front(x: np.ndarray, log10=np.log10):
    """The kernel's front for a float64 array: |x|, R17, D - R17, its error bound,
    the shifted exponent k and the row of k's power of ten."""
    pow10 = _numtext._tables()[0]
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        k = np.floor(log10(np.where((ax > 0) & (ax < np.inf), ax, 1.0))).astype(np.intp)
        k -= _K_LO
        row = _K_HI - _K_LO - k
        d = ax.astype(_LD) * pow10[row]
        r = np.rint(d)
        off = (d - r).astype(np.float64)
        r = r.astype(np.int64)
    return ax, r, off, r * _REL_ERR, k, row


def shortest(ax, r, off, err, k, scale) -> np.ndarray:
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
