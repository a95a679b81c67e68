"""CSV number text: the kernel's bytes against format(v, ".17g") and str(v)."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqwalk import _numtext
from oqwalk.cli import _csv_rows

DBL_MAX = 1.7976931348623157e308


@contextmanager
def kernel_for_any_length():
    # short arrays otherwise go straight to CPython
    with mock.patch.object(_numtext, "_SMALL", 0):
        yield


def lines(values) -> str:
    """The text of each value, one per line, as the CSV writer puts it."""
    with kernel_for_any_length():
        return _csv_rows([_numtext.text_matrix(np.asarray(values))])


def expected(values) -> str:
    return "".join(f"{v:.17g}\n" if isinstance(v, float) else f"{v}\n" for v in values)


def assert_same_text(values):
    got, want = lines(values).splitlines(), expected(values).splitlines()
    wrong = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert not wrong and len(got) == len(want), wrong[:5]


@contextmanager
def counting_cpython():
    """Count the values that the kernel hands to CPython."""
    handed = []
    cpython = _numtext._cpython

    def count(values, conversion):
        handed.append(len(values))
        return cpython(values, conversion)

    with kernel_for_any_length(), mock.patch.object(_numtext, "_cpython", count):
        yield handed


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=50))
@example([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, DBL_MAX, -DBL_MAX])
def test_floats_match_format(values):
    assert_same_text(values)


def powers_of_ten_and_neighbours():
    values = []
    for q in range(-323, 309):
        v = float(f"1e{q}")
        values += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    return values


FAMILIES = {
    # m/4 above 1e15 has 18 significant digits: the 17-digit rounding of
    # m/4 + 0.25 and m/4 + 0.75 is an exact tie
    "quarter-ties": [1e15 + m / 4 for m in range(4000)],
    "powers-of-ten": powers_of_ten_and_neighbours(),
    "near-2**53": [float(2 ** 53 + i) for i in range(-64, 65)],
    "near-1e16": [1e16 + 2 * i for i in range(-64, 65)],
    "near-1e17": [1e17 + 16 * i for i in range(-64, 65)],
    "extremes": [5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308, DBL_MAX,
                 math.nextafter(DBL_MAX, 0.0)],
    "fixed-to-scientific": [9.9999999999999995e-05, 1e-4, 1.5e-4, 0.001, 0.5, 1.0, 123.25,
                            1e15 + 0.5, 9999999999999998.0, 1.2345678901234567e16,
                            99999999999999984.0],
    "integers": [float(v) for v in range(-3000, 3001)],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_match_format(family):
    values = FAMILIES[family]
    assert_same_text(values + [-v for v in values])


@pytest.mark.parametrize("values", [
    [0, 1, -1, 9, 10, 2 ** 53 - 1, -(2 ** 53 - 1), 123456789012345],
    [2 ** 53, -2 ** 53, 2 ** 53 + 1, 2 ** 62, -2 ** 63, 2 ** 63 - 1],
], ids=["below-2**53", "beyond-2**53"])
def test_int64_columns_are_exact(values):
    assert_same_text(np.array(values, dtype=np.int64).tolist())


def test_uint64_beyond_int64_is_exact():
    values = [0, 5, 2 ** 63, 2 ** 64 - 1]
    assert lines(np.array(values, dtype=np.uint64)) == expected(values)


def test_wide_magnitudes_match_format_and_mostly_skip_cpython():
    # Long-double scaling off a table entry that is itself rounded (10**q
    # for q < 0 or q > 27) decides about 4 in 1e5 of these wrongly when the
    # error bound is left out, so 2**18 values catch that.
    rng = np.random.default_rng(14)
    n = 2 ** 18
    values = np.concatenate([
        rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.integers(-300, 300, n),
        rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(float)])
    with counting_cpython() as handed:
        text = lines(values)
    assert text == "%.17g\n" * len(values) % tuple(values.tolist())
    # the values within the rounding bound, log10 misses and nan: ~1%
    assert sum(handed) < 0.03 * len(values)


def test_power_of_ten_table_is_correctly_rounded():
    pow10 = _numtext._tables()[0]
    bits = np.finfo(np.longdouble).nmant + 1
    for i, v in enumerate(pow10):
        q = 16 - _numtext._K_HI + i
        num, den = v.as_integer_ratio()
        e = num.bit_length() - den.bit_length()        # 2**e <= v < 2**(e + 1)
        if num << max(0, -e) < den << max(0, e):
            e -= 1
        ulp = Fraction(2) ** (e - bits + 1)
        assert abs(Fraction(num, den) - Fraction(10) ** q) <= ulp / 2, q


def test_long_double_no_wider_than_double_leaves_every_value_to_cpython():
    values = np.array([0.1, 1e300, -2.5e-310, 7.0] * 100)
    with counting_cpython() as handed, mock.patch.object(_numtext, "_KERNEL", False):
        text = lines(values)
    assert text == expected(values.tolist())
    assert handed == [len(values)]


@pytest.mark.slow
def test_random_bit_patterns_match_format():
    rng = np.random.default_rng(1401)
    for _ in range(40):                     # 40 * 2**18 > 1e7 values
        values = rng.integers(0, 2 ** 64, 2 ** 18, dtype=np.uint64).view(float)
        got = lines(values)
        want = "%.17g\n" * len(values) % tuple(values.tolist())
        if got != want:
            assert_same_text(values.tolist())
