"""Number text: the kernel's bytes against format(v, ".17g"), repr(v) and str(v)."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqwalk import _numtext
from oqwalk.cli import _rows

DBL_MAX = 1.7976931348623157e308


@contextmanager
def kernel_for_any_length():
    # short arrays otherwise go straight to CPython
    with mock.patch.object(_numtext, "_SMALL", 0):
        yield


def lines(values, style="%.17g") -> str:
    """The text of each value, one per line, as the writer puts it."""
    with kernel_for_any_length():
        return _rows([np.zeros(0, np.uint8), np.frombuffer(b"\n", np.uint8)],
                     [_numtext.text_matrix(np.asarray(values), style)])


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
    # (all of them where long double is no wider than double)
    assert sum(handed) < 0.03 * len(values) or not _numtext._KERNEL


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


# ---------------------------------------------------------------- repr style

def assert_same_repr(values):
    got = lines(np.array(values, dtype=float), "%r").splitlines()
    want = [repr(float(v)) for v in values]
    wrong = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert not wrong and len(got) == len(want), wrong[:5]


def with_neighbours(values):
    return [u for v in values for u in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]


REPR_EXAMPLES = {
    "zeros-and-extremes": [0.0, -0.0, 5e-324, 2.2250738585072014e-308, DBL_MAX],
    "powers-of-two": with_neighbours([math.ldexp(1.0, e) for e in range(-1074, 1024)]),
    "powers-of-ten": with_neighbours([float(f"1e{q}") for q in range(-323, 309)]),
    # the fixed/scientific seams: k = 15 | 16 and k = -4 | -5
    "seam-1e16": [9999999999999998.0, 1e16, 1.0000000000000002e16, 1.5e16, 1.2345678901234567e16],
    "seam-1e-4": [0.0001, 9.999999999999999e-05, 1e-05, 0.00012345678901234567],
    "integral": [1.0, 100.0, 1e15, 123456789012345.0, 1234567890123456.0, 7.0, 1e22, 1e23],
}


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=50))
@example([0.0, -0.0, math.inf, -math.inf, math.nan])
@example(REPR_EXAMPLES["zeros-and-extremes"])
@example(REPR_EXAMPLES["seam-1e16"])
@example(REPR_EXAMPLES["seam-1e-4"])
@example(REPR_EXAMPLES["integral"])
def test_floats_match_repr(values):
    assert_same_repr(values + [-v for v in values])


@pytest.mark.parametrize("family", sorted(REPR_EXAMPLES))
def test_repr_families_match(family):
    values = REPR_EXAMPLES[family]
    assert_same_repr(values + [-v for v in values])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_format_families_match_repr(family):
    values = FAMILIES[family]
    assert_same_repr(values + [-v for v in values])


def test_repr_carry_to_the_next_power_of_ten(monkeypatch):
    # numpy's log10 may be an ulp off.  One ulp low at 1e23 (the double below
    # 10**23) gives k = 22 and R15 = 10**15, which is written as 1 at k = 23;
    # a correctly rounded log10 leaves every such value to CPython instead.
    log10 = np.log10
    monkeypatch.setattr(_numtext.np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    values = REPR_EXAMPLES["powers-of-ten"]
    assert_same_repr(values + [-v for v in values])


@pytest.mark.skipif(not _numtext._KERNEL, reason="long double is no wider than double here")
def test_repr_leaves_under_three_percent_to_cpython():
    # the roundings and interval edges within 2*err, powers of two,
    # subnormals, log10 misses, inf and nan: ~1% of random bit patterns
    rng = np.random.default_rng(17)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 2 ** 17, dtype=np.uint64).view(float),
        rng.choice([-1.0, 1.0], 2 ** 17) * rng.random(2 ** 17)
        * 10.0 ** rng.integers(-300, 300, 2 ** 17)])
    with counting_cpython() as handed:
        text = lines(values, "%r")
    assert text == "%r\n" * len(values) % tuple(values.tolist())
    assert sum(handed) < 0.03 * len(values)


def test_repr_without_the_kernel_leaves_every_value_to_cpython():
    values = np.array([0.1, 1e300, -2.5e-310, 7.0, 1e16, -0.0, math.inf] * 100)
    with counting_cpython() as handed:
        kernel = lines(values, "%r")
    with counting_cpython() as handed_all, mock.patch.object(_numtext, "_KERNEL", False):
        fallback = lines(values, "%r")
    assert kernel == fallback == "".join(repr(v) + "\n" for v in values.tolist())
    assert handed_all == [len(values)]
    assert sum(handed) < len(values) or not _numtext._KERNEL


def test_integer_columns_ignore_the_style():
    values = np.array([0, 1, -7, 10 ** 15, 2 ** 53 - 1, -(2 ** 53 - 1)] * 50, dtype=np.int64)
    assert lines(values, "%r") == lines(values) == expected(values.tolist())


@pytest.mark.slow
def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(1701)
    for _ in range(40):                     # 40 * 2**18 > 1e7 values
        values = rng.integers(0, 2 ** 64, 2 ** 18, dtype=np.uint64).view(float)
        if lines(values, "%r") != "%r\n" * len(values) % tuple(values.tolist()):
            assert_same_repr(values.tolist())
