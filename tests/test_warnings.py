"""The test settings turn a deprecation raised from oqwalk's own code into a failure."""

import warnings

import pytest


def test_a_deprecation_from_oqwalk_fails_and_one_from_elsewhere_does_not():
    with pytest.raises(DeprecationWarning, match="probe"):
        warnings.warn_explicit("probe", DeprecationWarning, "probe.py", 1, module="oqwalk.linear")
    with warnings.catch_warnings(record=True) as caught:
        warnings.warn_explicit("probe", DeprecationWarning, "probe.py", 1, module="probe")
    assert [str(w.message) for w in caught] == ["probe"]
