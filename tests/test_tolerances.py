"""Capacity caps and the recorded tolerances."""

from entropic_doubling.tolerances import MAX_DENSE_N, MAX_JOINT_BITS, tolerances_dict


def test_defaults():
    assert MAX_DENSE_N == 12
    assert MAX_JOINT_BITS == 24


def test_tolerances_dict_recorded_values():
    tols = tolerances_dict()
    assert tols["identity"] == 1e-9
    assert tols["oracle"] == 1e-12
    assert tols["mass_eps"] == 1e-15
