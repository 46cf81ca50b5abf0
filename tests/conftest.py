"""Fixtures shared by the test modules."""

import math

import pytest

from optomech import fock
from optomech import hamiltonians as ham


@pytest.fixture
def nan_bogoliubov_builder():
    """An ``H4_bogoliubov_form`` builder whose first mechanical factor holds
    one NaN entry, to be put into ``ham.BUILDERS`` where a test needs a build
    that fails."""
    def build(params, ops, r_convention="exact"):
        H = ham.h4_bogoliubov_form(params, ops, r_convention)
        (mech, opt), *rest = H.terms
        mech = mech.copy()
        mech[0, 1] = math.nan
        return fock.OperatorMatrix(H.space, ((mech, opt), *rest))
    return build
