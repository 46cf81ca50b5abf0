"""Fixtures shared by the test modules."""

import functools
import math
import types

import numpy as np
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


@pytest.fixture
def kron_sum():
    """The reference for ``ModeOperators.assemble``: ``kron_sum(ops, terms)``
    sums np.kron(mechanical factor, nested np.kron of the optical factors)
    over the terms, and returns a stand-in with the ``data`` and
    ``_entry_stats`` that ``build_hamiltonian`` and the tests read.  An
    ``OperatorMatrix``'s own (M_i, O_i) pairs are terms too, so
    ``kron_sum(ops, H.terms)`` is H's dense matrix formed independently of
    its slices."""
    def reference(ops, terms):
        acc = np.zeros((ops.space.dim,) * 2, dtype=complex)
        for mech, *opt in terms:
            optical = functools.reduce(np.kron, [ops.opt.eye if f is None else f for f in opt])
            acc = acc + np.kron(ops.mech.eye if mech is None else mech, optical)
        stats = (np.abs(acc).max(), np.abs(acc - acc.conj().T).max(), bool(np.isfinite(acc).all()))
        return types.SimpleNamespace(data=acc, _entry_stats=stats)
    return reference
