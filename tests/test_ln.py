"""Coefficient operations extracted from the twisted coordinate change."""

import pytest

from flagcohom.errors import RingMismatchError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.flagring import FlagBasis
from flagcohom.rootdata import RootDatum


def tweight(texp):
    return sum((k + 1) * v for k, v in enumerate(texp))


def test_weight_one_on_divisor_class(a2_universal):
    ops = a2_universal.ln_operation(1, a2_universal.basis_class(a2_universal.by_word[(1, 2)]))
    nontrivial = {t: c for t, c in ops.items() if tweight(t) == 1}
    ((texp, out),) = nontrivial.items()
    assert out.coords == {(2,): a2_universal.ring.one()}


def test_requires_universal_theory():
    fb = FlagBasis(RootDatum.build("A2"), FormalGroupLaw.additive(7))
    with pytest.raises(RingMismatchError):
        fb.ln_operation(1, fb.point_class())
