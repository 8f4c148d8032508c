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



@pytest.mark.parametrize("bound", [2, 4])
def test_operations_read_degrees_up_to_n_and_list_every_index(a2_universal, bound):
    from itertools import product

    fine = FlagBasis(a2_universal.datum, FormalGroupLaw.universal(2 * a2_universal.N + 3))
    incl = a2_universal.ring.morphism({m: fine.ring.gen(m) for m in a2_universal.ring.names}, fine.ring)
    indices = {t for t in product(range(bound + 1), repeat=bound) if tweight(t) <= bound}
    for w in a2_universal.elements:
        ops = a2_universal.ln_operation(bound, a2_universal.basis_class(w))
        fine_ops = fine.ln_operation(bound, fine.basis_class(fine.by_word[w.canonical_word]))
        assert set(ops) == set(fine_ops) == indices
        for texp, cls in ops.items():
            assert {v: incl(c) for v, c in cls.coords.items()} == fine_ops[texp].coords
