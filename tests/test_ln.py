"""Coefficient operations extracted from the twisted coordinate change."""

import itertools

import pytest

from flagcohom.errors import RingMismatchError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.flagring import FlagBasis
from flagcohom.rootdata import RootDatum


def tweight(texp):
    return sum((k + 1) * v for k, v in enumerate(texp))


def test_empty_index_is_identity(a2_universal):
    for w in a2_universal.elements:
        cls = a2_universal.basis_class(w)
        ops = a2_universal.ln_operation(2, cls)
        empty = next(t for t in ops if tweight(t) == 0)
        assert (ops[empty] - cls).is_zero()


def test_grading(a2_universal):
    for w in a2_universal.elements:
        cls = a2_universal.basis_class(w)
        codim = a2_universal.N - w.length
        for texp, out in a2_universal.ln_operation(2, cls).items():
            assert out.codim_weights_ok(codim + tweight(texp))


def test_multiplicativity_weight_two(a2_universal):
    gens = list(a2_universal.elements)
    for wa, wb in itertools.combinations(gens, 2):
        ca = a2_universal.basis_class(wa)
        cb = a2_universal.basis_class(wb)
        lhs = a2_universal.ln_operation(2, ca * cb)
        Sa = a2_universal.ln_operation(2, ca)
        Sb = a2_universal.ln_operation(2, cb)
        for I in lhs:
            rhs = a2_universal.zero_class()
            for J in Sa:
                for K in Sb:
                    if tuple(a + b for a, b in zip(J, K)) == I:
                        rhs = rhs + Sa[J] * Sb[K]
            assert (lhs[I] - rhs).is_zero()


def test_weight_one_on_divisor_class(a2_universal):
    ops = a2_universal.ln_operation(1, a2_universal.basis_class(a2_universal.by_word[(1, 2)]))
    nontrivial = {t: c for t, c in ops.items() if tweight(t) == 1}
    ((texp, out),) = nontrivial.items()
    assert out.coords == {(2,): a2_universal.ring.one()}


def test_requires_universal_theory():
    fb = FlagBasis(RootDatum.build("A2"), FormalGroupLaw.additive(7))
    with pytest.raises(RingMismatchError):
        fb.ln_operation(1, fb.point_class())
