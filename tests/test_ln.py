"""Coefficient operations extracted from the twisted coordinate change."""

import contextlib
import hashlib
import io

import pytest

from flagcohom import cli, flagring
from flagcohom.errors import RingMismatchError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.fgring import FormalGroupRing
from flagcohom.flagring import FlagBasis
from flagcohom.rootdata import RootDatum
from flagcohom.tseries import TruncatedSeries


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


def test_ln_runs_no_chain_no_torsion_fold_and_no_multivariate_substitution(monkeypatch):
    # In log coordinates the twist is the coefficient map phi, so ln needs no
    # witness u0, no push-pull chain and no change to y coordinates and back.
    def refuse(*args, **kwargs):
        raise AssertionError("a series route ran for ln")

    substitute = TruncatedSeries.substitute

    def one_variable_only(series, images):
        if series.n_vars > 1:
            raise AssertionError("a multivariate substitution ran for ln")
        return substitute(series, images)

    monkeypatch.setattr(FormalGroupRing, "cc_neg", refuse)
    monkeypatch.setattr(flagring._Chow, "bezout", refuse)
    monkeypatch.setattr(TruncatedSeries, "substitute", one_variable_only)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["ln", "--type", "B2", "--bound", "3"])
    assert rc == 0
    # the digest of test_cli.test_ln_bytes
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "a17ea3a179aba756889bacad9dc9e108af7409945d6ac1fbcfc175460f590f17"
    )
