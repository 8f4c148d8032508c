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
    ops = a2_universal.ln_operation(1)(a2_universal.basis_class(a2_universal.by_word[(1, 2)]))
    nontrivial = {t: c for t, c in ops.items() if tweight(t) == 1}
    ((texp, out),) = nontrivial.items()
    assert out.coords == {(2,): a2_universal.ring.one()}


def test_requires_universal_theory():
    fb = FlagBasis(RootDatum.build("A2"), FormalGroupLaw.additive(7))
    with pytest.raises(RingMismatchError):
        fb.ln_operation(1)



@pytest.mark.parametrize("bound", [2, 4])
def test_operations_read_degrees_up_to_n_and_list_every_index(a2_universal, bound):
    from itertools import product

    fine = FlagBasis(a2_universal.datum, FormalGroupLaw.universal(2 * a2_universal.N + 3))
    incl = a2_universal.ring.morphism({m: fine.ring.gen(m) for m in a2_universal.ring.names}, fine.ring)
    indices = {t for t in product(range(bound + 1), repeat=bound) if tweight(t) <= bound}
    S, fine_S = a2_universal.ln_operation(bound), fine.ln_operation(bound)
    for w in a2_universal.elements:
        ops = S(a2_universal.basis_class(w))
        fine_ops = fine_S(fine.basis_class(fine.by_word[w.canonical_word]))
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


def test_ln_builds_its_coefficient_map_once_and_solves_once_per_word(monkeypatch):
    # phi depends only on the law and the bound, and the beta_w carry no t,
    # so one twist serves every word and each word's image is solved once.
    calls = {"twist": 0, "solve": 0}
    twist, solve = FormalGroupLaw.twist, FlagBasis._solve

    def counted_twist(law, lam):
        calls["twist"] += 1
        return twist(law, lam)

    def counted_solve(basis, image):
        calls["solve"] += 1
        return solve(basis, image)

    monkeypatch.setattr(FormalGroupLaw, "twist", counted_twist)
    monkeypatch.setattr(FlagBasis, "_solve", counted_solve)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["ln", "--type", "A3", "--bound", "2"])
    assert rc == 0
    words = {line.split(" ")[1] for line in out.getvalue().splitlines()[1:]}
    assert len(words) == 23
    assert calls == {"twist": 1, "solve": 23}
