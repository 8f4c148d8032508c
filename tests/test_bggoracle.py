"""The classical polynomial oracle against textbook values and the pipeline."""

from flagcohom.bggoracle import ChowOracle, oracle_table
from flagcohom.fgl import FormalGroupLaw
from flagcohom.flagring import FlagBasis
from flagcohom.rootdata import RootDatum


def test_a2_textbook_values():
    datum = RootDatum.build("A2")
    products, longest = oracle_table(datum)
    # classical Chow ring of the full flag threefold
    assert products[((1, 2), (2, 1))] == {(1,): 1, (2,): 1}
    assert products[((1, 2), (1, 2))] == {(2,): 1}
    assert products[((1,), (1, 2))] == {(): 1}
    assert products[((1,), (2,))] == {}
    assert longest == {"unit": 1}


def test_oracle_torsion():
    assert ChowOracle(RootDatum.build("A2")).t == 1
    assert ChowOracle(RootDatum.build("G2")).t == 2


def test_oracle_matches_pipeline_b2():
    datum = RootDatum.build("B2")
    products, longest = oracle_table(datum)
    fb = FlagBasis(datum, FormalGroupLaw.additive(9))
    by_word = fb.by_word
    for (a, b), want in products.items():
        cls = fb.basis_product(by_word[a], by_word[b])
        disp, top = cls.display_coords()
        got = {w: int(c.constant_term()) for w, c in disp.items() if not c.is_zero()}
        if not top.is_zero():
            got["unit"] = int(top.constant_term())
        assert got == want
