"""Basis classes, transition matrix, products, push-forward, operators."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from flagcohom.bggoracle import ChowOracle
from flagcohom.errors import InsufficientPrecisionError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.flagring import FlagBasis, default_truncation
from flagcohom.reference import RANK4_TORSION, REFERENCE_TORSION
from flagcohom.rootdata import RootDatum
from flagcohom.selfcheck import (
    CheckContext,
    check_chow_model,
    check_eps_functionals,
    check_table_ring_axioms,
)
from flagcohom.tables import MultiplicationTable, make_theory


def test_char_map_delta_variant_on_unit(a2_universal):
    vec = a2_universal.eps_vector(a2_universal.fgr.one(), "D")
    for word, val in vec.items():
        want = a2_universal.ring.one() if word == () else a2_universal.ring.zero()
        assert val == want


def test_char_map_delta_on_u0(a2_universal):
    vec = a2_universal.eps_vector(a2_universal.torsion.u0, "D")
    w0 = a2_universal.w0.canonical_word
    for word, val in vec.items():
        want = a2_universal.ring.const(a2_universal.t) if word == w0 else a2_universal.ring.zero()
        assert val == want


def test_char_map_c_variant_on_unit(a2_universal):
    # coordinate at w is eps C_{I_w}(1), the kappa-product augmentation
    vec = a2_universal.eps_vector(a2_universal.fgr.one(), "C")
    fgr = a2_universal.fgr
    for w in a2_universal.elements:
        direct = fgr.c_word(w.canonical_word, fgr.one()).constant_term()
        assert vec[w.canonical_word] == direct


def test_char_map_augmentation_zero(a2_universal):
    u = a2_universal.fgr.x_lambda_series((1, 1))
    vec = a2_universal.eps_vector(u, "D")
    assert vec[()].is_zero()


def test_char_map_precision(a2_universal):
    with pytest.raises(InsufficientPrecisionError):
        a2_universal.eps_vector(a2_universal.fgr.one().restrict(1), "C")
    short = a2_universal.fgr.one().restrict(a2_universal.N - 1)
    for variant in ("Cs", "C", "D"):
        with pytest.raises(InsufficientPrecisionError):
            a2_universal.eps_vector(short, variant)


def test_eps_functionals_match_operator_chains():
    ok, detail = check_eps_functionals(CheckContext(seed=7))
    assert ok, detail


def test_bclass_empty_is_point(a2_universal):
    cls = a2_universal.bclass(())
    assert cls.coords == {(): a2_universal.ring.one()}


def test_bclass_canonical_words_are_basis_vectors(b2_universal):
    for w in b2_universal.elements:
        cls = b2_universal.bclass(w.canonical_word)
        assert cls.coords == {w.canonical_word: b2_universal.ring.one()}


def test_bclass_non_reduced_additive_vanishes():
    datum = RootDatum.build("A2")
    fb = FlagBasis(datum, FormalGroupLaw.additive(7))
    assert fb.bclass((1, 1)).is_zero()


def test_bclass_other_reduced_word_unit_coefficient(b2_universal):
    # 2121 is the non-canonical reduced word of the longest element
    cls = b2_universal.bclass((2, 1, 2, 1))
    assert cls.coords[b2_universal.w0.canonical_word] == b2_universal.ring.one()


def test_transition_diagonal_and_vanishing(b2_universal):
    P = b2_universal.transition_matrix()
    datum = b2_universal.datum
    N = b2_universal.N
    for v in b2_universal.elements:
        for w in b2_universal.elements:
            entry = P[(v.canonical_word, w.canonical_word)]
            if v.length + w.length < N:
                assert entry.is_zero()
            elif v.length + w.length == N:
                w0w = datum.multiply(b2_universal.w0, w)
                if v.matrix == w0w.matrix:
                    assert entry == b2_universal.ring.const(b2_universal.t)
                else:
                    assert entry.is_zero()
    # column w of P is c(t * b_w), so back substitution recovers b_w
    for w in b2_universal.elements:
        column = {v.canonical_word: P[(v.canonical_word, w.canonical_word)]
                  for v in b2_universal.elements}
        assert b2_universal.class_of(column, 1) == b2_universal.basis_class(w)


def test_transition_additive_matches_oracle():
    from flagcohom.bggoracle import ChowOracle

    datum = RootDatum.build("A2")
    fb = FlagBasis(datum, FormalGroupLaw.additive(7))
    oracle = ChowOracle(datum)
    P = fb.transition_matrix()
    words = [w.canonical_word for w in fb.elements]
    for i, v in enumerate(words):
        for j, w in enumerate(words):
            assert P[(v, w)].constant_term() == oracle.P[i][j]


def test_products_a2(a2_universal, a2_lazard):
    W = a2_universal.by_word
    prod = a2_universal.basis_product(W[(1, 2)], W[(1, 2)])
    assert prod.coords == {(2,): a2_universal.ring.one()}
    prod = a2_universal.basis_product(W[(2, 1)], W[(2, 1)])
    assert prod.coords == {(1,): a2_universal.ring.one()}
    prod = a2_universal.basis_product(W[(1, 2)], W[(2, 1)])
    conv = {w: a2_lazard.to_a_basis(c) for w, c in prod.coords.items()}
    a1 = a2_lazard.a_ring.gen("a1")
    assert conv == {(1,): a2_lazard.a_ring.one(), (2,): a2_lazard.a_ring.one(), (): a1}


def test_product_shortcuts(a2_universal):
    W = a2_universal.by_word
    # lengths summing below N vanish
    assert a2_universal.basis_product(W[(1,)], W[(2,)]).is_zero()
    # lengths summing to N give the duality rule
    assert a2_universal.basis_product(W[(1,)], W[(1, 2)]).coords == {
        (): a2_universal.ring.one()
    }
    assert a2_universal.basis_product(W[(1,)], W[(2, 1)]).is_zero()


def series_chain(fb, w):
    """Cs_{I_w^rev}(u0) by series operators over the basis' own law."""
    u = fb.torsion.u0
    for i in w.canonical_word:
        u = fb.cs(i, u)
    return u


def test_duality_shortcut_matches_algorithm(b2_universal):
    # Recompute length-sum-N products through the characteristic map of the
    # series chains and compare with the duality rule the shortcut implements.
    fb = b2_universal
    for w1 in fb.elements:
        for w2 in fb.elements:
            if w1.length + w2.length != fb.N:
                continue
            u = series_chain(fb, w1).restrict(fb.N) * series_chain(fb, w2).restrict(fb.N)
            got = fb.class_of(fb.eps_vector(u), 2)
            want = fb.basis_product(w1, w2)
            assert got == want, (w1.canonical_word, w2.canonical_word)


@functools.lru_cache(maxsize=None)
def table_basis(typ, theory):
    datum = RootDatum.build(typ)
    law, _ = make_theory(theory, default_truncation(datum))
    return FlagBasis(datum, law)


@functools.lru_cache(maxsize=None)
def table_chain(typ, theory, w):
    return series_chain(table_basis(typ, theory), w).restrict(table_basis(typ, theory).N)


def reference_eps(fb, u):
    """{word: eps Cs_{I_w}(u)} by series operator chains, shared by suffix."""
    memo = {(): u.restrict(fb.N)}

    def chain(word):
        if word not in memo:
            memo[word] = fb.cs(word[0], chain(word[1:]))
        return memo[word]

    return {word: chain(word).constant_term() for word in fb.by_word}


@pytest.mark.parametrize(
    "typ,theory", [("A2", "universal"), ("B2", "universal"), ("B2", "ktheory"), ("B3", "chow")]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_class_table_matches_back_substitution(typ, theory, data):
    # eps_vector and class_from each read Phi(u) in the Chow model.  The
    # reference runs the series operator chains over the law's own ring, and
    # class_of solves P x = eps(u) for that one column.
    fb = table_basis(typ, theory)
    ring, rank = fb.ring, fb.datum.rank
    coefficients = [ring.one()] + [ring.gen(name) for name in ring.names[:2]]
    exponent = st.tuples(*[st.integers(0, fb.N)] * rank).filter(lambda e: sum(e) <= fb.N)
    scalar = st.tuples(st.integers(-3, 3), st.sampled_from(coefficients))
    terms = data.draw(st.dictionaries(exponent, scalar, max_size=8))
    u = fb.fgr.from_monomials({e: c * p for e, (c, p) in terms.items()}).restrict(fb.N)
    w1, w2 = data.draw(st.lists(st.sampled_from(fb.elements), min_size=2, max_size=2))
    product = table_chain(typ, theory, w1) * table_chain(typ, theory, w2)
    for k in (1, 2):
        # t^k u has an integral class; the product is t^2 b_w1 b_w2.
        for v in (u.scale(fb.t ** k), product):
            eps = reference_eps(fb, v)
            assert fb.eps_vector(v) == eps
            assert fb.class_from(v, k) == fb.class_of(eps, k)


def test_product_commutes_and_associates(a2_universal):
    W = a2_universal.by_word
    a = a2_universal.basis_class(W[(1, 2)])
    b = a2_universal.basis_class(W[(2, 1)])
    c = a2_universal.basis_class(W[(1,)])
    assert (a * b - b * a).is_zero()
    assert ((a * b) * c - a * (b * c)).is_zero()


def test_unit_class_acts_as_identity():
    ok, detail = check_table_ring_axioms(CheckContext(seed=7))
    assert ok, detail


def test_pushforward_point_values(a2_universal):
    assert a2_universal.point_class().pr() == a2_universal.ring.one()
    # additive specialization: eps C_{I_{w0}}(1) = 0
    datum = RootDatum.build("A2")
    fb = FlagBasis(datum, FormalGroupLaw.additive(7))
    assert fb.unit_class().pr().is_zero()


def test_a_operator_concatenation(a2_universal):
    W = a2_universal.by_word
    pt = a2_universal.point_class()
    b1 = a2_universal.a_operator(1, pt)
    assert b1.coords == {(1,): a2_universal.ring.one()}
    chained = a2_universal.a_operator(1, a2_universal.a_operator(2, pt))
    assert chained == a2_universal.bclass((2, 1))


def test_a_operator_squares_to_zero_additive():
    datum = RootDatum.build("A2")
    fb = FlagBasis(datum, FormalGroupLaw.additive(7))
    pt = fb.point_class()
    assert fb.a_operator(1, fb.a_operator(1, pt)).is_zero()


def test_a_chain_unit_coefficient(b2_universal):
    # Applying the word of w0 letter by letter to pt lands on a class with
    # unit coefficient one.
    cls = b2_universal.point_class()
    for i in reversed(b2_universal.w0.canonical_word):
        cls = b2_universal.a_operator(i, cls)
    assert cls.coords[b2_universal.w0.canonical_word] == b2_universal.ring.one()


def test_b_operator_on_generators(a2_universal):
    W = a2_universal.by_word
    # B_i lowers the filtration like delta; on the additive model it is the
    # signed version of A_i.  Here just check linearity against the u-route.
    cls = a2_universal.basis_class(W[(1, 2)])
    out = a2_universal.b_operator(1, cls)
    out2 = a2_universal.b_operator(1, cls.scale(3))
    assert out.scale(3) == out2


def test_display_coords_roundtrip(a2, a2_universal):
    # The table's longest line reads b_w0 over {1} u {b_w : w != w0}:
    # c_1 * unit + sum c_w b_w, back in the m-ring, must be b_w0.
    table = MultiplicationTable(a2, "universal", basis=a2_universal)
    coords = {n: table.lazard.from_a_basis(c) for n, c in table.longest.coords.items()}
    back = a2_universal.unit_class().scale(coords.pop("1"))
    for name, c in coords.items():
        back = back + a2_universal.basis_class(a2_universal.by_word[table.word_of[name]]).scale(c)
    assert (back - a2_universal.basis_class(a2_universal.w0)).is_zero()


def test_homogeneity_of_products(b2_universal):
    W = b2_universal.by_word
    N = b2_universal.N
    prod = b2_universal.basis_product(W[(1, 2, 1)], W[(2, 1, 2)])
    assert prod.codim_weights_ok((N - 3) + (N - 3))


@pytest.mark.parametrize("name", ["a2_universal", "b2_universal"])
def test_operators_on_top_class_at_default_truncation(name, request):
    # The model applies T_i to the image of the class.  At truncation 2N + 3,
    # sum_w coords_w Cs_{I_w^rev}(u0) by series chains is valid to degree
    # N + 2, enough for one more series operator and the characteristic map,
    # so it is the reference.
    fb = request.getfixturevalue(name)
    wide = FlagBasis(fb.datum, FormalGroupLaw.universal(2 * fb.N + 3))

    def direct(op, i, cls):
        u = wide.fgr.zero()
        for w in wide.elements:
            if w.canonical_word in cls.coords:
                u = u + series_chain(wide, w) * cls.coords[w.canonical_word]
        u = {"a_operator": wide.cs, "b_operator": wide.fgr.delta}[op](i, u)
        return wide.class_of(wide.eps_vector(u), 1)

    def text(cls):
        return {w: str(c) for w, c in cls.coords.items()}

    for make in (lambda b: b.basis_class(b.w0), lambda b: b.unit_class()):
        for i in range(1, fb.datum.rank + 1):
            for op in ("a_operator", "b_operator"):
                got = getattr(fb, op)(i, make(fb))
                assert text(got) == text(direct(op, i, make(wide)))


def test_chow_model_intertwines_the_push_pull_operators():
    ok, detail = check_chow_model(CheckContext(seed=3, fast=True))
    assert ok, detail


def _chow_core(typ):
    """The Chow core of an additive basis: its vectors are {element index: integer}."""
    datum = RootDatum.build(typ)
    return FlagBasis(datum, FormalGroupLaw.additive(default_truncation(datum)))._core()


def _times(core, vector, b):
    """(sum_x c_x e_x) e_b."""
    out = {}
    for x, c in vector.items():
        for y, d in core.product(x, b).items():
            out[y] = out.get(y, 0) + c * d
    return {y: c for y, c in out.items() if c}


@pytest.mark.parametrize("typ", ["A3", "B3", "G2"])
def test_chow_core_products_commute_and_associate(typ):
    core = _chow_core(typ)
    size = core.top + 1
    for a in range(size):
        for b in range(a, size):
            assert core._leibniz(b, a) == core.product(a, b)
    rng = random.Random(7)
    for _ in range(150):
        a, b, c = (rng.randrange(size) for _ in range(3))
        left = _times(core, core.product(a, b), c)
        assert left == _times(core, core.product(b, c), a)
        assert left == _times(core, core.product(a, c), b)


@pytest.mark.parametrize("typ", ["A3", "B3", "G2"])
def test_chow_core_products_obey_chevalley_and_leibniz(typ):
    # A divisor class acts as Chevalley's formula on either factor, and D_i
    # is a twisted derivation at every i, not only at the ascent read off.
    core = _chow_core(typ)
    size, datum = core.top + 1, core.datum
    rng = random.Random(11)
    for _ in range(150):
        a, b = rng.randrange(size), rng.randrange(size)
        product = core.product(a, b)
        for j in range(datum.rank):
            omega = datum.fundamental_weight(j)
            want = core.multiply(omega, product)
            assert _times(core, core.multiply(omega, {a: 1}), b) == want
            assert _times(core, core.multiply(omega, {b: 1}), a) == want
        for i, up in enumerate(core.up):
            derivative = {up[y]: c for y, c in product.items() if up[y] is not None}
            want = {}
            terms = []
            if up[a] is not None:
                terms.append(core.product(up[a], b))
            if up[b] is not None:
                terms.append(core.product(a, up[b]))
                if up[a] is not None:
                    square = core.product(up[a], up[b])
                    alpha = datum.simple_roots[i]
                    terms.append({y: -c for y, c in core.multiply(alpha, square).items()})
            for term in terms:
                for y, c in term.items():
                    want[y] = want.get(y, 0) + c
            assert derivative == {y: c for y, c in want.items() if c}


@pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
def test_chow_core_products_match_the_polynomial_oracle(typ):
    core, oracle = _chow_core(typ), ChowOracle(RootDatum.build(typ))
    words = [w.canonical_word for w in oracle.elements]
    assert words == [w.canonical_word for w in core.datum.weyl_elements()]
    for a, wa in enumerate(words):
        for b, wb in enumerate(words[a:], start=a):
            want = {w: c for w, c in oracle.product(wa, wb).items() if c}
            assert {words[x]: c for x, c in core.product(a, b).items()} == want


TYPES_TO_RANK4 = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3", "A4", "B4", "C4", "D4"]


@pytest.mark.parametrize("typ", TYPES_TO_RANK4)
def test_class_table_torsion_index_matches_the_bezout_fold(typ):
    datum = RootDatum.build(typ)
    t = FlagBasis(datum, FormalGroupLaw.additive(default_truncation(datum))).t
    assert t == {**REFERENCE_TORSION, **RANK4_TORSION, "A1": 1, "D3": 1}[typ]  # D3 = A3


def test_chow_core_walks_its_class_table_once(monkeypatch):
    # The characteristic map keeps every layer of the class table, and the
    # core keeps the degree-N values when the walk ends, so a basis that
    # reads an image, t and the Bezout witness walks the table once.
    from flagcohom import flagring

    walks = []
    layers = flagring._Chow.layers

    def counted(core):
        walks.append(core)
        return layers(core)

    monkeypatch.setattr(flagring._Chow, "layers", counted)
    datum = RootDatum.build("B3")
    fb = FlagBasis(datum, FormalGroupLaw.additive(default_truncation(datum)))
    assert fb.class_from(fb.fgr.one(), 0) == fb.unit_class()
    assert fb.t == fb.torsion.t == 2
    assert fb.class_from(fb.torsion.u0, 1) == fb.point_class()
    assert len(walks) == 1
