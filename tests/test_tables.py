"""Table assembly, rendering, theory specializations."""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from flagcohom import cli
from flagcohom.errors import InsufficientPrecisionError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.fgring import FormalGroupRing
from flagcohom.flagring import FlagBasis, default_truncation
from flagcohom.reference import REFERENCE_TABLES
from flagcohom.rootdata import RootDatum
from flagcohom.lazard import LazardBasis
from flagcohom.schema import validate
from flagcohom.selfcheck import CheckContext, check_raw_positivity, negative_coefficients
from flagcohom.tables import MultiplicationTable, build_table, custom_law, make_theory, word_name


@pytest.fixture(scope="module")
def a2_table(a2, a2_universal):
    return MultiplicationTable(a2, "universal", basis=a2_universal)


@pytest.fixture(scope="module")
def b2_table(b2, b2_universal):
    return MultiplicationTable(b2, "universal", basis=b2_universal)


def test_reference_check_reports_a_changed_string(b2_table):
    # The published strings are compared as printed: one term added to one
    # coefficient is one mismatch, on its line.
    reference = [(left, right, dict(coords)) for left, right, coords in REFERENCE_TABLES["B2"]]
    assert b2_table.matches_reference(reference) == []
    reference[0][2]["Z_12"] = "2*a2 + a1"
    problems = b2_table.matches_reference(reference)
    assert len(problems) == 1
    assert problems[0].startswith("line ('1212', None): ")
    assert "'Z_12': '2*a2 + a1'" in problems[0]


def test_text_layout(a2_table):
    text = a2_table.render_text()
    lines = text.strip().splitlines()
    assert lines[1] == "Z_121 = 1 + a2*Z_1"
    assert lines[2] == "Z_12^2 = Z_2"
    assert lines[3] == "Z_21^2 = Z_1"
    assert lines[4] == "Z_12*Z_21 = Z_1 + Z_2 + a1*pt"


def test_b2_text_line(b2_table):
    text = b2_table.render_text()
    assert "Z_1212 = 1 + 2*a2*Z_12 + (a3 + -a1*a2)*Z_2" in text


@pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
def test_chow_table_is_specialized_reference(typ):
    # The additive law is the universal one at a_i = 0: the chow table is the
    # universal table mapped coefficientwise, zero coefficients dropped.
    universal, chow = build_table(typ, "universal"), build_table(typ, "chow")
    ring = universal.out_ring
    to_chow = ring.morphism({name: 0 for name in ring.names}, chow.out_ring)
    want = []
    for e in universal.lines:
        coords = {n: to_chow(c) for n, c in e.coords.items()}
        want.append((e.left, e.right, {n: c for n, c in coords.items() if not c.is_zero()}))
    assert [(e.left, e.right, e.coords) for e in chow.lines] == want


def test_connective_table_substitutes_a1(b2):
    # connective: a1 -> v, higher a's -> 0, per the table normalization
    table = build_table(b2, "connective")
    lines = {(e.left, e.right): e.coords for e in table.lines}
    v = table.out_ring.gen("v")
    got = lines[((2, 1, 2), (2, 1, 2))]
    assert got == {"Z_12": table.out_ring.const(2), "Z_2": v}


def test_ktheory_table(b2):
    table = build_table(b2, "ktheory")
    beta = table.out_ring.gen("beta")
    lines = {(e.left, e.right): e.coords for e in table.lines}
    got = lines[((2, 1, 2), (2, 1, 2))]
    assert got == {"Z_12": table.out_ring.const(2), "Z_2": -beta}


@pytest.mark.parametrize("typ", ["A2", "B2"])
def test_multiplicative_law_by_its_log_renders_the_ktheory_table(typ, multiplicative_by_log):
    # One law given by its logarithm -ln(1 - beta x)/beta and by its
    # coefficients, whose logarithm is computed from d_2F(x, 0) = 1 - beta x.
    datum = RootDatum.build(typ)
    trunc = default_truncation(datum)
    by_log = FlagBasis(datum, multiplicative_by_log(trunc))
    by_coefficients = FlagBasis(datum, FormalGroupLaw.multiplicative(trunc))
    assert by_coefficients.law.log == by_log.law.log
    got = MultiplicationTable(datum, "ktheory", basis=by_log).render_text()
    want = MultiplicationTable(datum, "ktheory", basis=by_coefficients).render_text()
    assert got == want


def test_custom_log_theory(tmp_path, b2):
    # the multiplicative logarithm with beta = 1: x + x^2/2 + x^3/3 + ...
    data = {"log": [f"1/{k + 1}" for k in range(1, 9)]}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(data))
    table = build_table(b2, f"custom:{path}")
    lines = {(e.left, e.right): e.coords for e in table.lines}
    got = lines[((2, 1, 2), (2, 1, 2))]
    assert {n: str(c) for n, c in got.items()} == {"Z_12": "2", "Z_2": "-1"}


def test_custom_coefficient_theory(tmp_path, a2):
    data = {"coefficients": {"1,1": "-1"}}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(data))
    table = build_table(a2, f"custom:{path}")
    lines = {(e.left, e.right): e.coords for e in table.lines}
    got = lines[((1, 2), (2, 1))]
    assert {n: str(c) for n, c in got.items()} == {"Z_1": "1", "Z_2": "1", "pt": "-1"}


def test_custom_rejects_nonassociative(tmp_path, a2):
    from flagcohom.errors import AssociativityError

    data = {"coefficients": {"1,1": "1", "2,2": "1"}}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(data))
    with pytest.raises(AssociativityError):
        build_table(a2, f"custom:{path}")


def test_json_schema_roundtrip(a2_table):
    obj = a2_table.render_json()
    validate(obj)
    # and through an actual serialization cycle
    validate(json.loads(json.dumps(obj)))


def test_json_against_jsonschema_if_available(a2_table):
    jsonschema = pytest.importorskip("jsonschema")
    from flagcohom.schema import load_schema

    jsonschema.validate(a2_table.render_json(), load_schema())


def test_json_products_cover_all_pairs(a2_table):
    obj = a2_table.render_json()
    # 5 display generators (pt, Z_1, Z_2, Z_12, Z_21): 15 unordered pairs
    assert len(obj["products"]) == 15
    assert obj["torsion_index"] == 1
    assert obj["root_system"] == {"type": "A2", "rank": 2}


def test_raw_basis_table(a2):
    table = build_table(a2, "universal", raw=True)
    assert table.longest is None
    names = {e for line in table.lines for e in line.coords}
    assert "1" not in names
    lhs = {(line.left, line.right) for line in table.lines}
    assert ((1, 2, 1), (1, 2, 1)) in lhs  # products of the longest class appear
    obj = table.render_json()
    validate(obj)
    assert obj["raw_basis"] is True


def test_low_truncation_rejected(a2):
    with pytest.raises(InsufficientPrecisionError):
        FlagBasis(a2, FormalGroupLaw.universal(a2.N))
    assert FlagBasis(a2, FormalGroupLaw.universal(a2.N + 1)).N == a2.N


@pytest.mark.parametrize(
    "typ, theory",
    [("A2", "universal"), ("B2", "universal"), ("G2", "universal"),
     ("B2", "ktheory"), ("B2", "connective")],
)
def test_table_body_does_not_depend_on_the_truncation(typ, theory):
    # A table reads the law only through degrees <= N: a law built at N + 1
    # renders the default table, the truncation in the header aside.
    datum = RootDatum.build(typ)
    law, _ = make_theory(theory, datum.N + 1)
    head, body = MultiplicationTable(
        datum, theory, basis=FlagBasis(datum, law)
    ).render_text().split("\n", 1)
    want_head, want_body = MultiplicationTable(datum, theory).render_text().split("\n", 1)
    assert body == want_body
    assert head == want_head.replace(
        f"truncation {default_truncation(datum)},", f"truncation {datum.N + 1},"
    )


def test_make_theory_names():
    law, name = make_theory("ktheory:q", 5)
    assert name == "ktheory:q"
    assert law.ring.names == ("q",)
    with pytest.raises(ValueError):
        make_theory("nonsense", 5)


# (type, theory, stdout sha256); A3 universal and ktheory and B3 chow are
# also test_cli's byte pins.
TABLE_PINS = [
    ("A3", "universal", "fbefc5dc7f943121719e446e4d956c54c693132fb3b91604935a538499764c63"),
    ("A3", "ktheory", "e3788edb318af8948af8a94d01bc4095fa2928380a016fb10d228c705989820a"),
    ("A3", "connective", "f881f78673095ad170c4fc3a7adaf14645b793f2bfa0f1441d807d73ef40298f"),
    ("A3", "chow", "33721e5da2cd4511c054ff86630b53a3dc2a406298ea45974f10b46b3c74baba"),
    ("B3", "chow", "395b959ffc2ad7ec005eeff2a4572e3e5bf29b367160185ac40db5650affe25c"),
]


@pytest.mark.parametrize(
    "typ, theory, digest", TABLE_PINS, ids=[f"{typ}-{digest}" for typ, _, digest in TABLE_PINS]
)
def test_chow_tables_run_no_series_and_no_torsion_fold(typ, theory, digest, monkeypatch):
    # Every table is computed in the Chow model, whose core is the Bruhat
    # graph alone: a law enters only through r(t) = t/exp(t), so no table
    # builds a formal group ring or kappa (in log coordinates the push-pull
    # operators are divided differences of u r(-+L_i)), and the torsion
    # index in the header needs no Bezout witness.  ``torsion`` reads its
    # gcd off the same core without building a single series or folding
    # the witness.
    from flagcohom import flagring
    from flagcohom.tseries import TruncatedSeries

    def refuse(*args, **kwargs):
        raise AssertionError("a series route ran")

    monkeypatch.setattr(FormalGroupRing, "__init__", refuse)
    monkeypatch.setattr(FormalGroupLaw, "log_kappa", refuse)
    monkeypatch.setattr(flagring._Chow, "bezout", refuse)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["table", "--type", typ, "--theory", theory])
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    if theory != "chow":
        return

    monkeypatch.undo()
    monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
    monkeypatch.setattr(FormalGroupRing, "__init__", refuse)
    monkeypatch.setattr(flagring._Chow, "bezout", refuse)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["torsion", "--type", "F4"])
    assert rc == 0
    assert out.getvalue() == "6\n"


def test_log_law_table_builds_no_kappa(multiplicative_by_log, monkeypatch):
    # A law given only by its logarithm, with no coefficients to read, takes
    # the same route as the pinned tables: the multiplicative law by its log
    # renders the A3 ktheory pin without a formal group ring or kappa.
    def refuse(*args, **kwargs):
        raise AssertionError("a series route ran")

    monkeypatch.setattr(FormalGroupRing, "__init__", refuse)
    monkeypatch.setattr(FormalGroupLaw, "log_kappa", refuse)
    datum = RootDatum.build("A3")
    basis = FlagBasis(datum, multiplicative_by_log(default_truncation(datum)))
    text = MultiplicationTable(datum, "ktheory", basis=basis).render_text()
    _, _, digest = TABLE_PINS[1]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_custom_laws_with_fractional_coefficients(tmp_path, a2, b2):
    # x + y - xy/2 is the multiplicative law at beta = 1/2: its b-coordinates
    # lie in ZZ[1/2], not in ZZ, and are not checked for integrality.
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"coefficients": {"1,1": "-1/2"}}))
    table = build_table(b2, f"custom:{path}")
    ktable = build_table(b2, "ktheory")
    ring = table.out_ring
    want = []
    for e in ktable.lines:
        coords = {n: c.specialize({"beta": Fraction(1, 2)}, ring) for n, c in e.coords.items()}
        want.append((e.left, e.right, {n: c for n, c in coords.items() if not c.is_zero()}))
    assert [(e.left, e.right, e.coords) for e in table.lines] == want
    assert "Z_212^2 = 2*Z_12 + -1/2*Z_2" in table.render_text()
    # a log law whose a_11 = -2/3 is not integral either
    path.write_text(json.dumps({"log": ["1/3"]}))
    assert build_table(a2, f"custom:{path}").lines


def test_json_reuses_the_text_entries(b2, b2_universal, monkeypatch):
    # Each product and its Lazard conversion are made once: render_json
    # computes and converts only the pairs that the text lines lack.
    table = MultiplicationTable(b2, "universal", basis=b2_universal)
    calls = {"product": 0, "lazard": 0}
    product, to_a = FlagBasis.basis_product, LazardBasis.to_a_basis

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(FlagBasis, "basis_product", counted("product", product))
    monkeypatch.setattr(LazardBasis, "to_a_basis", counted("lazard", to_a))
    obj = table.render_json()
    in_lines = {frozenset((e.left, e.right)) for e in table.lines[1:]}
    outside = [
        p for p in obj["products"]
        if frozenset((table.word_of[p["left"]], table.word_of[p["right"]])) not in in_lines
    ]
    assert 0 < len(outside) < len(obj["products"])
    assert calls["product"] == len(outside)
    assert calls["lazard"] == sum(len(p["result"]) for p in outside)


def test_raw_chow_and_connective_tables_are_positive():
    # Kleiman (1974) and Brion (2002): see check_raw_positivity, which
    # covers A2, B2, G2, A3, B3 and C3.  The same scan finds the negative
    # terms of ktheory, whose signs alternate with codimension.
    ok, detail = check_raw_positivity(CheckContext())
    assert ok, detail
    for typ in ("A2", "B3"):
        ktheory = MultiplicationTable(RootDatum.build(typ), "ktheory", raw=True)
        assert negative_coefficients(ktheory)


@pytest.mark.parametrize("typ", ["A2", "B2", "G2", "A3"])
def test_only_the_longest_square_has_a_longest_coordinate(typ):
    # In the Chow model b_v b_w is beta_v * beta_w, of codimension >= codim v
    # + codim w, and the solve reads its e_w0 coordinate as it stands: only
    # b_w0^2 has a b_w0 coordinate, so display tables rewrite the longest line
    # alone.  The custom laws over Q are not graded: the model makes this so.
    datum = RootDatum.build(typ)
    trunc = default_truncation(datum)
    laws = [make_theory(spec, trunc) for spec in ("universal", "chow", "ktheory", "connective")]
    laws += [(custom_law(data, trunc), "custom") for data in (
        {"coefficients": {"1,1": -1}}, {"log": ["1/2", "-2/3", 3, "5/7"]})]
    w0 = datum.longest_element().canonical_word
    for law, theory in laws:
        table = MultiplicationTable(datum, theory, raw=True, basis=FlagBasis(datum, law))
        pairs = [(e.left, e.right) for e in table.products() if word_name(w0) in e.coords]
        assert pairs == [(w0, w0)], theory
