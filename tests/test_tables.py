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
from flagcohom.reference import REFERENCE_TABLES, parse_poly
from flagcohom.rootdata import RootDatum
from flagcohom.schema import validate
from flagcohom.tables import MultiplicationTable, build_table, make_theory


@pytest.fixture(scope="module")
def a2_table(a2, a2_universal):
    return MultiplicationTable(a2, "universal", basis=a2_universal)


@pytest.fixture(scope="module")
def b2_table(b2, b2_universal):
    return MultiplicationTable(b2, "universal", basis=b2_universal)


def test_a2_reference(a2_table):
    assert a2_table.matches_reference(REFERENCE_TABLES["A2"]) == []


def test_b2_reference(b2_table):
    assert b2_table.matches_reference(REFERENCE_TABLES["B2"]) == []


def test_line_counts(a2_table, b2_table):
    assert len(a2_table.lines) == 4
    assert len(b2_table.lines) == 8


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


def test_chow_table_is_specialized_reference(a2):
    table = build_table(a2, "chow")
    ref = REFERENCE_TABLES["A2"]
    ring = table.out_ring
    lines = {(e.left, e.right): e.coords for e in table.lines}
    for left, right, coords in ref:
        key = (
            tuple(int(c) for c in left),
            tuple(int(c) for c in right) if right is not None else None,
        )
        got = lines[key]
        # drop the a-terms from the reference
        want = {}
        for name, text in coords.items():
            value = sum(
                (c for e, c in _aparse(text) if all(x == 0 for x in e)), 0
            )
            if value:
                want[name] = ring.const(value)
        assert got == want


def _aparse(text):
    ring_names = [f"a{i}" for i in range(1, 7)]
    from flagcohom.coeffring import CoeffRing

    ring = CoeffRing(tuple((n, i + 1) for i, n in enumerate(ring_names)), True)
    return parse_poly(ring, text).sorted_terms()


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


def test_log_law_table_builds_no_kappa(monkeypatch):
    # In log coordinates the push-pull operators are divided differences of
    # u r(-+L_i) (fgring's quotient identity): a table never builds kappa.
    def refuse(*args):
        raise AssertionError("kappa built")

    monkeypatch.setattr(FormalGroupLaw, "log_kappa", refuse)
    monkeypatch.setattr(FormalGroupRing, "kappa_element", refuse)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["table", "--type", "A3", "--theory", "universal"])
    assert rc == 0
    # the digest of test_cli.test_table_a3_universal_bytes
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "fbefc5dc7f943121719e446e4d956c54c693132fb3b91604935a538499764c63"
    )


@pytest.mark.parametrize(
    "theory, digest",
    [
        ("universal", "fbefc5dc7f943121719e446e4d956c54c693132fb3b91604935a538499764c63"),
        ("ktheory", "e3788edb318af8948af8a94d01bc4095fa2928380a016fb10d228c705989820a"),
        ("connective", None),
    ],
)
def test_tables_run_series_operators_only_over_the_additive_law(theory, digest, monkeypatch):
    # The Chow model reads a law only through r(t) = t/exp(t): the series
    # chains a table runs are the Chow core's, where r = 1.
    cc_neg = FormalGroupRing.cc_neg

    def additive_only(fgr, i, u):
        r = fgr.law.log_ratio()
        if not (r == r.const(r.ring, 1, r.trunc, 1)):
            raise AssertionError(f"Cs over the {fgr.law.tag} law")
        return cc_neg(fgr, i, u)

    monkeypatch.setattr(FormalGroupRing, "cc_neg", additive_only)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["table", "--type", "A3", "--theory", theory])
    assert rc == 0
    if digest is not None:
        # the digests of test_cli's byte pins
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


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
