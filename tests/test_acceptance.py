"""Acceptance gate: one test per criterion, each printing a PASS line.

Quantitative criteria compare exactly (integer/rational identity, zero
tolerance); timed criteria assert their stated wall-clock budgets.
"""

import time

import pytest

from flagcohom.flagring import default_truncation, torsion_bezout
from flagcohom.reference import REFERENCE_TABLES, REFERENCE_TORSION
from flagcohom.rootdata import RootDatum
from flagcohom.selfcheck import (
    CheckContext,
    check_chow_oracle,
    check_dependence_witness,
    check_duality_pairing,
    check_eps_c_reversal,
    check_eps_c_vs_delta,
    check_ln_operations,
    check_operator_identities_cc,
    check_operator_identities_delta,
    check_word_independence,
)
from flagcohom.tables import build_table

RANK2 = ("A2", "B2", "G2")


@pytest.fixture(scope="module")
def ctx():
    """One seeded check context shared by the criteria that run selfcheck probes."""
    return CheckContext(seed=20240, types=RANK2)


@pytest.fixture(scope="module")
def golden_tables():
    """Fresh end-to-end builds of the three rank-2 universal tables, timed."""
    out = {}
    for typ in RANK2:
        t0 = time.time()
        table = build_table(typ, "universal")
        out[typ] = (table, time.time() - t0)
    return out


def report(num, name, ok=True):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_golden_tables(golden_tables):
    expected_lines = {"A2": 4, "B2": 8, "G2": 23}
    for typ in RANK2:
        table, elapsed = golden_tables[typ]
        assert table.trunc == default_truncation(table.datum)
        if typ == "G2":
            assert table.trunc == 13
        problems = table.matches_reference(REFERENCE_TABLES[typ])
        assert problems == [], f"{typ}: {problems}"
        assert len(table.lines) == expected_lines[typ]
        assert elapsed < 60, f"{typ} table took {elapsed:.1f}s"
    report(1, "golden rank-2 tables, exact, under 60s each")


def test_criterion_2_torsion_indices():
    for typ, want in REFERENCE_TORSION.items():
        t0 = time.time()
        t, witness = torsion_bezout(RootDatum.build(typ))
        elapsed = time.time() - t0
        assert t == want, f"{typ}: torsion {t} != {want}"
        assert elapsed < 10, f"{typ} torsion took {elapsed:.1f}s"
    report(2, "reference torsion indices, under 10s each")


def test_criterion_3_a6_absence(golden_tables):
    for typ in RANK2:
        table, _ = golden_tables[typ]
        top = f"a{table.datum.N}"
        for entry in table.lines:
            for name, coeff in entry.coords.items():
                if table.datum.N >= 6:
                    assert not coeff.uses_generator("a6"), (
                        f"{typ}: a6 appears at {name}"
                    )
    report(3, "no a6 in rank-2 universal tables")


def test_criterion_4_chow_oracle(ctx):
    ok, detail = check_chow_oracle(ctx)
    assert ok, detail
    report(4, "additive tables equal the brute-force divided-difference oracle")


def test_criterion_5_operator_identity_suites(ctx):
    assert ctx.samples >= 50
    ok, detail = check_operator_identities_delta(ctx)
    assert ok, detail
    ok, detail = check_operator_identities_cc(ctx)
    assert ok, detail
    ok, detail = check_word_independence(ctx)
    assert ok, detail
    ok, detail = check_dependence_witness(ctx)
    assert ok, detail
    report(5, "operator identities on >=50 random elements; (in)dependence")


def test_criterion_6_duality_and_pushforward(ctx):
    # pr(b_w a_v) = delta_{vw} at A2 and B2; at B2 eps C_I(u0) is invariant
    # under word reversal, and eps delta_I(u0) is t on reduced words of
    # length N and 0 on all other words of length <= N.
    for check in (check_duality_pairing, check_eps_c_reversal, check_eps_c_vs_delta):
        ok, detail = check(ctx)
        assert ok, detail
    report(6, "duality pairing identity; push-forward symmetries at B2")


def test_criterion_7_operations(ctx):
    ok, detail = check_ln_operations(ctx)
    assert ok, detail
    report(7, "operations: identity at the empty index, grading, multiplicativity")


def test_criterion_8_integrality(golden_tables):
    for typ in RANK2:
        table, _ = golden_tables[typ]
        for entry in table.lines:
            for name, coeff in entry.coords.items():
                assert coeff.is_integer(), f"{typ}: fractional coefficient at {name}"
        obj = table.render_json()
        for product in obj["products"]:
            for item in product["result"]:
                assert "/" not in item["coeff"], (
                    f"{typ}: fractional coefficient in {product}"
                )
    # derived theories stay integral too
    for theory in ("chow", "ktheory", "connective"):
        table = build_table("B2", theory)
        for entry in table.lines:
            for coeff in entry.coords.values():
                assert coeff.is_integer()
    report(8, "all emitted table coefficients are integral")
