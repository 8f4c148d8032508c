"""The command-line interface: outputs, determinism, exit codes."""

import ast
import contextlib
import graphlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import flagcohom
from flagcohom.cli import main
from flagcohom.reference import REFERENCE_TORSION
from flagcohom.schema import validate


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


def test_torsion_values():
    for typ, want in REFERENCE_TORSION.items():
        rc, out, err = run_cli(["torsion", "--type", typ])
        assert rc == 0
        assert out == f"{want}\n"


@pytest.mark.parametrize("typ", ["E6", "E8"])
def test_torsion_refuses_large_types_before_enumerating_w(typ, monkeypatch):
    from flagcohom import cli

    built = []
    load = cli.load_datum

    def load_and_keep(args):
        built.append(load(args))
        return built[-1]

    monkeypatch.setattr(cli, "load_datum", load_and_keep)
    rc, out, err = run_cli(["torsion", "--type", typ])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "monomials" in err
    assert built[0]._elements is None


@pytest.mark.parametrize(
    "command, theory, source, order",
    [
        ("table", "chow", "E6", "51,840"),
        ("table", "chow", "cartan:F4", "1,152"),
        ("table", "universal", "cartan:D4", "192"),
        ("ln", "universal", "cartan:D4", "192"),
    ],
)
def test_table_refuses_large_weyl_groups_before_enumerating_w(
    command, theory, source, order, tmp_path, monkeypatch
):
    from flagcohom.rootdata import RootDatum, cartan_matrix

    def enumerate_w(self):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(RootDatum, "_generate", enumerate_w)
    if source.startswith("cartan:"):
        typ = source.split(":")[1]
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps(cartan_matrix(typ[0], int(typ[1:]))))
        where = ["--cartan", str(path)]
    else:
        where = ["--type", source]
    rc, out, err = run_cli([command, *where, "--theory", theory])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and f"|W| = {order} " in err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(flagcohom.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "flagcohom", "torsion", "--type", "B3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{REFERENCE_TORSION['B3']}\n"


def test_cli_import_skips_dataclasses_and_inspect():
    # Both cost startup time on every run; no module of the package needs them.
    # The modules only ``check`` and the tests read stay off the command path
    # too: ``check`` imports them when it runs.
    src = os.path.dirname(os.path.dirname(os.path.abspath(flagcohom.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    skipped = {"dataclasses", "inspect"} | {
        f"flagcohom.{name}" for name in ("reference", "selfcheck", "bggoracle", "schema")
    }
    code = f"import sys, flagcohom.cli; print(sorted({skipped!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_imports_run_one_way_with_fgring_on_top():
    # The formal group ring is the oracle over the Chow model: no module of
    # the command path imports it at module level but ``cli``, which keeps
    # the name for the benchmark harness.
    src = os.path.dirname(os.path.abspath(flagcohom.__file__))
    graph = {}
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                body = ast.parse(fh.read()).body
            graph[name[:-3]] = {
                node.module for node in body if isinstance(node, ast.ImportFrom) and node.level == 1
            }
    order = list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    importers = {name for name, deps in graph.items() if "fgring" in deps}
    assert importers == {"__init__", "cli", "selfcheck"}
    reach = {"fgring"}
    for name in order:
        if graph.get(name, set()) & reach:
            reach.add(name)
    assert reach == {"fgring", "__init__", "__main__", "cli", "selfcheck"}


def test_table_a2_chow_text():
    rc, out, _ = run_cli(["table", "--type", "A2", "--theory", "chow"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1:] == [
        "Z_121 = 1",
        "Z_12^2 = Z_2",
        "Z_21^2 = Z_1",
        "Z_12*Z_21 = Z_1 + Z_2",
    ]


def test_table_a2_universal_text():
    rc, out, _ = run_cli(["table", "--type", "A2", "--theory", "universal"])
    assert rc == 0
    assert "Z_121 = 1 + a2*Z_1" in out
    assert "Z_12*Z_21 = Z_1 + Z_2 + a1*pt" in out


def test_table_a3_universal_bytes():
    # The only rank-3 universal table that reaches weight 6, where the
    # Lazard generators stop being the paper's fixed combinations.
    rc, out, _ = run_cli(["table", "--type", "A3", "--theory", "universal"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fbefc5dc7f943121719e446e4d956c54c693132fb3b91604935a538499764c63"
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        (["table", "--type", "B2", "--theory", "ktheory"],
         "4bc410db7188cbcdfafaad696103bf860636a515a9312fcc9500384899c76dd6"),
        (["bs", "--type", "G2", "--word", "1,2,1,2", "--theory", "ktheory"],
         "64c22d3a71a15cbc487ae10a73c4353b7557e09ddbe4a3da8d59d97fa6710ff9"),
        (["table", "--type", "G2", "--theory", "ktheory"],
         "5a7ddde1dda96607e07b61951675c4b471922ff4208cf1a2c20c9e784e37f882"),
        (["table", "--type", "A3", "--theory", "ktheory"],
         "e3788edb318af8948af8a94d01bc4095fa2928380a016fb10d228c705989820a"),
        (["table", "--type", "C3", "--theory", "connective"],
         "a75ed656d9475f50203aee353f6cf51d60fc7a32e0a2a4f6964b0bb830a88075"),
        (["table", "--type", "B2", "--theory", "connective", "--format", "json"],
         "cbb218ce738fd71267fdd8d082f8cb081cf011c8012320378225ec9656cd6c6a"),
        (["bs", "--type", "A2", "--word", "1,2,1", "--theory", "connective"],
         "8c03d9410ee13a9bd1703eed8f9081576eb4f65fa66570918ba18a9ecf224760"),
        (["bs", "--type", "B2", "--word", "1,2,1,2", "--theory", "ktheory", "--format", "json"],
         "49fe22469cf8e59c1be9a4adb43b7a93da575206fdc30d659ff27f2d155a49b2"),
        (["bs", "--type", "A3", "--word", "1,2,3,1,2,1,3,2,1,3", "--theory", "universal"],
         "4f59ecc731bee974a5be00ef24f0b824e07c9ae7bd8693e0e6952a5ed9c1e362"),
        (["bs", "--type", "A3", "--word", "1,2,3,1,2,1,3,2", "--theory", "ktheory"],
         "1f0449a1aba37d6805929b17c3e3d5617dac1f2801a26e03c34c5eecbf67f2ee"),
        (["bs", "--type", "B3", "--word", "1,2,3,1,2,3,1", "--theory", "connective"],
         "250f85e2ea2fd48d0fe6f07c78bc95a37b0de3797a6797aa8e13e3cf8ad1b832"),
    ],
)
def test_coefficient_law_bytes(args, digest):
    # Laws given by their coefficients (multiplicative, connective) work in
    # log coordinates through the logarithm computed from d_2F(x, 0).  The
    # digests were taken when these laws had a route of their own, in y
    # coordinates with x_lambda as a formal sum of formal multiples.
    rc, out, _ = run_cli(args)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (["table", "--type", "B3", "--theory", "chow"],
         "395b959ffc2ad7ec005eeff2a4572e3e5bf29b367160185ac40db5650affe25c"),
        (["table", "--type", "B3", "--theory", "ktheory"],
         "0dd45f19a4c01b31a5060392aac16ae2aecbe570bd9630e881a95511112fef81"),
        (["table", "--type", "B3", "--theory", "universal"],
         "0580182c4699775bc34cbe60fa3a5b60295986c9cb6f17cf793423aeac8b3a8b"),
        (["table", "--type", "C3", "--theory", "universal"],
         "222b4415297929f53a007d8076674c6b5e62edb1e5a4b65d7a4c8c68fd08d6a3"),
    ],
)
def test_rank3_table_bytes(args, digest):
    # Every entry is a product in the Chow model, solved against the beta_w.
    rc, out, _ = run_cli(args)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (["table", "--type", "D4", "--theory", "chow"],
         "050749060cffb47565fe8d35861533c8c4ac8da11334c3ce3c3940346120fed5"),
        (["table", "--type", "B4", "--theory", "chow"],
         "fcd560c3dcec36792325e04b1ddb108fd34eb540117add3694bec49cf3e0afb2"),
    ],
)
def test_rank4_chow_table_bytes(args, digest):
    # Chevalley's formula and Leibniz's rule give every Chow product; the
    # digests were taken when the products came from series chains.
    rc, out, _ = run_cli(args)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (["ln", "--type", "A2"],
         "7b16a8ca13782ebf8ec849756b4a11bc461c09a9c0f9bc60f67e1417cc2303e2"),
        (["ln", "--type", "B2", "--bound", "3"],
         "a17ea3a179aba756889bacad9dc9e108af7409945d6ac1fbcfc175460f590f17"),
        (["ln", "--type", "G2", "--bound", "2"],
         "790efb83f71fc0a4c2f16588546dcf4b930b7437878a846064ab072d6725c4ab"),
        (["ln", "--type", "B3", "--bound", "2"],
         "65a81925f264ff9993f1b56b870455e6b4dcce83b2a6747c5ed6fe1635c206f5"),
        (["ln", "--type", "B2", "--bound", "3", "--format", "json"],
         "e22c6d9c29526ffa6e0fdeb4c8fed3f3aabd0cdd0886a9cf237f9224e9c4425e"),
    ],
)
def test_ln_bytes(args, digest):
    # The operations map coefficients through the twist and print them in
    # the a-basis, the second consumer of the Lazard conversion.
    rc, out, _ = run_cli(args)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_deterministic():
    runs = [run_cli(["table", "--type", "A2", "--theory", "universal",
                     "--format", "json"]) for _ in range(2)]
    assert runs[0] == runs[1]
    obj = json.loads(runs[0][1])
    validate(obj)


def test_table_custom_cartan(tmp_path):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps([[2, -1], [-1, 2]]))
    rc, out, _ = run_cli(["table", "--cartan", str(path), "--theory", "chow"])
    assert rc == 0
    assert "Z_12^2 = Z_2" in out


def test_table_out_file(tmp_path):
    path = tmp_path / "table.txt"
    rc, out, _ = run_cli(["table", "--type", "A2", "--theory", "chow",
                          "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert "Z_121 = 1" in path.read_text()


def test_raw_basis_flag():
    rc, out, _ = run_cli(["table", "--type", "A2", "--theory", "chow",
                          "--raw-basis"])
    assert rc == 0
    assert "Z_121^2" in out
    assert " 1 + " not in out


def test_bad_input_exit_code(tmp_path):
    rc, _, err = run_cli(["table", "--type", "Q7"])
    assert rc == 1
    assert "error" in err
    rc, _, _ = run_cli(["table"])
    assert rc == 1
    for args in (["bs", "--type", "A2", "--word", "1,2,3"],
                 ["ln", "--type", "A2", "--word", "3"],
                 ["ln", "--type", "A2", "--word", "2,1,2"],
                 ["table", "--type", "A2", "--theory", "ktheory:1x"],
                 ["table", "--type", "A2", "--theory", "connective:v-1"]):
        rc, _, err = run_cli(args)
        assert rc == 1
        assert err.startswith("error: ")
    for name, matrix in (("float", [[2, -1.5], [-1, 2]]), ("empty", [])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(matrix))
        for command in ("table", "torsion"):
            rc, out, err = run_cli([command, "--cartan", str(path)])
            assert rc == 1
            assert out == ""
            assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["table", "bs", "ln", "torsion"])
def test_trunc_is_refused(command, monkeypatch):
    from flagcohom import cli

    def boom(args):
        raise AssertionError("the root datum was built")

    monkeypatch.setattr(cli, "load_datum", boom)
    word = ["--word", "1,2,1"] if command == "bs" else []
    rc, out, err = run_cli([command, "--type", "A2", *word, "--trunc", "60"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "--trunc" in err


@pytest.mark.parametrize(
    "law",
    [
        {"log": ["1/0"]},
        {"coefficients": {"1,1": "1/0"}},
        {"log": 5},
        {"log": "12"},
        "log",
        {"coefficients": [1]},
        {"coefficients": {"1": "-1"}},
    ],
)
def test_malformed_custom_law_is_refused(law, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    rc, out, err = run_cli(["table", "--type", "A2", "--theory", f"custom:{path}"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


def test_bs_command():
    rc, out, _ = run_cli(["bs", "--type", "A2", "--word", "1,2,1",
                          "--theory", "chow"])
    assert rc == 0
    assert "xi1^2 = 0" in out
    assert "xi2^2 = -1*xi1*xi2" in out
    rc, out, _ = run_cli(["bs", "--type", "A2", "--word", "1,2",
                          "--theory", "universal", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["word"] == [1, 2]
    assert obj["relations"][0]["terms"] == []


def test_ln_command():
    rc, out, _ = run_cli(["ln", "--type", "A2", "--bound", "1",
                          "--word", "1,2"])
    assert rc == 0
    assert "S[] Z_12 = Z_12" in out
    assert "S[t1] Z_12 = Z_2" in out
    rc, _, _ = run_cli(["ln", "--type", "A2", "--theory", "chow"])
    assert rc == 1


def test_check_times_go_to_stderr():
    # stdout keeps its fixed lines, byte for byte; each check's wall time goes to stderr.
    from flagcohom.selfcheck import CHECKS

    rc, out, err = run_cli(["check", "--type", "A2", "--fast"])
    assert rc == 0
    names = [name for name, _ in CHECKS]
    assert out == "".join(f"PASS {name}\n" for name in names) + f"# {len(names)}/{len(names)} checks passed\n"
    lines = err.splitlines()
    assert [line.split(" s ", 1)[1] for line in lines] == names
    assert all(float(line.split(" s ", 1)[0]) >= 0 for line in lines)


def test_integrality_exit_code(monkeypatch):
    from flagcohom import cli
    from flagcohom.errors import IntegralityError

    def boom(*args, **kwargs):
        raise IntegralityError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "MultiplicationTable", boom)
    rc, _, err = run_cli(["table", "--type", "A2"])
    assert rc == 2
    assert "integrality" in err


def test_ln_json_format():
    rc, out, _ = run_cli(["ln", "--type", "A2", "--bound", "1",
                          "--word", "1,2", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["weight_bound"] == 1
    assert {"index": "t1", "argument": "Z_12", "value": "Z_2"} in obj["operations"]


@pytest.mark.parametrize(
    "args, order, bound",
    [
        (["bs", "--type", "E6", "--word", "1"], "51,840", "5,040"),
        (["bs", "--type", "E7", "--word", "1"], "2,903,040", "5,040"),
        (["bs", "--type", "E8", "--word", "1"], "696,729,600", "5,040"),
        (["check", "--type", "D4"], "192", "120"),  # check --type builds a universal table
    ],
)
def test_bs_and_check_refuse_large_weyl_groups_before_enumerating_w(
    args, order, bound, monkeypatch
):
    from flagcohom.rootdata import RootDatum

    def enumerate_w(self):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(RootDatum, "_generate", enumerate_w)
    start = time.perf_counter()
    rc, out, err = run_cli(args)
    assert time.perf_counter() - start < 1
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert f"|W| = {order} " in err and f"over the bound of {bound}" in err


def test_bs_admits_f4():
    rc, out, _ = run_cli(["bs", "--type", "F4", "--word", "1,2"])
    assert rc == 0
    assert out.startswith("# tower presentation: type F4, word 1,2, theory universal")


def test_bs_refuses_long_words_before_building_a_tower(monkeypatch):
    from flagcohom import cli

    def boom(*args, **kwargs):
        raise AssertionError("a tower ring was built")

    monkeypatch.setattr(cli, "BSRing", boom)
    rc, out, err = run_cli(["bs", "--type", "A3", "--word", ",".join("123" * 13 + "1")])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "at most" in err


@pytest.mark.parametrize("args", [["--bound", "22"], ["--word", "1,2", "--bound", "1000000000"]])
def test_ln_refuses_large_bounds_before_building_the_law(args, monkeypatch):
    from flagcohom import cli

    def boom(*args, **kwargs):
        raise AssertionError("a law was built")

    monkeypatch.setattr(cli, "make_theory", boom)
    rc, out, err = run_cli(["ln", "--type", "A2", *args])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and "over the bound of 20,000" in err


def test_ln_counts_its_indices_as_partitions():
    from flagcohom.cli import _index_count
    from flagcohom.lazard import weighted_monomials

    for bound in range(13):
        weights = tuple(range(1, bound + 1))
        want = sum(len(weighted_monomials(weights, w)) for w in range(bound + 1))
        assert _index_count(bound) == want
    # A2 has 5 words besides w0: bound 21 is the last one under the cap
    assert 5 * _index_count(21) == 17_530


def test_readme_documents_every_cli_option():
    import argparse
    import re

    from flagcohom.cli import build_parser

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt
        for parser in sub.choices.values()
        for action in parser._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert options - documented == set(), "options missing from the README"
    assert documented - options == set(), "README options the CLI does not have"
