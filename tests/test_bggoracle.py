"""The classical polynomial oracle against textbook values and the pipeline."""

import ast
import sys
from pathlib import Path

from flagcohom import bggoracle
from flagcohom.bggoracle import ChowOracle
from flagcohom.rootdata import RootDatum
from flagcohom.selfcheck import CheckContext, check_chow_oracle


def test_a2_textbook_values():
    oracle = ChowOracle(RootDatum.build("A2"))
    # classical Chow ring of the full flag threefold, in b-coordinates
    assert oracle.product((1, 2), (2, 1)) == {(1,): 1, (2,): 1}
    assert oracle.product((1, 2), (1, 2)) == {(2,): 1}
    assert oracle.product((1,), (1, 2)) == {(): 1}
    assert oracle.product((1,), (2,)) == {}
    assert oracle.unit_coords() == {(1, 2, 1): 1}


def test_oracle_torsion():
    assert ChowOracle(RootDatum.build("A2")).t == 1
    assert ChowOracle(RootDatum.build("G2")).t == 2


def test_oracle_matches_pipeline_b2():
    ok, detail = check_chow_oracle(CheckContext(types=("B2",)))
    assert ok, detail


def test_oracle_imports_only_the_standard_library():
    # An oracle that shared the pipeline's code would share its faults.
    tree = ast.parse(Path(bggoracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in bggoracle"
            imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names
