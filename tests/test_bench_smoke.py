"""The benchmark harness still drives the package.

``perfbench`` wraps package names from outside: ``s_act``, ``delta``,
``delta_neg``, ``delta_root``, ``theta``, ``x_lambda_series``,
``kappa_element`` and ``torsion_and_u0`` of ``FormalGroupRing``;
``__init__``, ``c_of_u0``, ``eps_vector``, ``basis_product``,
``transition_matrix``, ``unit_class`` and ``fgr`` of ``FlagBasis``;
``bott.BSRing.__init__`` and ``BSRing.tangent_chern_class``;
``RootDatum.build``; ``cli.FormalGroupRing``, ``cli.BSRing``,
``cli.make_theory`` and ``cli.MultiplicationTable``, which it calls as
``(datum, theory, trunc, raw=..., basis=...)``;
``MultiplicationTable.render_text``; ``LazardBasis.__init__`` and
``to_a_basis``; ``TruncatedSeries.__mul__``, ``substitute`` and
``exact_divide``; ``CoeffPoly.__mul__``; and ``FormalGroupLaw._validate``.
No command builds a formal group ring any more: ``cli.FormalGroupRing`` is
kept only for the harness, which wraps it in trace mode.  Its smoke run
(about 5 s) fails when one of them is renamed or removed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
