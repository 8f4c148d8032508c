"""One benchmark child process: a flagcohom CLI command, in one of three modes.

    python3 perfbench/child.py MODE REPORT -- CLI-ARGS...

``full``   runs the command through ``flagcohom.cli.main``.
``setup``  runs the same command and exits as soon as set-up is done.
``trace``  runs the command with every layer wrapped by ``tracer`` and the
           pipeline driven phase by phase.

Set-up ends when the basis is ready: on return from ``FlagBasis(...)`` for
``table``, on entry to ``BSRing(...)`` for ``bs``.  The moment is written to
REPORT as a ``time.monotonic`` reading, comparable across processes, so
that the parent can measure it from the spawn.  In ``trace`` mode REPORT
also receives the phase times and the per-layer metrics, and the spans go
to REPORT's name with a ``.spans.json`` suffix.  The command's own output
goes to stdout as usual.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from flagcohom import bott, cli, flagring  # noqa: E402

import tracer  # noqa: E402


class SetupDone(Exception):
    """Stops a ``setup`` child once the basis is ready."""


def hook_ready(command, report, stop):
    """Record the moment set-up ends; raise SetupDone after it if ``stop``."""

    def mark():
        if "ready" not in report:
            report["ready"] = time.monotonic()
            if stop:
                raise SetupDone

    if command == "table":
        cls, when = flagring.FlagBasis, "after"
    else:
        cls, when = bott.BSRing, "before"
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        if when == "before":
            mark()
        init(self, *args, **kwargs)
        if when == "after":
            mark()

    cls.__init__ = __init__


class PhaseDriver:
    """Runs the CLI with its collaborators replaced by phase-timed ones.

    ``table`` builds the basis and then fills each lazily computed cache in
    its own phase, in the order the CLI fills them, before the table is
    assembled from the warm basis.  Without this, the first consumer of a
    cache (``unit_class``) would be charged for computing kappa.  ``bs``
    needs no staging: its phases already run one after another.
    """

    TABLE = (
        "rootdata.build_s", "fgl.law_s", "flagring.basis_s", "fgring.kappa_s",
        "flagring.chains_s", "flagring.transition_s", "flagring.unit_s",
        "flagring.products_s", "tables.render_s",
    )
    BS = (
        "rootdata.build_s", "fgl.law_s", "fgring.ring_s",
        "bott.presentation_s", "bott.tangent_s",
    )

    def __init__(self, t):
        self.t = t

    def phase(self, name, fn, *args, **kwargs):
        return self.t.call(name, fn, args, kwargs)

    def install(self):
        from flagcohom.rootdata import RootDatum
        from flagcohom.tables import MultiplicationTable, make_theory

        build = RootDatum.__dict__["build"].__func__
        RootDatum.build = staticmethod(
            lambda *a, **k: self.phase("rootdata.build_s", build, *a, **k)
        )
        cli.make_theory = lambda *a, **k: self.phase("fgl.law_s", make_theory, *a, **k)
        ring_cls, bs_cls = cli.FormalGroupRing, cli.BSRing
        cli.FormalGroupRing = lambda *a: self.phase("fgring.ring_s", ring_cls, *a)
        cli.BSRing = lambda *a: self.phase("bott.presentation_s", bs_cls, *a)
        tangent = bott.BSRing.tangent_chern_class
        bott.BSRing.tangent_chern_class = lambda ring: self.phase(
            "bott.tangent_s", tangent, ring
        )
        render = MultiplicationTable.render_text
        MultiplicationTable.render_text = lambda table: self.phase(
            "tables.render_s", render, table
        )

        def staged_table(datum, theory, trunc, raw=False):
            law, _ = self.phase("fgl.law_s", make_theory, theory, trunc)
            basis = self.phase("flagring.basis_s", flagring.FlagBasis, datum, law)
            for i in range(1, datum.rank + 1):
                self.phase("fgring.kappa_s", basis.fgr.kappa_element, i)
            for w in basis.elements:
                self.phase("flagring.chains_s", basis.c_of_u0, w)
            self.phase("flagring.transition_s", basis.transition_matrix)
            self.phase("flagring.unit_s", basis.unit_class)
            return self.phase(
                "flagring.products_s", MultiplicationTable,
                datum, theory, trunc, raw=raw, basis=basis,
            )

        cli.MultiplicationTable = staged_table

    def metrics(self):
        """Inclusive time of every phase; a phase the command lacks reads 0."""
        return {name: self.t.incl_s[name] for name in dict.fromkeys(self.TABLE + self.BS)}


def main(argv):
    mode, report_path = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    report = {}
    t = None
    if mode == "trace":
        t = tracer.Tracer()
        driver = PhaseDriver(t)
        tracer.instrument(t)
        driver.install()
    else:
        hook_ready(cli_args[0], report, stop=mode == "setup")
    try:
        rc = cli.main(cli_args)
    except SetupDone:
        rc = 0
    sys.stdout.flush()
    if t is not None:
        report["phases"] = driver.metrics()
        report["layers"] = tracer.layer_metrics(t)
        with open(report_path + ".spans.json", "w") as fh:
            json.dump(t.span_records(), fh)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
