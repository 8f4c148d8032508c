"""Outside-in tracing of the flagcohom pipeline.

Public entry points of the package modules are replaced, on their classes,
by wrappers that time each call.  The package source is not changed:
everything here runs in the benchmark's child process after the package is
imported.

Every wrapped call pushes a frame.  When it returns, its duration is added
to its inclusive time, its duration minus the wrapped calls beneath it is
added to its self time, and its call count goes up by one.  Layer calls
are also kept in memory as spans (name, start, end, parent span) and
written out once at the end of the run.  Kernel calls (series and
coefficient arithmetic, hundreds of thousands of calls on a table) are
aggregated only, so the trace stays small.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.origin = clock()
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []
        # frame: [start, time covered by wrapped children, nearest span id]
        self.stack = []

    def call(self, name, fn, args, kwargs, span=True):
        stack = self.stack
        parent = stack[-1][2] if stack else None
        span_id = parent
        if span:
            span_id = len(self.spans)
            self.spans.append(None)
        start = clock()
        frame = [start, 0.0, span_id]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.incl_s[name] += dur
            self.self_s[name] += dur - frame[1]
            if span:
                self.spans[span_id] = (name, start, end, parent)

    def wrap(self, owner, attr, name, span=True, before=None, after=None):
        """Replace owner.attr by a timed wrapper recorded under ``name``.

        ``before`` sees the call's arguments and ``after`` its result; both
        run outside the timed frame.
        """
        raw = owner.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            out = self.call(name, fn, args, kwargs, span)
            if after is not None:
                after(out)
            return out

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        return wrapper

    def span_records(self):
        """Spans with times in seconds from the tracer's creation."""
        return [
            {
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
            }
            for name, start, end, parent in self.spans
        ]


class FirstSeen:
    """Per-instance key sets, to tell cache misses from hits outside-in."""

    def __init__(self):
        self._seen = weakref.WeakKeyDictionary()

    def is_new(self, owner, key):
        seen = self._seen.setdefault(owner, set())
        if key in seen:
            return False
        seen.add(key)
        return True


def instrument(t):
    """Wrap the public entry points of the traced modules with tracer ``t``."""
    from flagcohom import coeffring, fgl, fgring, flagring, lazard, tseries

    FGR = fgring.FormalGroupRing
    FB = flagring.FlagBasis
    TS = tseries.TruncatedSeries
    CP = coeffring.CoeffPoly

    # Validation has no public entry point of its own; this private method
    # is the one exception to wrapping public calls only.
    t.wrap(fgl.FormalGroupLaw, "_validate", "fgl.validate")
    t.wrap(FGR, "torsion_and_u0", "fgring.torsion")
    t.wrap(FGR, "s_act", "fgring.s_act")
    for attr in ("delta", "delta_neg", "delta_root"):
        t.wrap(FGR, attr, "fgring.delta")
    t.wrap(FGR, "theta", "bott.theta")
    t.wrap(FB, "eps_vector", "flagring.eps_vector")
    t.wrap(lazard.LazardBasis, "__init__", "lazard.build")
    t.wrap(lazard.LazardBasis, "to_a_basis", "lazard.to_a")

    # The x_lambda and product caches never evict, so a key's first call
    # on an instance is its miss.
    lambdas = FirstSeen()

    def x_lambda_key(fgr, lam):
        if lambdas.is_new(fgr, tuple(int(c) for c in lam)):
            t.counts["fgring.x_lambda_misses"] += 1

    t.wrap(FGR, "x_lambda_series", "fgring.x_lambda", span=False, before=x_lambda_key)

    products = FirstSeen()

    def product_key(basis, w1, w2):
        key = tuple(sorted((len(w.canonical_word), w.canonical_word) for w in (w1, w2)))
        if not products.is_new(basis, key):
            t.counts["flagring.product_hits"] += 1

    t.wrap(FB, "basis_product", "flagring.basis_product", before=product_key)

    def terms_out(series):
        if isinstance(series, TS):
            t.counts["tseries.mul_terms_out"] += sum(
                len(p.terms) for p in series.coeffs.values()
            )

    TS.__rmul__ = t.wrap(TS, "__mul__", "tseries.mul", span=False, after=terms_out)
    t.wrap(TS, "substitute", "tseries.substitute", span=False)
    t.wrap(TS, "exact_divide", "tseries.exact_divide", span=False)
    CP.__rmul__ = t.wrap(CP, "__mul__", "coeffring.mul", span=False)


def layer_metrics(t):
    """Per-layer metrics gathered by the wrappers of :func:`instrument`."""
    return {
        "fgl.validate_s": t.incl_s["fgl.validate"],
        "fgl.validate_calls": t.calls["fgl.validate"],
        "fgring.torsion_s": t.incl_s["fgring.torsion"],
        "fgring.x_lambda_misses": t.counts["fgring.x_lambda_misses"],
        "fgring.s_act_calls": t.calls["fgring.s_act"],
        "fgring.s_act_s": t.self_s["fgring.s_act"],
        "fgring.delta_calls": t.calls["fgring.delta"],
        "fgring.delta_s": t.self_s["fgring.delta"],
        "flagring.eps_vector_calls": t.calls["flagring.eps_vector"],
        "flagring.product_calls": t.calls["flagring.basis_product"],
        "flagring.product_hits": t.counts["flagring.product_hits"],
        "bott.theta_calls": t.calls["bott.theta"],
        "tseries.mul_calls": t.calls["tseries.mul"],
        "tseries.mul_s": t.self_s["tseries.mul"],
        "tseries.mul_terms_out": t.counts["tseries.mul_terms_out"],
        "tseries.substitute_calls": t.calls["tseries.substitute"],
        "tseries.substitute_s": t.self_s["tseries.substitute"],
        "tseries.exact_divide_calls": t.calls["tseries.exact_divide"],
        "tseries.exact_divide_s": t.self_s["tseries.exact_divide"],
        "coeffring.mul_calls": t.calls["coeffring.mul"],
        "coeffring.mul_s": t.self_s["coeffring.mul"],
        "lazard.build_s": t.incl_s["lazard.build"],
        "lazard.to_a_s": t.incl_s["lazard.to_a"],
    }
