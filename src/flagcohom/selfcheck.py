"""The invariant self-check suite behind the ``check`` CLI command.

Every property the package promises is exercised here with seeded
pseudorandom probes: coefficient-ring axioms, the series kernel contracts,
Weyl-group combinatorics against a brute-force count, the operator identity
families, torsion indices, the reference rank-2 tables, duality and
push-forward, specialization coherence with the classical oracle, the
coefficient operations, and the CLI determinism/schema round trip.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from .bggoracle import oracle_table
from .bott import BSRing, bs_pushforward
from .coeffring import CoeffRing
from .errors import DegreeValidityError
from .fgl import FormalGroupLaw
from .fgring import FormalGroupRing
from .flagring import FlagBasis, default_truncation, torsion_bezout
from .lazard import LazardBasis
from .reference import REFERENCE_TABLES, REFERENCE_TORSION
from .rootdata import RootDatum
from .schema import validate
from .tables import MultiplicationTable
from .tseries import TruncatedSeries

POINCARE_EXPONENTS = {
    "A1": (1,), "A2": (1, 2), "A3": (1, 2, 3), "B2": (1, 3), "C2": (1, 3),
    "B3": (1, 3, 5), "C3": (1, 3, 5), "G2": (1, 5), "D4": (1, 3, 3, 5),
}


class CheckContext:
    def __init__(self, seed=0, types=("A2", "B2", "G2"), fast=False):
        self.rng = random.Random(seed)
        self.types = tuple(types)
        self.fast = fast
        self.samples = 12 if fast else 50
        self._data = {}

    def datum(self, typ):
        return self._cache(("datum", typ), lambda: RootDatum.build(typ))

    def universal_basis(self, typ):
        def build():
            datum = self.datum(typ)
            law = FormalGroupLaw.universal(default_truncation(datum))
            return FlagBasis(datum, law)

        return self._cache(("ubasis", typ), build)

    def universal_table(self, typ):
        return self._cache(
            ("utable", typ),
            lambda: MultiplicationTable(
                self.datum(typ), "universal", basis=self.universal_basis(typ)
            ),
        )

    def chow_table(self, typ):
        return self._cache(
            ("chow", typ), lambda: MultiplicationTable(self.datum(typ), "chow")
        )

    def small_universal_ring(self, typ, trunc=6):
        def build():
            return FormalGroupRing(self.datum(typ), FormalGroupLaw.universal(trunc))

        return self._cache(("small", typ, trunc), build)

    def _cache(self, key, builder):
        if key not in self._data:
            self._data[key] = builder()
        return self._data[key]

    def random_poly(self, ring, max_weight=4, nterms=3):
        from .coeffring import CoeffPoly

        terms = {}
        for _ in range(nterms):
            exps = [0] * ring.ngens
            budget = self.rng.randint(0, max_weight)
            while budget > 0 and ring.ngens:
                i = self.rng.randrange(ring.ngens)
                w = ring.weights[i]
                if w > budget:
                    break
                exps[i] += 1
                budget -= w
            c = self.rng.randint(-4, 4)
            if c:
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
        return CoeffPoly(ring, terms)

    def random_series_element(self, fgr, max_deg=3, nterms=4):
        terms = {}
        for _ in range(nterms):
            deg = self.rng.randint(0, max_deg)
            e = [0] * fgr.n
            for _ in range(deg):
                e[self.rng.randrange(fgr.n)] += 1
            c = self.rng.randint(-3, 3)
            if c:
                key = tuple(e)
                terms[key] = terms.get(key, 0) + c
        return fgr.from_monomials(terms)


# ---------------------------------------------------------------------------
# individual checks; each returns (ok, detail)


def check_coeffring_axioms(ctx):
    ring = CoeffRing((("a1", 1), ("a2", 2), ("a3", 3)))
    for _ in range(ctx.samples):
        p = ctx.random_poly(ring)
        q = ctx.random_poly(ring)
        r = ctx.random_poly(ring)
        if (p * q) * r != p * (q * r):
            return False, "associativity fails"
        if p * (q + r) != p * q + p * r:
            return False, "distributivity fails"
        if p * q != q * p:
            return False, "commutativity fails"
    return True, ""


def check_specialize_morphism(ctx):
    ring = CoeffRing((("a1", 1), ("a2", 2)))
    target = CoeffRing((("v", 1),))
    v = target.gen("v")
    assignment = {"a1": v, "a2": v * v - 2}
    for _ in range(ctx.samples):
        p = ctx.random_poly(ring)
        q = ctx.random_poly(ring)
        lhs = (p * q).specialize(assignment, target)
        rhs = p.specialize(assignment, target) * q.specialize(assignment, target)
        if lhs != rhs:
            return False, f"specialize not multiplicative on {p}, {q}"
    return True, ""


def check_lazard_roundtrip(ctx):
    # The a_ij generate the integral subring, so every a_ij of weight <= 9
    # converting integrally proves ZZ[a1..a9] is all of it in those weights.
    bound = 9
    law = FormalGroupLaw.universal(bound + 1)
    laz = LazardBasis(law, bound)
    table = law.a_table
    pool = sorted(ij for ij in table if 1 <= sum(ij) - 1 <= bound)
    for i, j in pool:
        conv = laz.to_a_basis(table[(i, j)])
        if not conv.is_integer() or laz.from_a_basis(conv) != table[(i, j)]:
            return False, f"a{i}{j} does not round-trip integrally"
    for _ in range(10):
        p = law.ring.one()
        weight = 0
        while True:
            i, j = pool[ctx.rng.randrange(len(pool))]
            if weight + i + j - 1 > bound:
                break
            p = p * table[(i, j)]
            weight += i + j - 1
            if ctx.rng.random() < 0.4:
                break
        conv = laz.to_a_basis(p)
        if laz.from_a_basis(conv) != p:
            return False, "roundtrip failed"
    return True, ""


def check_series_divide(ctx):
    ring = CoeffRing((("c", 1),))
    for _ in range(ctx.samples // 2):
        a = _random_series(ctx, ring, 2, 8)
        b = _random_series(ctx, ring, 2, 8, unit_linear=True)
        q = (a * b).exact_divide(b)
        if not (q == a):
            return False, "exact_divide(create*b, b) != a"
    return True, ""


def _random_series(ctx, ring, n, trunc, unit_linear=False):
    terms = {}
    if unit_linear:
        e = [0] * n
        e[ctx.rng.randrange(n)] = 1
        terms[tuple(e)] = ring.const(ctx.rng.choice((1, 2, -1, 3)))
    for _ in range(5):
        deg = ctx.rng.randint(1 if unit_linear else 0, 3)
        e = [0] * n
        for _ in range(deg):
            e[ctx.rng.randrange(n)] += 1
        c = ctx.rng.randint(-3, 3)
        if c and (tuple(e) not in terms):
            terms[tuple(e)] = ring.const(c)
    return TruncatedSeries.from_terms(ring, n, trunc, terms)


def check_series_substitution_functorial(ctx):
    ring = CoeffRing(())
    trunc = 7
    x = TruncatedSeries.variable(ring, 2, trunc, 0)
    y = TruncatedSeries.variable(ring, 2, trunc, 1)
    for _ in range(6):
        s = _random_series(ctx, ring, 2, trunc)
        f = [x + y * y, y + x * y]
        g = [y, x + y]
        fg = [img.substitute(g) for img in f]
        lhs = s.substitute(f).substitute(g)
        rhs = s.substitute(fg)
        if not (lhs == rhs):
            return False, "substitution is not functorial"
    return True, ""


def check_series_degree_trap(ctx):
    ring = CoeffRing(())
    s = TruncatedSeries.variable(ring, 2, 6, 0).restrict(2)
    try:
        s.coefficient((3, 0))
    except DegreeValidityError:
        return True, ""
    return False, "read above valid degree did not trap"


def check_poincare(ctx):
    for typ, exps in POINCARE_EXPONENTS.items():
        datum = RootDatum.build(typ)
        counts = {}
        for w in datum.weyl_elements():
            counts[w.length] = counts.get(w.length, 0) + 1
        # product over exponents of (1 + x + ... + x^e)
        poly = {0: 1}
        for e in exps:
            new = {}
            for k, c in poly.items():
                for j in range(e + 1):
                    new[k + j] = new.get(k + j, 0) + c
            poly = new
        if counts != {k: v for k, v in poly.items() if v}:
            return False, f"Poincare polynomial mismatch for {typ}"
    return True, ""


def check_reduced_words(ctx):
    for typ in ctx.types:
        datum = ctx.datum(typ)
        for w in datum.weyl_elements():
            for word in datum.reduced_words(w):
                if len(word) != w.length:
                    return False, f"non-reduced word listed for {word}"
                if datum.element_of_word(word).matrix != w.matrix:
                    return False, f"word {word} does not multiply to its element"
    return True, ""


def check_coroot_identity(ctx):
    # alpha^vee(w^-1 lam) = (w alpha)^vee(lam) for simple alpha
    for typ in ctx.types:
        datum = ctx.datum(typ)
        roots = dict(datum.all_roots())
        for w in datum.weyl_elements():
            winv = datum.inverse(w)
            for i in range(datum.rank):
                alpha = datum.simple_roots[i]
                walpha = w.apply(alpha)
                cv = roots.get(walpha)
                if cv is None:
                    return False, f"image root missing for {typ}"
                for j in range(datum.rank):
                    lam = datum.fundamental_weight(j)
                    lhs = winv.apply(lam)[i]
                    rhs = sum(a * b for a, b in zip(cv, lam))
                    if lhs != rhs:
                        return False, f"coroot identity fails at {typ}"
    return True, ""


def check_fgl_axioms(ctx):
    # Only from_coefficients validates on construction; every other
    # constructor gives a law that satisfies the axioms by construction,
    # which is checked here.  Every law works in log coordinates, so exp must
    # invert log and F = exp(log x + log y), also for the multiplicative and
    # connective laws, whose log is computed from their coefficients.
    universal = FormalGroupLaw.universal(7)
    rational = CoeffRing(())
    t1 = CoeffRing((("t1", 1),))
    x = TruncatedSeries.variable(t1, 1, 7, 0)
    from_log = FormalGroupLaw.from_log(rational, 7, [Fraction(1, 2), Fraction(-2, 3), 3])
    laws = [
        universal,
        from_log,
        FormalGroupLaw.additive(7),
        from_log.twist(x + (x * x).scale(t1.gen("t1"))),
        universal.specialize({f"m{i}": i * (-1) ** i for i in range(1, 7)}, rational),
        FormalGroupLaw.multiplicative(7),
        FormalGroupLaw.connective(7),
    ]
    for law in laws:
        law._validate()
        t = TruncatedSeries.variable(law.ring, 1, law.trunc, 0)
        if not (law.exp.substitute([law.log]) == t == law.log.substitute([law.exp])):
            return False, f"exp of the {law.tag} law does not invert its log"
        if not (law.F == law.log_sum(law.trunc)):
            return False, f"the {law.tag} law is not exp(log x + log y)"
    return True, ""


def check_fgl_multiple_additivity(ctx):
    law = FormalGroupLaw.universal(6)
    x = TruncatedSeries.variable(law.ring, 1, 6, 0)
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            lhs = law.multiple_series(k1 + k2)
            rhs = law.formal_sum(law.multiple_series(k1), law.multiple_series(k2))
            if not (lhs == rhs):
                return False, f"multiple additivity fails at {k1}, {k2}"
    return True, ""


def check_fgl_specialization(ctx):
    # The multiplicative logarithm specialization recovers x + y - beta*x*y.
    law = FormalGroupLaw.universal(7)
    target = CoeffRing((("beta", 1),))
    beta = target.gen("beta")
    assignment = {
        f"m{i}": beta ** i * Fraction(1, i + 1) for i in range(1, law.trunc)
    }
    spec = law.specialize(assignment, target)
    direct = FormalGroupLaw.multiplicative(7)
    if not (spec.F == direct.F):
        return False, "specialized universal law is not the multiplicative one"
    if not (spec.inverse == direct.inverse):
        return False, "specialized inverse mismatch"
    return True, ""


def check_operator_identities_delta(ctx):
    for typ in ctx.types:
        fgr = ctx.small_universal_ring(typ)
        datum = fgr.datum
        roots = dict(datum.all_roots())
        for _ in range(ctx.samples):
            u = ctx.random_series_element(fgr)
            v = ctx.random_series_element(fgr)
            i = ctx.rng.randint(1, datum.rank)
            alpha = datum.simple_roots[i - 1]
            xa = fgr.x_lambda_series(alpha)
            xna = fgr.x_lambda_series(tuple(-c for c in alpha))
            du = fgr.delta(i, u)
            dnu = fgr.delta_neg(i, u)
            if not (fgr.delta(i, fgr.one()).is_zero()):
                return False, "delta(1) != 0"
            if not (du * xa == u - fgr.reflection_act(alpha, roots[alpha], u)):
                return False, "delta(u) x_a != u - s(u)"
            if not (fgr.delta(i, du) * xa == du + dnu):
                return False, "delta^2 identity fails"
            if not (du * xa == dnu * xna):
                return False, "delta_{-a} rescaling identity fails"
            if not (fgr.s_act(i, du) == -dnu):
                return False, "s delta = -delta_neg fails"
            if not (fgr.delta(i, fgr.s_act(i, u)) == -du):
                return False, "delta s = -delta fails"
            if not (fgr.delta(i, u * v) == du * v + fgr.s_act(i, u) * fgr.delta(i, v)):
                return False, "Leibniz rule fails"
            w = ctx.rng.choice(datum.weyl_elements())
            walpha = w.apply(alpha)
            coroot = roots[walpha]
            winv = datum.inverse(w)
            lhs = fgr.weyl_act(w, fgr.delta(i, fgr.weyl_act(winv, u)))
            rhs = fgr.delta_root(walpha, coroot, u)
            if not (lhs == rhs):
                return False, "conjugation identity fails"
    return True, ""


def check_operator_identities_cc(ctx):
    for typ in ctx.types:
        fgr = ctx.small_universal_ring(typ)
        datum = fgr.datum
        roots = dict(datum.all_roots())
        for _ in range(ctx.samples):
            u = ctx.random_series_element(fgr)
            v = ctx.random_series_element(fgr)
            i = ctx.rng.randint(1, datum.rank)
            alpha = datum.simple_roots[i - 1]
            nalpha = tuple(-c for c in alpha)
            xa = fgr.x_lambda_series(alpha)
            xna = fgr.x_lambda_series(nalpha)
            kap = fgr.kappa_element(i)
            cu = fgr.cc(i, u)
            if not (fgr.cc(i, fgr.one()) == kap):
                return False, "C(1) != kappa"
            if not (fgr.cc(i, xna) == fgr.const(2)):
                return False, "C(x_{-a}) != 2"
            if not (cu * xa * xna == u * xa + fgr.s_act(i, u) * xna):
                return False, "C defining identity fails"
            if not (fgr.cc(i, u * xna) == u + fgr.s_act(i, u)):
                return False, "C(u x_{-a}) != u + s(u)"
            if not (fgr.cc(i, fgr.s_act(i, u)) == fgr.cc_neg(i, u)):
                return False, "C s = C_neg fails"
            if not (fgr.s_act(i, cu) == cu):
                return False, "s C = C fails"
            if not (fgr.cc(i, u * v) == cu * v - fgr.s_act(i, u) * fgr.delta(i, v)):
                return False, "C product rule fails"
            if not (fgr.cc(i, fgr.delta(i, u)).is_zero()):
                return False, "C delta != 0"
            if not (fgr.delta(i, fgr.cc(i, u)).is_zero()):
                return False, "delta C != 0"
            if not (fgr.delta(i, fgr.cc_neg(i, u)).is_zero()):
                return False, "delta C_neg != 0"
            w = ctx.rng.choice(datum.weyl_elements())
            walpha = w.apply(alpha)
            coroot = roots[walpha]
            winv = datum.inverse(w)
            lhs = fgr.weyl_act(w, fgr.cc(i, fgr.weyl_act(winv, u)))
            rhs = fgr.cc_root(walpha, coroot, u)
            if not (lhs == rhs):
                return False, "C conjugation identity fails"
    return True, ""


def check_simple_operators_by_substitution(ctx):
    # s_act, delta, delta_neg, cc and cc_neg convolve with per-letter tables
    # of divided differences and multiply by r(+-L_i), in log coordinates for
    # every law (the multiplicative one through its computed log).
    # reflection_act, delta_root and cc_root substitute into u and divide
    # instead.  The first input keeps full precision, where
    # kappa bounds cc's valid degree (also over the additive law, r = 1).
    rational = CoeffRing(())
    t1 = CoeffRing((("t1", 1),))
    x = TruncatedSeries.variable(t1, 1, 6, 0)
    from_log = FormalGroupLaw.from_log(rational, 6, [Fraction(1, 2), Fraction(-2, 3), 3])
    laws = [
        FormalGroupLaw.additive(6),
        FormalGroupLaw.multiplicative(6),
        FormalGroupLaw.universal(6),
        from_log.twist(x + (x * x).scale(t1.gen("t1"))),
    ]
    for typ in ctx.types:
        datum = ctx.datum(typ)
        roots = dict(datum.all_roots())
        for law in laws:
            fgr = FormalGroupRing(datum, law)
            for k in range(ctx.samples // 10 + 2):
                u = ctx.random_series_element(fgr)
                u = u.restrict(ctx.rng.randint(1, fgr.trunc) if k else fgr.trunc)
                for i, alpha in enumerate(datum.simple_roots, start=1):
                    coroot = roots[alpha]
                    nalpha = tuple(-c for c in alpha)
                    su = fgr.reflection_act(alpha, coroot, u)
                    xna = fgr.x_lambda_series(nalpha)
                    pairs = {
                        "s": (fgr.s_act(i, u), su),
                        "delta": (fgr.delta(i, u), fgr.delta_root(alpha, coroot, u)),
                        "delta_neg": (fgr.delta_neg(i, u), (u - su).exact_divide(xna)),
                        "cc": (fgr.cc(i, u), fgr.cc_root(alpha, coroot, u)),
                        "cc_neg": (fgr.cc_neg(i, u), fgr.cc_root(nalpha, roots[nalpha], u)),
                    }
                    for name, (got, want) in pairs.items():
                        if not (got == want and got.valid_degree == want.valid_degree):
                            return False, f"{name}_{i} differs at {typ} over the {law.tag} law"
    return True, ""


def check_word_independence(ctx):
    # Laws of the form x + y - v*x*y: composite deltas do not depend on the
    # reduced word.
    datum = RootDatum.build("B2")
    law = FormalGroupLaw.multiplicative(7, "v")
    fgr = FormalGroupRing(datum, law)
    for w in datum.weyl_elements():
        words = datum.reduced_words(w)
        if len(words) < 2:
            continue
        for _ in range(ctx.samples // 5 + 2):
            u = ctx.random_series_element(fgr)
            vals = [fgr.delta_word(word, u) for word in words]
            for other in vals[1:]:
                if not (vals[0] == other):
                    return False, f"delta words differ for {w.canonical_word}"
    return True, ""


def check_dependence_witness(ctx):
    fgr = ctx.small_universal_ring("B2", trunc=7)
    probes = []
    x1 = fgr.x_lambda_series((1, 0))
    x2 = fgr.x_lambda_series((0, 1))
    x12 = fgr.x_lambda_series((1, 1))
    probes.append(x1 * x2 * x12 * x1)
    probes.append(x1 * x1 * x2 * x2)
    probes.append(x12 * x12 * x1 * x2)
    for u in probes:
        if not (fgr.delta_word((1, 2, 1, 2), u) == fgr.delta_word((2, 1, 2, 1), u)):
            return True, ""
    return False, "no decomposition-dependence witness found over the probe set"


def check_eps_c_vs_delta(ctx):
    # eps C_I(u0) = (-1)^N eps delta_I(u0) for all words of length <= N.
    fb = ctx.universal_basis("B2")
    fgr, N, t = fb.fgr, fb.N, fb.t
    u0 = fb.torsion.u0
    sign = (-1) ** N
    words = [()]
    for _ in range(N):
        words = [w + (i,) for w in words for i in (1, 2)]
        for word in words:
            cvals = fgr.c_word(word, u0).constant_term()
            dvals = fgr.delta_word(word, u0).constant_term()
            if len(word) < N:
                if not (cvals.is_zero() and dvals.is_zero()):
                    return False, f"short word {word} has nonzero augmentation"
            else:
                if cvals != dvals.scale(sign):
                    return False, f"sign relation fails at {word}"
                reduced = fb.datum.element_of_word(word).length == N
                if dvals != (fgr.ring.const(t) if reduced else fgr.ring.zero()):
                    return False, f"eps delta value wrong at {word}"
    return True, ""


def check_eps_functionals(ctx):
    # eps_vector reads eps Op_{I_w}(u) off functionals built once per basis;
    # the operator chain along each canonical word is the reference.  The
    # random probes have a linear part and terms above degree N.
    g2 = ctx.datum("G2")
    bases = [
        ctx.universal_basis("A2"),
        ctx.universal_basis("B2"),
        FlagBasis(g2, FormalGroupLaw.multiplicative(default_truncation(g2))),
    ]
    for fb in bases:
        fgr, label = fb.fgr, fb.datum.label
        probes = [fb.torsion.u0, fgr.one()]
        for _ in range(2):
            terms = {}
            for _ in range(6):
                e = [0] * fgr.n
                for _ in range(ctx.rng.randint(2, fb.N + 2)):
                    e[ctx.rng.randrange(fgr.n)] += 1
                terms[tuple(e)] = ctx.random_poly(fb.ring, max_weight=2)
            linear = fgr.variable(ctx.rng.randrange(fgr.n)).scale(ctx.rng.choice((1, -1, 2, -3)))
            probes.append((fgr.from_monomials(terms) + linear).restrict(fb.N + 2))
        ops = {"Cs": fb.cs, "C": fgr.cc, "D": fgr.delta}
        for variant, op in ops.items():
            for u in probes:
                got = fb.eps_vector(u, variant)
                if list(got) != list(fb.by_word):
                    return False, f"{label}: eps_vector({variant}) misses canonical words"
                for word, value in got.items():
                    v = u
                    for i in reversed(word):
                        v = op(i, v)
                    if v.constant_term() != value:
                        return False, f"{label}: eps_vector({variant}) != chain at {word}"
    return True, ""


def check_chow_model(ctx):
    # The identity behind every table (flagring): Phi(Cs_i(u)) = T_i(Phi(u)),
    # whose sides are class_from(Cs_i(u), 0) and a_operator(i, class_from(u,
    # 0)).  Both solve against the beta_w, which raises unless each beta_w is
    # e_w plus terms of shorter words.
    t1 = CoeffRing((("t1", 1),))
    for typ in ("A2", "B2", "G2"):
        datum = ctx.datum(typ)
        trunc = default_truncation(datum)
        x = TruncatedSeries.variable(t1, 1, trunc, 0)
        from_log = FormalGroupLaw.from_log(CoeffRing(()), trunc, [Fraction(1, 2), 3])
        twisted = from_log.twist(x + (x * x).scale(t1.gen("t1")))
        for law in (FormalGroupLaw.universal(trunc), FormalGroupLaw.multiplicative(trunc), twisted):
            fb = FlagBasis(datum, law)
            for _ in range(ctx.samples // 25 + 1):
                u = ctx.random_series_element(fb.fgr, max_deg=fb.N + 1, nterms=6)
                for i in range(1, datum.rank + 1):
                    if fb.a_operator(i, fb.class_from(u, 0)) != fb.class_from(fb.cs(i, u), 0):
                        return False, f"Phi Cs_{i} != T_{i} Phi at {typ} over the {law.tag} law"
    return True, ""


def check_operator_specialization(ctx):
    # Specializing coefficients commutes with delta and C.
    datum = RootDatum.build("A2")
    law = FormalGroupLaw.universal(6)
    target = CoeffRing((("beta", 1),))
    beta = target.gen("beta")
    assignment = {f"m{i}": beta ** i * Fraction(1, i + 1) for i in range(1, 6)}
    spec_law = law.specialize(assignment, target)
    fgr = FormalGroupRing(datum, law)
    fgr2 = FormalGroupRing(datum, spec_law)

    def push(elt):
        return elt.map_coefficients(lambda p: p.specialize(assignment, target), target)

    for _ in range(ctx.samples // 3 + 2):
        u = ctx.random_series_element(fgr)
        i = ctx.rng.randint(1, 2)
        if not (push(fgr.delta(i, u)) == fgr2.delta(i, push(u))):
            return False, "specialization does not commute with delta"
        if not (push(fgr.cc(i, u)) == fgr2.cc(i, push(u))):
            return False, "specialization does not commute with C"
    return True, ""


def check_torsion_reference(ctx):
    for typ, want in REFERENCE_TORSION.items():
        t, _ = torsion_bezout(RootDatum.build(typ))
        if t != want:
            return False, f"torsion index of {typ}: got {t}, want {want}"
    return True, ""


def check_golden_tables(ctx):
    for typ in ctx.types:
        if typ not in REFERENCE_TABLES:
            continue
        if ctx.fast and typ == "G2":
            continue
        table = ctx.universal_table(typ)
        problems = table.matches_reference(REFERENCE_TABLES[typ])
        if problems:
            return False, f"{typ}: {problems[0]}"
    return True, ""


def check_table_ring_axioms(ctx):
    fb = ctx.universal_basis("A2")
    gens = [fb.basis_class(w) for w in fb.elements]
    unit = fb.unit_class()
    for a in gens:
        if not ((unit * a) - a).is_zero():
            return False, "unit does not act as identity"
    for a in gens:
        for b in gens:
            for c in gens:
                if not ((a * b) * c - a * (b * c)).is_zero():
                    return False, "associativity fails on generators"
    return True, ""


def check_duality_pairing(ctx):
    for typ in ("A2", "B2"):
        if typ not in ctx.types:
            continue
        fb = ctx.universal_basis(typ)
        for v in fb.elements:
            a = fb.dual_class(v)
            for w in fb.elements:
                val = (fb.basis_class(w) * a).pr()
                want = fb.ring.const(1 if w.matrix == v.matrix else 0)
                if val != want:
                    return False, f"{typ}: pairing pr(b_{w} a_{v}) != delta"
    return True, ""


def check_homogeneity_and_a6(ctx):
    for typ in ctx.types:
        if ctx.fast and typ == "G2":
            continue
        table = ctx.universal_table(typ)
        N = table.datum.N
        for entry in table.lines:
            lengths = len(entry.left) + (len(entry.right) if entry.right else N)
            codim = 2 * N - lengths
            for name, coeff in entry.coords.items():
                if name == "1":
                    cw = 0
                else:
                    word = tuple(int(ch) for ch in name[2:]) if name != "pt" else ()
                    cw = N - len(word)
                want = cw - codim
                if not coeff.is_homogeneous(want):
                    return False, f"{typ}: coefficient at {name} not homogeneous"
                if table.datum.rank == 2 and coeff.uses_generator(f"a{N}") and N >= 6:
                    return False, f"{typ}: a{N} appears in the table"
    return True, ""


def check_chow_oracle(ctx):
    for typ in ctx.types:
        datum = ctx.datum(typ)
        products, longest = oracle_table(datum)
        table = ctx.chow_table(typ)
        by_word = table.basis.by_word
        for (a, b), want in products.items():
            cls = table.basis.basis_product(by_word[a], by_word[b])
            disp, top = cls.display_coords()
            got = {w: int(c.constant_term()) for w, c in disp.items() if not c.is_zero()}
            if not top.is_zero():
                got["unit"] = int(top.constant_term())
            if got != want:
                return False, f"{typ}: oracle mismatch at {a} * {b}"
        cls = table.basis.basis_class(table.basis.w0)
        disp, top = cls.display_coords()
        got = {w: int(c.constant_term()) for w, c in disp.items() if not c.is_zero()}
        if not top.is_zero():
            got["unit"] = int(top.constant_term())
        if got != longest:
            return False, f"{typ}: oracle mismatch on the longest class"
    return True, ""


def check_specialization_coherence(ctx):
    for typ in ("A2", "B2"):
        if typ not in ctx.types:
            continue
        utable = ctx.universal_table(typ)
        laz = utable.lazard
        # a_i -> 0 recovers the chow table
        chow = ctx.chow_table(typ)
        zero_assign = {name: 0 for name in laz.a_ring.names}
        chow_ring = chow.out_ring
        chow_lines = {
            (e.left, e.right): e.coords for e in chow.lines
        }
        for entry in utable.lines:
            want = chow_lines[(entry.left, entry.right)]
            got = {
                name: coeff.specialize(zero_assign, chow_ring)
                for name, coeff in entry.coords.items()
            }
            got = {n: c for n, c in got.items() if not c.is_zero()}
            if got != want:
                return False, f"{typ}: a->0 table differs from the additive run"
        # a1 -> -beta, higher -> 0 recovers the multiplicative table
        ktable = MultiplicationTable(ctx.datum(typ), "ktheory")
        kring = ktable.out_ring
        beta = kring.gen("beta")
        assign = {name: kring.zero() for name in laz.a_ring.names}
        assign["a1"] = -beta
        klines = {(e.left, e.right): e.coords for e in ktable.lines}
        for entry in utable.lines:
            want = klines[(entry.left, entry.right)]
            got = {
                name: coeff.specialize(assign, kring)
                for name, coeff in entry.coords.items()
            }
            got = {n: c for n, c in got.items() if not c.is_zero()}
            if got != want:
                return False, f"{typ}: a1 -> -beta table differs from the K-theory run"
    return True, ""


def check_unit_decomposition(ctx):
    fb = ctx.universal_basis("B2")
    N = fb.N
    w0 = fb.w0
    top_word = w0.canonical_word
    for word in fb.datum.reduced_words(w0):
        cls = fb.bclass(word)
        disp, top = cls.display_coords()
        if top != fb.ring.one():
            return False, f"reduced word {word} has unit coefficient {top}"
    words = [()]
    for _ in range(N):
        words = [w + (i,) for w in words for i in (1, 2)]
    for word in words:
        if fb.datum.element_of_word(word).length == N:
            continue
        cls = fb.bclass(word)
        c = cls.coords.get(top_word)
        if c is not None and not c.is_zero():
            return False, f"non-reduced word {word} has a unit component"
    return True, ""


def check_torsion_symmetry(ctx):
    fb = ctx.universal_basis("B2")
    fgr = fb.fgr
    u0 = fb.torsion.u0
    N = fb.N
    pairs = []
    words = [(i,) for i in (1, 2)] + [(i, j) for i in (1, 2) for j in (1, 2)]
    for I in words:
        for J in words:
            if len(I) + len(J) <= N:
                pairs.append((I, J))
    for _ in range(3):
        u = ctx.random_series_element(fgr, max_deg=2, nterms=3)
        for I, J in pairs:
            lhs = fgr.c_word(I, u * fgr.c_word(J, u0)).constant_term()
            rhs = fgr.c_word(
                tuple(reversed(J)), u * fgr.c_word(tuple(reversed(I)), u0)
            ).constant_term()
            if lhs != rhs:
                return False, f"symmetry fails at {I}, {J}"
    return True, ""


def check_eps_c_reversal(ctx):
    fb = ctx.universal_basis("B2")
    fgr = fb.fgr
    u0 = fb.torsion.u0
    words = [()]
    for _ in range(fb.N):
        words = words + [w + (i,) for w in words if len(w) < fb.N for i in (1, 2)]
    for word in set(words):
        lhs = fgr.c_word(word, u0).constant_term()
        rhs = fgr.c_word(tuple(reversed(word)), u0).constant_term()
        if lhs != rhs:
            return False, f"eps C reversal fails at {word}"
    return True, ""


def check_decomposition_system(ctx):
    fb = ctx.universal_basis("A2")
    fgr = fb.fgr
    td = fb.torsion
    r = fgr.decompose_over_invariants(td.u0, td)
    for word, val in r.items():
        want = fgr.one() if word == () else fgr.zero()
        if not (val == want):
            return False, f"decomposition of u0 has r[{word}] = {val}"
    for w in ((1, 2), (2, 1)):
        x = fgr.delta_word(w, td.u0)
        r = fgr.decompose_over_invariants(x, td)
        for word, val in r.items():
            want = fgr.one() if word == w else fgr.zero()
            if not (val == want):
                return False, f"decomposition of delta_{w}(u0) is not the unit vector"
    return True, ""


def check_ln_operations(ctx):
    fb = ctx.universal_basis("A2")
    gens = [w for w in fb.elements]

    def tweight(texp):
        return sum((k + 1) * v for k, v in enumerate(texp))

    S = fb.ln_operation(2)
    S_of = {w: S(fb.basis_class(w)) for w in gens}
    for w, ops in S_of.items():
        empty = next(t for t in ops if tweight(t) == 0)
        if not (ops[empty] - fb.basis_class(w)).is_zero():
            return False, "S_0 is not the identity"
        codim = fb.N - w.length
        for texp, out in ops.items():
            if not out.codim_weights_ok(codim + tweight(texp)):
                return False, f"grading fails at {w.canonical_word}, {texp}"
    for wa, wb in itertools.combinations_with_replacement(gens, 2):
        lhs = S(fb.basis_class(wa) * fb.basis_class(wb))
        Sa, Sb = S_of[wa], S_of[wb]
        for I in lhs:
            rhs = fb.zero_class()
            for J in Sa:
                for K in Sb:
                    if tuple(a + b for a, b in zip(J, K)) == I:
                        rhs = rhs + Sa[J] * Sb[K]
            if not (lhs[I] - rhs).is_zero():
                return False, f"multiplicativity fails at {I}"
    return True, ""


def check_bs_properties(ctx):
    datum = RootDatum.build("A2")
    fgr = ctx.small_universal_ring("A2", trunc=7)
    ring = BSRing(datum, fgr.law, (1, 2, 1))
    # c_I is a ring morphism into the xi presentation
    for _ in range(4):
        u = ctx.random_series_element(fgr)
        v = ctx.random_series_element(fgr)
        if not (
            ring.characteristic_class(u * v)
            == ring.characteristic_class(u) * ring.characteristic_class(v)
        ):
            return False, "tower characteristic map is not multiplicative"
    # degree-0 coefficient of the tangent class is 1
    tangent = ring.tangent_chern_class()
    if tangent.coords.get((), None) != fgr.ring.one():
        return False, "tangent class unit coefficient is not 1"
    # push-forward values on u0
    fb = ctx.universal_basis("A2")
    u0 = fb.torsion.u0
    for word in ((1, 2, 1), (2, 1, 2)):
        val = bs_pushforward(fb.datum, fb.law, word, u0)
        if val != fb.ring.const((-1) ** fb.N * fb.t):
            return False, f"push-forward of u0 along {word} is not (-1)^N t"
    return True, ""


def check_cli_determinism(ctx):
    from .cli import main as cli_main
    import io
    import contextlib

    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["table", "--type", "A2", "--theory", "universal",
                           "--format", "json"])
        if rc != 0:
            return False, f"table command exited {rc}"
        outputs.append(buf.getvalue())
    if outputs[0] != outputs[1]:
        return False, "two runs produced different bytes"
    validate(json.loads(outputs[0]))
    return True, ""


CHECKS = [
    ("coeffring ring axioms", check_coeffring_axioms),
    ("coeffring specialization morphism", check_specialize_morphism),
    ("integral basis roundtrip", check_lazard_roundtrip),
    ("series exact division", check_series_divide),
    ("series substitution functoriality", check_series_substitution_functorial),
    ("series valid-degree trap", check_series_degree_trap),
    ("Weyl group Poincare polynomials", check_poincare),
    ("reduced word enumeration", check_reduced_words),
    ("coroot transformation identity", check_coroot_identity),
    ("formal group law axioms", check_fgl_axioms),
    ("formal multiples additivity", check_fgl_multiple_additivity),
    ("universal-to-multiplicative specialization", check_fgl_specialization),
    ("difference operator identities", check_operator_identities_delta),
    ("push-pull operator identities", check_operator_identities_cc),
    ("simple operators match the substitution route", check_simple_operators_by_substitution),
    ("word independence for x+y-vxy", check_word_independence),
    ("decomposition dependence witness", check_dependence_witness),
    ("eps C vs eps delta on u0", check_eps_c_vs_delta),
    ("characteristic-map functionals", check_eps_functionals),
    ("Chow model intertwines the push-pull operators", check_chow_model),
    ("operator specialization functoriality", check_operator_specialization),
    ("torsion indices", check_torsion_reference),
    ("rank-2 reference tables", check_golden_tables),
    ("table ring axioms", check_table_ring_axioms),
    ("duality pairing", check_duality_pairing),
    ("coefficient homogeneity and top-generator absence", check_homogeneity_and_a6),
    ("classical oracle agreement", check_chow_oracle),
    ("specialization coherence", check_specialization_coherence),
    ("unit decomposition of word classes", check_unit_decomposition),
    ("push-forward torsion symmetry", check_torsion_symmetry),
    ("eps C word reversal symmetry", check_eps_c_reversal),
    ("invariant decomposition system", check_decomposition_system),
    ("coefficient operations", check_ln_operations),
    ("tower presentation properties", check_bs_properties),
    ("CLI determinism and schema", check_cli_determinism),
]


def run_checks(seed=0, types=("A2", "B2", "G2"), fast=False):
    """Run the checks in order, yielding (name, ok, detail, wall seconds) as each ends."""
    ctx = CheckContext(seed=seed, types=types, fast=fast)
    for name, func in CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = func(ctx)
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        yield name, ok, detail, time.perf_counter() - start
