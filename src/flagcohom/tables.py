"""Multiplication-table assembly and the named cohomology theories.

A table fixes a root system and a theory (a formal group law plus a display
coefficient ring), computes every pairwise product of the display basis
{1} u {Z_w : w != w0} together with the decomposition of the longest class,
and renders the result as text (one line per nontrivial product, in the
conventional order) or as JSON (every product, including the ones given by
the duality rule).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .coeffring import CoeffRing, assert_integer
from .fgl import FormalGroupLaw
from .flagring import FlagBasis, default_truncation
from .lazard import LazardBasis
from .reference import parse_poly
from .rootdata import RootDatum


def word_name(word):
    return "Z_" + "".join(str(i) for i in word) if word else "pt"


def _pair_order(pair):
    """Table order: longer total first, then longer factor, squares first."""
    a, b = pair
    return (-(len(a) + len(b)), -max(len(a), len(b)), a != b, a, b)


def make_theory(spec, trunc):
    """Build the law for a theory spec: universal | chow | ktheory[:g] |
    connective[:g] | custom:FILE."""
    name, _, arg = spec.partition(":")
    if name in ("ktheory", "connective") and arg and not arg.isidentifier():
        raise ValueError(f"generator name {arg!r} in {spec!r} is not an identifier")
    if name == "universal":
        return FormalGroupLaw.universal(trunc), "universal"
    if name == "chow":
        return FormalGroupLaw.additive(trunc), "chow"
    if name == "ktheory":
        return FormalGroupLaw.multiplicative(trunc, arg or "beta"), spec
    if name == "connective":
        return FormalGroupLaw.connective(trunc, arg or "v"), spec
    if name == "custom":
        if not arg:
            raise ValueError("custom theory needs a file: custom:FILE")
        with open(arg) as fh:
            data = json.load(fh)
        return custom_law(data, trunc), spec
    raise ValueError(f"unknown theory {spec!r}")


def custom_law(data, trunc):
    """Law from a JSON object with either a "log" or a "coefficients" key.

    "log" lists the rational coefficients of x^2, x^3, ... of the logarithm;
    "coefficients" maps "i,j" strings to rational a_ij values.  A
    "coefficients" law is checked for unit, commutativity, associativity and
    its inverse on load; a "log" law satisfies them by construction.
    """
    if not isinstance(data, dict):
        raise ValueError("a custom law file must hold a JSON object")
    ring = CoeffRing((), rational_mode=True)
    if "log" in data:
        if not isinstance(data["log"], list):
            raise ValueError('custom law "log" must be a list of rationals')
        coeffs = [_rational(c) for c in data["log"]]
        return FormalGroupLaw.from_log(ring, trunc, coeffs)
    if "coefficients" in data:
        if not isinstance(data["coefficients"], dict):
            raise ValueError('custom law "coefficients" must map "i,j" keys to rationals')
        table = {}
        for key, val in data["coefficients"].items():
            try:
                i, j = (int(p) for p in key.split(","))
            except ValueError:
                raise ValueError(f'custom law coefficient key {key!r} is not "i,j"') from None
            table[(i, j)] = _rational(val)
        return FormalGroupLaw.from_coefficients(ring, trunc, table)
    raise ValueError('custom law needs a "log" or "coefficients" entry')


def _rational(value):
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"custom law value {value!r} is not a rational number") from None


class MultiplicationTable:
    """Computed products of the display basis for one (type, theory) pair.

    With ``raw=True`` the table keeps the plain geometric basis (the longest
    class is not replaced by the unit) and includes its products.
    """

    def __init__(self, datum, theory_spec, trunc=None, raw=False, basis=None):
        self.datum = datum
        self.raw = raw
        if basis is None:
            law, theory_spec = make_theory(theory_spec, trunc or default_truncation(datum))
            basis = FlagBasis(datum, law)
        self.basis, self.law, self.theory = basis, basis.law, theory_spec
        self.trunc = basis.law.trunc
        self.is_universal = self.theory == "universal"
        self.integral_output = self.theory.split(":")[0] in (
            "universal", "chow", "ktheory", "connective"
        )
        if self.is_universal:
            self.lazard = LazardBasis(self.law, datum.N)
            self.out_ring = self.lazard.a_ring
        else:
            self.lazard = None
            self.out_ring = self.law.ring
        self.longest = None
        self.lines = []
        if not raw:
            self.longest = self._entry(self.basis.w0.canonical_word, None)
            self.lines.append(self.longest)
        for left, right in self._ordered_pairs():
            self.lines.append(self._entry(left, right))

    # -- pair enumeration -------------------------------------------------

    def _display_words(self):
        w0 = self.basis.w0.canonical_word
        return [
            w.canonical_word
            for w in self.basis.elements
            if self.raw or w.canonical_word != w0
        ]

    def _ordered_pairs(self):
        """Nontrivial pairs in the conventional table order."""
        N = self.datum.N
        words = self._display_words()
        pairs = []
        for i, a in enumerate(words):
            for b in words[i:]:
                if len(a) + len(b) > N:
                    left, right = (b, a) if len(b) > len(a) else (a, b)
                    pairs.append((left, right))
        return sorted(pairs, key=_pair_order)

    def every_pair(self):
        words = self._display_words()
        out = []
        for i, a in enumerate(words):
            for b in words[i:]:
                left, right = (b, a) if (len(b), b) > (len(a), a) else (a, b)
                out.append((left, right))
        return sorted(out, key=_pair_order)

    # -- entries ----------------------------------------------------------------

    def _entry(self, left, right):
        by_word = self.basis.by_word
        if right is None:
            cls = self.basis.basis_class(by_word[left])
        else:
            cls = self.basis.basis_product(by_word[left], by_word[right])
        return TableEntry(left, right, self._class_coords(cls))

    def _class_coords(self, cls):
        coords = {}
        if self.raw:
            for w, c in cls.coords.items():
                coords[word_name(w)] = self._convert(c)
            return coords
        disp, top = cls.display_coords()
        if not top.is_zero():
            coords["1"] = self._convert(top)
        for w, c in disp.items():
            coords[word_name(w)] = self._convert(c)
        return coords

    def _convert(self, poly):
        if self.lazard is not None:
            out = self.lazard.to_a_basis(poly)
        else:
            out = poly
        if self.integral_output:
            assert_integer(out, "table coefficient")
        return out

    # -- rendering -----------------------------------------------------------------

    @staticmethod
    def _coeff_basis_str(coeff, name):
        if name == "1":
            return str(coeff) if not coeff == 1 else "1"
        s = str(coeff)
        if coeff == 1:
            return name
        if coeff == -1:
            return f"-{name}"
        if len(coeff.terms) > 1:
            return f"({s})*{name}"
        return f"{s}*{name}"

    @staticmethod
    def _sorted_names(coords):
        def key(name):
            if name == "1":
                return (-(10 ** 6), "")
            word = name[2:] if name.startswith("Z_") else ""
            return (-len(word), word)
        return sorted(coords, key=key)

    def entry_text(self, entry):
        if entry.right is None:
            lhs = word_name(entry.left)
        elif entry.left == entry.right:
            lhs = f"{word_name(entry.left)}^2"
        else:
            lhs = f"{word_name(entry.left)}*{word_name(entry.right)}"
        if not entry.coords:
            return f"{lhs} = 0"
        parts = [
            self._coeff_basis_str(entry.coords[n], n)
            for n in self._sorted_names(entry.coords)
        ]
        return f"{lhs} = " + " + ".join(parts)

    def render_text(self):
        head = [
            f"# multiplication table: type {self.datum.label}, theory {self.theory}, "
            f"truncation {self.trunc}, torsion index {self.basis.t}",
        ]
        return "\n".join(head + [self.entry_text(e) for e in self.lines]) + "\n"

    def render_json(self):
        kind = self.datum.label or "custom"
        N = self.datum.N
        basis = []
        for w in self.basis.elements:
            word = w.canonical_word
            if not self.raw and word == self.basis.w0.canonical_word:
                continue
            basis.append(
                {"name": word_name(word), "word": list(word), "codim": N - len(word)}
            )
        if not self.raw:
            basis.append({"name": "1", "word": "unit", "codim": 0})
        obj = {
            "root_system": {"type": kind, "rank": self.datum.rank},
            "theory": self.theory,
            "truncation": self.trunc,
            "torsion_index": self.basis.t,
            "raw_basis": self.raw,
            "basis": basis,
            "products": [],
        }
        if self.longest is not None:
            obj["longest_class"] = {
                "name": word_name(self.longest.left),
                "result": self._result_json(self.longest),
            }
        by_word = self.basis.by_word
        for left, right in self.every_pair():
            cls = self.basis.basis_product(by_word[left], by_word[right])
            coords = self._class_coords(cls)
            obj["products"].append(
                {
                    "left": word_name(left),
                    "right": word_name(right),
                    "result": self._result_json(TableEntry(left, right, coords)),
                }
            )
        return obj

    def _result_json(self, entry):
        return [
            {"basis": n, "coeff": str(entry.coords[n])}
            for n in self._sorted_names(entry.coords)
        ]

    # -- comparison against reference data ------------------------------------------

    def matches_reference(self, reference):
        """Exact comparison with a reference table; returns a list of mismatches."""
        problems = []
        ref_by_key = {}
        for left, right, coords in reference:
            key = (left, right)
            ref_by_key[key] = coords
        if len(reference) != len(self.lines):
            problems.append(
                f"line count differs: computed {len(self.lines)}, reference {len(reference)}"
            )
        for entry in self.lines:
            key = (
                "".join(map(str, entry.left)),
                "".join(map(str, entry.right)) if entry.right is not None else None,
            )
            ref = ref_by_key.get(key)
            if ref is None:
                problems.append(f"unexpected line {key}")
                continue
            want = {
                name: parse_poly(self.out_ring, text) for name, text in ref.items()
            }
            if want != entry.coords:
                problems.append(
                    f"line {key}: computed {{{', '.join(f'{n}: {c}' for n, c in sorted(entry.coords.items()))}}}"
                    f" != reference {{{', '.join(f'{n}: {c}' for n, c in sorted(want.items()))}}}"
                )
        return problems


class TableEntry:
    __slots__ = ("left", "right", "coords")

    def __init__(self, left, right, coords):
        self.left = left
        self.right = right
        self.coords = coords


def build_table(type_or_datum, theory="universal", raw=False):
    datum = (
        type_or_datum
        if isinstance(type_or_datum, RootDatum)
        else RootDatum.build(type_or_datum)
    )
    return MultiplicationTable(datum, theory, raw=raw)
