"""Command-line front end.

Subcommands: ``table`` (multiplication tables), ``torsion`` (torsion index),
``bs`` (tower presentations), ``ln`` (coefficient operations on the
universal theory) and ``check`` (the invariant self-check suite).

Rank-2 labeling: for B2 the SECOND simple root is short, for G2 the FIRST
simple root is short; basis classes are named Z_<word> by their canonical
reduced word and pt is the class of a point.

Every command works out its series truncation from its input: 2N + 1 for
``table`` and ``ln`` (N positive roots), max(l + 2, N + 1) for ``bs`` at a
length-l word.  Outputs print it but do not depend on it.

Data goes to stdout (or --out), diagnostics to stderr.  Exit codes:
0 success, 1 bad input or check failure, 2 integrality violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bott import BSRing
from .errors import FlagCohomError, IntegralityError
from .fgring import FormalGroupRing  # read by perfbench/child.py in trace mode
from .flagring import FlagBasis, _Chow, default_truncation
from .lazard import LazardBasis
from .rootdata import RootDatum
from .tables import MultiplicationTable, make_theory, word_name


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(prog="flagcohom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theory=True):
        p.add_argument("--type", help="named root system, e.g. A2, B3, G2")
        p.add_argument("--cartan", help="JSON file with an integer Cartan matrix")
        if theory:
            p.add_argument(
                "--theory",
                default="universal",
                help="universal | chow | ktheory[:gen] | connective[:gen] | custom:FILE",
            )
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_table = sub.add_parser("table", help="multiplication table")
    common(p_table)
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.add_argument(
        "--raw-basis",
        action="store_true",
        help="keep the longest class instead of replacing it by the unit",
    )

    p_torsion = sub.add_parser("torsion", help="torsion index")
    common(p_torsion, theory=False)

    p_bs = sub.add_parser("bs", help="tower presentation for a word")
    common(p_bs)
    p_bs.add_argument("--word", required=True, help="comma-separated indices, e.g. 1,2,1")
    p_bs.add_argument("--format", choices=("text", "json"), default="text")

    p_ln = sub.add_parser("ln", help="coefficient operations on the universal theory")
    common(p_ln)
    p_ln.add_argument("--bound", type=int, default=2, help="maximum operation weight")
    p_ln.add_argument("--word", help="restrict to one basis word, e.g. 1,2")
    p_ln.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="run the invariant self-check suite")
    p_check.add_argument("--type", help="restrict heavy table checks to one type")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--fast", action="store_true", help="skip the G2 golden table")
    p_check.add_argument("--out", help="write the report to this path")
    return parser


def load_datum(args):
    if args.cartan and args.type:
        raise ValueError("give either --type or --cartan, not both")
    if args.cartan:
        with open(args.cartan) as fh:
            matrix = json.load(fh)
        return RootDatum.from_cartan(matrix, label="custom")
    if args.type:
        return RootDatum.build(args.type)
    raise ValueError("one of --type or --cartan is required")


def emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def admit_table(datum, theory):
    """Refuse a table whose Weyl group is too large for ``theory``, before enumerating W."""
    bound = MAX_TABLE_WEYL_ORDER["universal" if theory == "universal" else "other"]
    order = datum.order
    if order > bound:
        raise ValueError(
            f"a {theory} table of {datum.label or 'this root datum'} has |W| = {order:,} "
            f"classes, over the bound of {bound:,}"
        )


def cmd_table(args):
    datum = load_datum(args)
    admit_table(datum, args.theory)
    table = MultiplicationTable(datum, args.theory, default_truncation(datum), raw=args.raw_basis)
    if args.format == "json":
        emit(args, json.dumps(table.render_json(), indent=2) + "\n")
    else:
        emit(args, table.render_text())
    return 0


# The torsion index walks the Chow class table one degree at a time, which
# visits each of the C(N + rank, rank) monomials of degree <= N in rank
# variables.  From the CLI on 2 cores F4 (20,475 monomials) took 0.6 s and
# 25 MB, D5 1.2 s and 37 MB, and B5 (142,506, the most of any rank-5 type)
# 3.9 s and 100 MB; E6 needs 5.2 M.
MAX_TORSION_MONOMIALS = 150_000


def cmd_torsion(args):
    datum = load_datum(args)
    monomials = math.comb(datum.N + datum.rank, datum.rank)
    if monomials > MAX_TORSION_MONOMIALS:
        raise ValueError(
            f"the torsion index of {datum.label or 'this root datum'} needs about "
            f"{monomials:,} monomials, over the bound of {MAX_TORSION_MONOMIALS:,}"
        )
    emit(args, f"{_Chow(datum, datum.weyl_elements(), 0).t}\n")
    return 0


def _parse_word(text, datum):
    word = tuple(int(p) for p in text.split(",") if p.strip())
    if not all(1 <= i <= datum.rank for i in word):
        raise ValueError(f"word letters must be indices in 1..{datum.rank}")
    return word


# A length-l word has 2^l Theta_K functionals and a tower ring of rank 2^l,
# whose 2l products in the tangent class are the work: from the CLI on 2
# shared cores, over 7 runs, an A3 universal word took 0.19-0.52 s at
# length 8, 1.5-2.3 s at 10 and 5.7-10.8 s at 11 (35 MB); in-process at 11
# the presentation took 0.14 s.  At 12 it took 23 s and 74 MB in-process,
# measured before d*y_j was skipped.
MAX_BS_WORD = 11


# The tower's Chow model enumerates W and its Bruhat graph whatever the
# word.  From the CLI on 2 shared cores over 7 runs with --word 1,2, F4
# (|W| = 1,152) took 0.27-0.42 s and 21 MB, D5 (1,920) 0.43-0.89 s, B5
# (3,840) 0.94-1.46 s and 31 MB and A6 (5,040) 1.24-1.84 s and 33 MB.
# Measured before W was generated by row updates, A7 (40,320) took 45 s,
# D6, B6 and E6 did not finish in 40-45 s and E7 not in 25 s.
MAX_BS_WEYL_ORDER = 5_040


# A table has |W| classes and about |W|^2 / 2 products.  On 2 cores the
# universal theory took 0.3-0.6 s and 20 MB at B3 and C3 (|W| = 48) and
# 1.3-2.2 s and 28 MB at A4 (120); ktheory took 3.6-6.2 s and 41 MB at D4
# (192), and chow 0.64-0.75 s at D4 and 1.7-2.2 s and 67 MB at B4 (384),
# where F4 (1152) has nine times B4's products.  ktheory at B4 (384) is
# admitted and took 51-53 s and 206 MB.  A table past these caps, D4
# universal first, would be an output of the Chow model alone, with no second
# route to check it against.  |W| comes from the roots
# (``RootDatum.order``), so a refusal enumerates nothing.
MAX_TABLE_WEYL_ORDER = {"universal": 120, "other": 384}


def _term(coeff, name):
    """coeff*name as the tower and operation lines print it: a sum in parentheses, 1 omitted."""
    if coeff == 1:
        return name
    if len(coeff.terms) > 1:
        return f"({coeff})*{name}"
    return f"{coeff}*{name}"


def cmd_bs(args):
    datum = load_datum(args)
    word = _parse_word(args.word, datum)
    if len(word) > MAX_BS_WORD:
        raise ValueError(
            f"a word of length {len(word)} is too long for bs (at most {MAX_BS_WORD} letters)"
        )
    order = datum.order
    if order > MAX_BS_WEYL_ORDER:
        raise ValueError(
            f"a tower presentation over {datum.label or 'this root datum'} enumerates "
            f"|W| = {order:,} elements, over the bound of {MAX_BS_WEYL_ORDER:,}"
        )
    trunc = max(len(word) + 2, datum.N + 1)
    law, theory = make_theory(args.theory, trunc)
    ring = BSRing(datum, law, word)
    # one record per relation j, then the tangent class (j = 0): its nonzero terms (K, coeff)
    records = [(j, ring.relation(j)) for j in range(1, len(word) + 1)]
    records.append((0, ring.tangent_chern_class().coords))
    records = [
        (j, [(K, c) for K, c in sorted(coords.items()) if not c.is_zero()]) for j, coords in records
    ]
    *relations, (_, tangent) = records
    if args.format == "json":
        obj = {
            "root_system": {"type": datum.label or "custom", "rank": datum.rank},
            "theory": theory,
            "truncation": trunc,
            "word": list(word),
            "relations": [
                {"position": j, "terms": [{"subset": list(K), "coeff": str(c)} for K, c in terms]}
                for j, terms in relations
            ],
            "tangent_class": [{"subset": list(K), "coeff": str(c)} for K, c in tangent],
        }
        emit(args, json.dumps(obj, indent=2) + "\n")
        return 0
    lines = [
        f"# tower presentation: type {datum.label}, word "
        f"{','.join(map(str, word))}, theory {theory}, truncation {trunc}"
    ]
    for j, terms in records:
        lhs, tail = (f"xi{j}^2", (j,)) if j else ("tangent_chern", ())
        parts = [_term(c, "*".join(f"xi{k}" for k in K + tail) or "1") for K, c in terms]
        lines.append(f"{lhs} = " + (" + ".join(parts) or "0"))
    emit(args, "\n".join(lines) + "\n")
    return 0


def _index_name(texp):
    parts = []
    for k, e in enumerate(texp, start=1):
        if e == 1:
            parts.append(f"t{k}")
        elif e > 1:
            parts.append(f"t{k}^{e}")
    return "*".join(parts)


def _index_count(bound):
    """The number of t-indices of weight <= bound: p(0) + ... + p(bound) partitions."""
    counts = [1] + [0] * bound
    for part in range(1, bound + 1):
        for n in range(part, bound + 1):
            counts[n] += counts[n - part]
    return sum(counts)


# ln prints one class per (word, t-index of weight <= bound) pair.  On 2
# cores A2 (5 words) took 0.25-0.29 s at bound 21 (17,530 pairs) and
# 1.4-1.6 s and 68 MB at 28 (92,300, with the cap lifted); at the cap's
# edge G2 at 18 (17,567) took 0.25 s, B2 at 20 (18,998) 0.23-0.30 s and A3
# at 15 (15,732) 0.17-0.18 s.  At bound 2, B3 (188) took 0.21-0.31 s and
# A4 (476) 0.46-0.48 s.  Weight 40 alone has 37,338 indices, so bounds
# past it are counted as 40.
MAX_LN_PAIRS = 20_000


def cmd_ln(args):
    datum = load_datum(args)
    if args.theory != "universal":
        raise ValueError("operations are defined over the universal theory")
    admit_table(datum, "universal")
    if args.word:
        word = _parse_word(args.word, datum)
        if datum.element_of_word(word).canonical_word != word:
            raise ValueError(f"{args.word} is not the canonical word of a Weyl element")
    n_words = 1 if args.word else datum.order - 1
    pairs = n_words * _index_count(min(args.bound, 40))
    if pairs > MAX_LN_PAIRS:
        raise ValueError(
            f"ln --bound {args.bound} needs at least {pairs:,} classes, one per basis word "
            f"and t-index of weight <= {args.bound}, over the bound of {MAX_LN_PAIRS:,}"
        )
    trunc = default_truncation(datum)
    law, _ = make_theory(args.theory, trunc)
    fb = FlagBasis(datum, law)
    laz = LazardBasis(law, datum.N)
    words = (
        [word]
        if args.word
        else [
            w.canonical_word
            for w in fb.elements
            if w.canonical_word != fb.w0.canonical_word
        ]
    )
    operation = fb.ln_operation(args.bound)
    records = []
    for word in words:
        ops = operation(fb.basis_class(fb.by_word[word]))
        for texp in sorted(ops):
            parts = [
                _term(laz.to_a_basis(c), word_name(w))
                for w, c in sorted(ops[texp].coords.items(), key=lambda kv: (-len(kv[0]), kv[0]))
            ]
            records.append(
                {
                    "index": _index_name(texp),
                    "argument": word_name(word),
                    "value": " + ".join(parts) or "0",
                }
            )
    if args.format == "json":
        obj = {
            "root_system": {"type": datum.label or "custom", "rank": datum.rank},
            "weight_bound": args.bound,
            "truncation": trunc,
            "operations": records,
        }
        emit(args, json.dumps(obj, indent=2) + "\n")
    else:
        lines = [f"# operations: type {datum.label}, weight bound {args.bound}, truncation {trunc}"]
        lines += [f"S[{r['index']}] {r['argument']} = {r['value']}" for r in records]
        emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_check(args):
    if args.type:  # the checks build this type's universal table
        admit_table(RootDatum.build(args.type), "universal")
    from .selfcheck import run_checks

    types = (args.type,) if args.type else ("A2", "B2", "G2")
    lines = []
    failed = 0
    for name, ok, detail, seconds in run_checks(seed=args.seed, types=types, fast=args.fast):
        # wall times vary between runs, so they go to stderr and stdout stays deterministic
        sys.stderr.write(f"{seconds:.3f} s {name}\n")
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        lines.append(f"{status} {name}" + (f": {detail}" if detail and not ok else ""))
    lines.append(f"# {len(lines) - failed}/{len(lines)} checks passed")
    emit(args, "\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


COMMANDS = {
    "table": cmd_table,
    "torsion": cmd_torsion,
    "bs": cmd_bs,
    "ln": cmd_ln,
    "check": cmd_check,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except IntegralityError as exc:
        print(f"integrality error: {exc}", file=sys.stderr)
        return 2
    except (FlagCohomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
