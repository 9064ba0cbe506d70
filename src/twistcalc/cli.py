"""Command-line surface: expansion audit, tau computation, Casson reports,
and the full embedded-dataset verification pipeline.

Exit codes: 0 success, 1 mathematical mismatch, 2 usage, file or parse error.
A twist file's lines end at LF, CRLF or CR, and at no other character; its
fields are separated by ASCII spaces and tabs only.
"""

import argparse
import re
import sys

from . import psi_data as P
from .casson import twist_audit
from .expansion import default_expansion, symplectic_defect
from .diagrams import eta
from .johnson import TwistEntry, twist_sum
from .surface import BarcodeError, _free_reduce, barcode_homology, validate_barcode
from .tensor import DomainError, Tensor, render

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
_LINE_END = re.compile(r"\r\n?|\n")
_FIELD = re.compile(r"[+-]?[0-9]+")


class TwistFileError(ValueError):
    pass


def parse_twist_file(text, g):
    """Parse the twist-file grammar: records ``coeff genus k1 ... kn`` of ASCII integers."""
    entries = []
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        tokens = [t for t in line.replace("\t", " ").split(" ") if t]
        if not all(map(_FIELD.fullmatch, tokens)):
            raise TwistFileError("line %d: fields must be signed integers" % lineno)
        fields = list(map(int, tokens))
        if len(fields) < 2:
            raise TwistFileError("line %d: expected 'coeff genus k1 ... kn'" % lineno)
        try:
            try:
                entry = TwistEntry(fields[0], fields[1], fields[2:])
            except BarcodeError:
                # TwistEntry knows no g: name the first bad entry, out of range included.
                validate_barcode(fields[2:], g)
                raise
            bounding = barcode_homology(entry.barcode, g).is_zero()
        except (BarcodeError, DomainError) as e:
            raise TwistFileError("line %d: %s" % (lineno, e))
        if entry.genus > g:
            raise TwistFileError(
                "line %d: twist genus %d exceeds surface genus %d" % (lineno, entry.genus, g)
            )
        if not bounding:
            raise TwistFileError("line %d: barcode is not null-homologous" % lineno)
        if not _free_reduce(entry.barcode):
            raise TwistFileError(
                "line %d: barcode is trivial (it freely reduces to the empty word)" % lineno
            )
        entries.append(entry)
    return entries


def format_twist_file(entries):
    lines = ["# twist list: coeff genus k1 ... kn"]
    for e in entries:
        lines.append(" ".join(str(n) for n in (e.coeff, e.genus) + tuple(e.barcode)))
    return "\n".join(lines) + "\n"


def _load_entries(path, g):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = len(_LINE_END.split(data[: e.start].decode("utf-8")))
        raise TwistFileError("line %d: not UTF-8 text" % lineno)
    return parse_twist_file(text, g)


def cmd_check_expansion(args):
    exp = default_expansion(args.genus)
    defects = symplectic_defect(exp)
    low = [k for k, _ in defects if k <= 3]
    for k, part in defects:
        print("defect degree %d: %s" % (k, render(part)))
    if not low:
        print("symplectic through degree 3")
        return EXIT_OK
    print("symplectic condition FAILS in degrees %s" % low)
    return EXIT_MISMATCH


def cmd_tau(args):
    exp = default_expansion(args.genus)
    entries = _load_entries(args.file, args.genus)
    sums = twist_sum(exp, entries, args.level + 2)
    t2 = sums[0]
    if args.level == 3 and not t2.is_zero() and not args.unsafe:
        print("J_3 certificate failed; tau_2 = %s" % render(t2), file=sys.stderr)
        return EXIT_MISMATCH
    print(render(sums[-1]))
    return EXIT_OK


def cmd_casson(args):
    exp = default_expansion(args.genus)
    entries = _load_entries(args.file, args.genus)
    (t2,) = twist_sum(exp, entries, 4)
    print(twist_audit(entries, t2).render())
    return EXIT_OK


def cmd_export_psi(args):
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_twist_file(P.psi_twist_entries()))
    return EXIT_OK


def cmd_verify_psi(args):
    """Run the full reproduction: one PASS/FAIL line per (name, computed, expected) row."""
    exp = default_expansion(P.GENUS)
    entries = P.psi_twist_entries()
    t2, t3 = twist_sum(exp, entries, exp.trunc)
    report = twist_audit(entries, t2)
    rows = (
        ("tau2_psi_vanishes", t2, Tensor(P.GENUS, exp.trunc)),
        ("tau3_matches_tree_sum", t3, eta(P.expected_tau3())),
        ("tau3_matches_compact_form", t3, eta(P.expected_tau3_compact())),
        ("bracket_decomposition", P.bracket_decomposition_value(), t3),
        ("three_tau2_odot_identity", eta(P.identity_lhs()), eta(P.identity_rhs())),
        ("lemma_odot_decomposition", eta(P.lemma_tree()), eta(P.lemma_odot_combination())),
        ("casson_numbers", report, P.EXPECTED_CASSON),
    )
    # sum c L_5 is tau_3 only under the J_3 certificate tau_2 = 0.
    uncertified = None if t2.is_zero() else "J_3 certificate failed (tau_2 != 0)"
    all_ok = True
    for name, x, y in rows:
        diff = None
        if uncertified and (x is t3 or y is t3):
            diff = uncertified
        elif x != y:
            diff = x.render() if x is report else render(x - y)
        print("%-28s %s" % (name, "FAIL" if diff else "PASS"))
        if diff:
            all_ok = False
            print("  difference: %s" % diff)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistcalc",
        description="Exact Johnson homomorphisms and Casson-core values "
        "of products of Dehn twists along bounding simple closed curves.",
    )
    parser.add_argument("--genus", type=int, default=2, help="surface genus (default 2)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-expansion", help="audit the symplectic condition")
    p.set_defaults(func=cmd_check_expansion)

    p = sub.add_parser("tau", help="tau_2 or tau_3 of a twist-list file")
    p.add_argument("--level", type=int, choices=(2, 3), required=True)
    p.add_argument("--file", required=True)
    p.add_argument(
        "--unsafe",
        action="store_true",
        help="emit the L_5 sum even without the J_3 certificate (non-Johnson output)",
    )
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("casson", help="Casson-core report of a twist-list file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_casson)

    p = sub.add_parser("export-psi", help="write the embedded dataset as a twist file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_psi)

    p = sub.add_parser("verify-psi", help="run the full reproduction pipeline")
    p.set_defaults(func=cmd_verify_psi)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.genus < 1:
        parser.error("--genus must be >= 1")
    if args.func in (cmd_export_psi, cmd_verify_psi) and args.genus != P.GENUS:
        parser.error("%s takes only --genus %d, the genus of psi" % (args.command, P.GENUS))
    try:
        return args.func(args)
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
    except TwistFileError as e:
        print("parse error: %s" % e, file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
