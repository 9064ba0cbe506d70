import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from twistcalc.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    TwistFileError,
    format_twist_file,
    main,
    parse_twist_file,
)
from twistcalc import psi_data, surface
from twistcalc.casson import CassonReport
from twistcalc.diagrams import eta
from twistcalc.johnson import TwistEntry
from twistcalc.psi_data import expected_tau3, psi_twist_entries
from twistcalc.surface import validate_barcode
from twistcalc.tensor import extract, render


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def psi_file(tmp_path):
    path = tmp_path / "psi.txt"
    code, _, _ = run_cli("export-psi", "--out", str(path))
    assert code == EXIT_OK
    return str(path)


# -- twist file grammar ----------------------------------------------------


def test_parse_round_trip():
    entries = psi_twist_entries()
    assert parse_twist_file(format_twist_file(entries), 2) == entries


def test_parse_skips_comments_and_blanks():
    text = "# comment\n\n1 1 1 -2 -1 2\n"
    entries = parse_twist_file(text, 2)
    assert len(entries) == 1
    assert entries[0].barcode == (1, -2, -1, 2)


@pytest.mark.parametrize(
    "line",
    ["0 1 1 -2", "1 3 1 -2", "1 1 9", "1 1 0", "x 1 1", "1", "1 1 1 -2", "1 1", "1 1 1 -1"],
)
def test_parse_rejects_bad_records(line):
    with pytest.raises(TwistFileError, match=r"^line 1: "):
        parse_twist_file(line, 2)


# Records with more than one fault report the first of: exponent, twist
# genus, barcode entries, genus above the surface's, homology, triviality.
FIRST_FAULTS = [
    ("0 3 1 -2", 2, "twist exponent must be nonzero"),
    ("1 3 0 9", 2, "twist genus must be 1 or 2"),
    ("1 1 0 9", 2, "barcode entries must be nonzero"),
    ("1 2 9 -9", 1, "barcode entry 9 out of range for genus 1"),
    ("1 2 1 -1 3", 1, "barcode entry 3 out of range for genus 1"),
    ("1 2 1 -2", 1, "twist genus 2 exceeds surface genus 1"),
    ("1 1 1 -1 2", 2, "barcode is not null-homologous"),
    ("1 1 1 2 -2 -1", 2, "barcode is trivial (it freely reduces to the empty word)"),
    ("1 1", 2, "barcode is trivial (it freely reduces to the empty word)"),
]


@pytest.mark.parametrize("line, g, message", FIRST_FAULTS)
def test_parse_reports_the_first_fault_of_a_record(line, g, message):
    with pytest.raises(TwistFileError) as info:
        parse_twist_file("# head\n\n" + line + "\n", g)
    assert str(info.value) == "line 3: " + message


def test_parse_reports_an_out_of_range_entry_before_a_later_zero():
    # The zero is TwistEntry's fault too, but the entry out of range comes first.
    with pytest.raises(TwistFileError) as info:
        parse_twist_file("1 1 9 0\n", 2)
    assert str(info.value) == "line 1: barcode entry 9 out of range for genus 2"


def test_parse_checks_each_barcode_once(monkeypatch):
    # This counts only the calls through surface.validate_barcode, made by the
    # homology check with g; TwistEntry's check without g goes through the
    # name johnson imported and is not counted, so each barcode is checked twice.
    text = format_twist_file(psi_twist_entries())
    calls = []

    def counting_validate_barcode(bc, g=None):
        calls.append(bc)
        return validate_barcode(bc, g)

    monkeypatch.setattr(surface, "validate_barcode", counting_validate_barcode)
    entries = parse_twist_file(text, 2)
    assert calls == [e.barcode for e in entries]


# -- commands ---------------------------------------------------------------


def test_check_expansion_ok():
    code, out, _ = run_cli("check-expansion")
    assert code == EXIT_OK
    assert "symplectic through degree 3" in out


def test_check_expansion_rejects_genus_zero():
    code, _, _ = run_cli("--genus", "0", "check-expansion")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["verify-psi", "export-psi"])
def test_psi_commands_take_only_the_genus_of_psi(command, tmp_path):
    # psi lives in genus 2: another --genus is a usage error, not a genus-2 run.
    out_file = tmp_path / "psi.txt"
    argv = [command] + (["--out", str(out_file)] if command == "export-psi" else [])
    for genus in ("1", "3"):
        code, out, err = run_cli("--genus", genus, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("error: %s takes only --genus 2, the genus of psi\n" % command)
        assert not out_file.exists()
    code, _, _ = run_cli("--genus", "2", *argv)
    assert code == EXIT_OK


def test_export_psi_has_sixteen_records(psi_file):
    with open(psi_file) as fh:
        records = [l for l in fh if l.strip() and not l.startswith("#")]
    assert len(records) == 16


def test_tau2_of_psi_file(psi_file):
    code, out, _ = run_cli("tau", "--level", "2", "--file", psi_file)
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_tau3_of_psi_file(psi_file):
    code, out, _ = run_cli("tau", "--level", "3", "--file", psi_file)
    assert code == EXIT_OK
    assert out.strip() == render(extract(eta(expected_tau3(), 5), 5))


def test_tau3_requires_certificate(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1 1 1 -2 -1 2\n")
    code, _, err = run_cli("tau", "--level", "3", "--file", str(path))
    assert code == EXIT_MISMATCH
    assert "tau_2" in err
    code, out, _ = run_cli("tau", "--level", "3", "--file", str(path), "--unsafe")
    assert code == EXIT_OK
    assert out.strip() != ""


def test_tau_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 1 -2 -1 2\nnot numbers\n")
    code, _, err = run_cli("tau", "--level", "2", "--file", str(path))
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_non_bounding_barcode_reports_line(tmp_path):
    path = tmp_path / "open.txt"
    path.write_text("1 1 1 -2 -1 2\n1 1 1 -2\n")
    code, _, err = run_cli("casson", "--file", str(path))
    assert code == EXIT_USAGE
    assert "line 2: barcode is not null-homologous" in err


@pytest.mark.parametrize("line", ["1 1", "-2 2 1 2 -2 -1"])
def test_trivial_barcode_reports_line(tmp_path, line):
    path = tmp_path / "trivial.txt"
    path.write_text("1 1 1 -2 -1 2\n%s\n" % line)
    code, out, err = run_cli("casson", "--file", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "parse error: line 2: barcode is trivial (it freely reduces to the empty word)\n"


def test_twist_genus_above_surface_genus_reports_line(tmp_path):
    path = tmp_path / "g2.txt"
    path.write_text("1 1 1 2 -1 -2\n1 2 1 2 -1 -2\n")
    code, out, err = run_cli("--genus", "1", "casson", "--file", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "parse error: line 2: twist genus 2 exceeds surface genus 1\n"


@pytest.mark.parametrize(
    "field", ["1_0", "\uff11", "\u0661"], ids=["underscore", "fullwidth-one", "arabic-indic-one"]
)
def test_field_that_is_not_an_ascii_integer_reports_line(tmp_path, field):
    # int() would read 1_0 as 10, and the full-width and Arabic-Indic ones as 1.
    path = tmp_path / "digits.txt"
    path.write_text("1 1 1 -2 -1 2\n%s 1 1 -2 -1 2\n" % field, encoding="utf-8")
    for argv in (("casson",), ("tau", "--level", "2")):
        code, out, err = run_cli(*argv, "--file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "parse error: line 2: fields must be signed integers\n"


@pytest.mark.parametrize(
    "sep",
    ["\u3000", "\xa0", "\x1c", "\x85", "\u2028"],
    ids=["ideographic-space", "nbsp", "file-separator", "nel", "line-separator"],
)
def test_only_ascii_spaces_and_tabs_separate_fields(tmp_path, sep):
    # str.split() would split at each of these and read the line as 1 1 1 -2 -1 2,
    # and str.strip() would drop one at either end of a line.
    text = "1 1 1 -2 -1 2\n1%s1 1 -2 -1 2\n" % sep
    for bad in (text, "1 1 1 -2 -1 2\n%s1 1 1 -2 -1 2%s\n" % (sep, sep)):
        with pytest.raises(TwistFileError, match=r"^line 2: fields must be signed integers$"):
            parse_twist_file(bad, 2)
    path = tmp_path / "sep.txt"
    path.write_text(text, encoding="utf-8")
    for argv in (("casson",), ("tau", "--level", "2")):
        code, out, err = run_cli(*argv, "--file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "parse error: line 2: fields must be signed integers\n"


def test_tabs_and_runs_of_spaces_separate_fields():
    entries = parse_twist_file(" \t1\t1  1 \t-2 -1 2 \t\n\t \n", 2)
    assert entries == [TwistEntry(1, 1, (1, -2, -1, 2))]


@pytest.mark.parametrize("coeff, value", [("+3", 3), ("-03", -3)])
def test_signs_and_leading_zeros_are_accepted(coeff, value):
    (entry,) = parse_twist_file("%s 1 +1 -02 -1 02\n" % coeff, 2)
    assert entry == TwistEntry(value, 1, (1, -2, -1, 2))


@pytest.mark.parametrize(
    "data, lineno",
    [
        (b"\xff\n", 1),
        (b"1 1 1 -2 -1 2\n1 1 1 \xe9 -1 2\n", 2),
        (b"# caf\xc3\xa9\r\n1 1 1 -2 -1 2\r\n\n# \xc3", 4),
        (b"# note\x0cpage\n1 1 1 \xe9 -1 2\n", 2),
    ],
)
def test_file_that_is_not_utf8_reports_line(tmp_path, data, lineno):
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    for argv in (("casson",), ("tau", "--level", "2")):
        code, out, err = run_cli(*argv, "--file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "parse error: line %d: not UTF-8 text\n" % lineno


# Only \n, \r\n and \r end a line; str.splitlines() also breaks at these.
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_comment_with_other_break_characters_is_one_line(tmp_path, char):
    record = "1 1 1 -2 -1 2\n"
    text = record + "# note%spage\n" % char + record
    assert parse_twist_file(text, 2) == parse_twist_file(record * 2, 2)
    with pytest.raises(TwistFileError, match=r"^line 4: fields must be signed integers$"):
        parse_twist_file(text + "1 1 x\n", 2)
    path = tmp_path / "bad.txt"
    path.write_text(text + "1 1 1 -2\n", encoding="utf-8")
    code, out, err = run_cli("casson", "--file", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "parse error: line 4: barcode is not null-homologous\n"


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
def test_cr_and_crlf_line_ends_parse_like_lf(newline):
    text = format_twist_file(psi_twist_entries())
    assert parse_twist_file(text.replace("\n", newline), 2) == parse_twist_file(text, 2)
    bad = "# head\n1 1 1 -2 -1 2\n\n1 1 1 -2\n".replace("\n", newline)
    with pytest.raises(TwistFileError, match=r"^line 4: barcode is not null-homologous$"):
        parse_twist_file(bad, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ("casson", "--file", "{tmp}/missing.txt"),
        ("tau", "--level", "2", "--file", "{tmp}"),
        ("export-psi", "--out", "{tmp}/missing/x"),
    ],
    ids=["casson-missing-file", "tau-directory", "export-psi-missing-dir"],
)
def test_os_error_exits_with_usage_code(tmp_path, argv):
    code, out, err = run_cli(*(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: [Errno ")
    assert err.endswith("\n") and err.count("\n") == 1


def test_casson_of_psi_file(psi_file):
    code, out, _ = run_cli("casson", "--file", psi_file)
    assert code == EXIT_OK
    assert out.strip().splitlines() == [
        "d -24",
        "d_prime 0",
        "n_genus1 10",
        "n_genus2 -3",
        "lambda 1",
    ]


def test_casson_single_genus_two_twist(tmp_path):
    path = tmp_path / "g2.txt"
    path.write_text("1 2 3 -4 -3 4 1 -2 -1 2\n")
    code, out, _ = run_cli("casson", "--file", str(path))
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines == ["d 8", "d_prime 10", "n_genus1 0", "n_genus2 1"]


def test_casson_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, out, _ = run_cli("casson", "--file", str(path))
    assert code == EXIT_OK
    assert out.strip().splitlines() == [
        "d 0",
        "d_prime 0",
        "n_genus1 0",
        "n_genus2 0",
        "lambda 0",
    ]


def test_verify_psi_passes():
    code, out, _ = run_cli("verify-psi")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") == 7


def test_verify_psi_corrupted_fails_on_tau2(monkeypatch):
    head, *rest = psi_twist_entries()
    perturbed = [TwistEntry(head.coeff + 1, head.genus, head.barcode)] + rest
    monkeypatch.setattr(psi_data, "psi_twist_entries", lambda: perturbed)
    code, out, _ = run_cli("verify-psi")
    assert code == EXIT_MISMATCH
    assert "tau2_psi_vanishes            FAIL" in out
    assert "  difference: " in out
    # With tau_2 != 0 the L_5 sum is no tau_3, so no tau_3 row may pass.
    lines = out.splitlines()
    for row in ("tau3_matches_tree_sum", "tau3_matches_compact_form", "bracket_decomposition"):
        at = lines.index("%-28s FAIL" % row)
        assert lines[at + 1] == "  difference: J_3 certificate failed (tau_2 != 0)"


VERIFY_PSI_ROWS = (
    "tau2_psi_vanishes",
    "tau3_matches_tree_sum",
    "tau3_matches_compact_form",
    "bracket_decomposition",
    "three_tau2_odot_identity",
    "lemma_odot_decomposition",
    "casson_numbers",
)


def _doubled(expected):
    return lambda: expected() + expected()


def _lambda_two(report):
    return CassonReport(report.d_value, report.d_prime_value, report.n_genus1, report.n_genus2, 2)


@pytest.mark.parametrize(
    "attr, make_wrong, row",
    [
        ("expected_tau3", _doubled, "tau3_matches_tree_sum"),
        ("expected_tau3_compact", _doubled, "tau3_matches_compact_form"),
        ("bracket_decomposition_value", _doubled, "bracket_decomposition"),
        ("identity_rhs", _doubled, "three_tau2_odot_identity"),
        ("lemma_odot_combination", _doubled, "lemma_odot_decomposition"),
        ("EXPECTED_CASSON", _lambda_two, "casson_numbers"),
    ],
)
def test_verify_psi_fails_on_exactly_the_row_with_a_wrong_expected_side(
    monkeypatch, attr, make_wrong, row
):
    monkeypatch.setattr(psi_data, attr, make_wrong(getattr(psi_data, attr)))
    code, out, _ = run_cli("verify-psi")
    assert code == EXIT_MISMATCH
    lines = out.splitlines()
    status = [line for line in lines if line.endswith((" PASS", " FAIL"))]
    assert status == [
        "%-28s %s" % (name, "FAIL" if name == row else "PASS") for name in VERIFY_PSI_ROWS
    ]
    assert lines[lines.index("%-28s FAIL" % row) + 1].startswith("  difference: ")
    assert sum(line.startswith("  difference: ") for line in lines) == 1


def test_output_is_deterministic(psi_file):
    runs = {run_cli("tau", "--level", "3", "--file", psi_file)[1] for _ in range(3)}
    assert len(runs) == 1


# -- golden stdout ----------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
TWO_TWISTS = "-3 2 3 -4 -3 4 1 -2 -1 2\n-1 1 -2 1 2 -1 -4 1 -2 -1 4 1 -2 -1 2 2\n"
# Genus-3 commutator twists: one on the third handle, one across all three
# handles, and a conjugate by beta_3 that cyclic reduction strips.
G3_TWISTS = "2 1 5 -6 -5 6\n-1 2 1 5 -2 -5 -1 2 3 -4 -6 -3 6 4\n1 1 6 1 -2 -1 2 -6\n"
GOLDEN_COMMANDS = [
    ["verify-psi"],
    ["tau", "--level", "2", "--file", "{psi}"],
    ["tau", "--level", "3", "--file", "{psi}"],
    ["casson", "--file", "{psi}"],
    ["--genus", "2", "check-expansion"],
    ["--genus", "3", "check-expansion"],
    ["tau", "--level", "3", "--unsafe", "--file", "{two}"],
    ["--genus", "3", "tau", "--level", "2", "--file", "{g3}"],
    ["--genus", "3", "tau", "--level", "3", "--unsafe", "--file", "{g3}"],
]


def golden_runs(tmp):
    """[argv, exit code, stdout] of each golden command; {psi} is the exported
    psi file, {two} a file of two twists and {g3} one of three genus-3 twists,
    all written under tmp.  The last run is export-psi itself, with the text
    of the file it writes in place of its empty stdout."""
    paths = {name: os.path.join(tmp, name + ".txt") for name in ("psi", "two", "g3")}
    export = ["export-psi", "--out", "{psi}"]
    code, out, _ = run_cli(*(a.format(**paths) for a in export))
    assert (code, out) == (EXIT_OK, "")
    for name, text in (("two", TWO_TWISTS), ("g3", G3_TWISTS)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    runs = []
    for argv in GOLDEN_COMMANDS:
        code, out, _ = run_cli(*(a.format(**paths) for a in argv))
        runs.append([argv, code, out])
    with open(paths["psi"], "rb") as fh:
        runs.append([export, EXIT_OK, fh.read().decode("utf-8")])
    return runs


def test_cli_stdout_matches_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        assert golden_runs(str(tmp_path)) == json.load(fh)


if __name__ == "__main__":
    # Rewrite the golden file from this tree: PYTHONPATH=src python -B tests/test_cli.py
    with tempfile.TemporaryDirectory() as tmp:
        runs = golden_runs(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")
