"""Byte-exact stdout of the CLI commands in COMMANDS and of the program's
--help pages in HELP_PAGES against the recorded files in tests/golden/, and
of three large element dumps, of every element dump up to p = 24 and of
the verify sweeps to p = 100 and p = 200 against their recorded sha256;
and exit 1 with a usage error, on no stdout, for each argv in USAGE_ERRORS.
CI reads COMMANDS, HELP_PAGES, USAGE_ERRORS and the
correction_p<p>_dump<j>.sha256 files from here to check the installed
console script, and checks the verify sweeps to p = 100, 200, 400 and 800
against their recorded sha256 too.
The group sums at every order below 3000 and at six large orders are
recorded as one sha256 too.
The repr of every derived class is recorded as well, and so is the stdout,
stderr and exit code of each argv in TRANSCRIPT, on a terminal (the tables)
and redirected (JSON), byte for byte."""

import hashlib
import shlex
import sys
from pathlib import Path

import pytest

from orbifold_index import bundles, cli, index as index_mod
from orbifold_index.identities import trig_sums

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "verify_p36.json": ["--json", "verify", "--p-max", "36"],
    "correction_p24_dump5.json": ["--json", "correction", "--p", "24", "--dump-element", "5"],
    # j = 9 shares the factor 3 with p: an element of order 8
    "correction_p24_dump9.json": ["--json", "correction", "--p", "24", "--dump-element", "9"],
    "correction_p300.json": ["--json", "correction", "--p", "300"],
    "index_p7_sd.json": ["--json", "index", "--chi", "5", "--tau", "3", "--sigma-chi", "2",
                         "--sigma-sq", "3", "--p", "7", "--duality", "sd"],
    # the example and surfaces reports, k = 3 the round metric's smooth case
    "example_hitchin_k3.json": ["--json", "example", "hitchin", "--k", "3"],
    "example_hitchin_k7.json": ["--json", "example", "hitchin", "--k", "7"],
    "example_lebrun_n4_p3.json": ["--json", "example", "lebrun", "--n", "4", "--p", "3"],
    "example_lebrun_n2_p5.json": ["--json", "example", "lebrun", "--n", "2", "--p", "5"],
    "example_ricci_flat_p3.json": ["--json", "example", "ricci-flat", "--chi", "24",
                                   "--tau", "-16", "--sigma-chi", "2", "--sigma-sq", "-4",
                                   "--p", "3"],
    "surfaces_j5.json": ["--json", "surfaces", "--j", "5"],
    "orbifold_char_beta1_3.json": ["--json", "orbifold-char", "--chi", "2", "--tau", "0",
                                   "--sigma-chi", "1", "--sigma-sq", "-2", "--beta", "1/3"],
}


# argv that main refuses as a usage error, on both of its parse paths: the
# whole parser (no subcommand, an unknown word) and a subcommand's own
_NINES = "9" * 4300  # the int-to-str limit's default: a result would add digits past it
USAGE_ERRORS = {
    "no_subcommand": [],
    "unknown_subcommand": ["bogus"],
    "missing_flags": ["--json", "index", "--chi", "2"],
    "unknown_flag": ["index", "--chi", "5", "--tau", "3", "--sigma-chi", "2", "--sigma-sq", "3",
                     "--p", "7", "--duality", "sd", "--bogus"],
    # refused by its digit count, before 10^999999999 is built
    "beta_digits": ["--json", "orbifold-char", "--chi", "2", "--tau", "0", "--sigma-chi", "1",
                    "--sigma-sq", "-2", "--beta", "1e999999999"],
    # 2^63 + 1 Massey values cannot be one list: refused, not a crash
    "surfaces_list": ["surfaces", "--j", "9223372036854775808"],
    # integer flags whose results could not be printed: refused by the
    # digit limit, and the value is not echoed
    "index_digits": ["--json", "index", "--chi", _NINES, "--tau", "1", "--sigma-chi", "2",
                     "--sigma-sq", "3", "--p", "7", "--duality", "sd"],
    "lebrun_digits": ["--json", "example", "lebrun", "--n", _NINES, "--p", "3"],
    # an element of order 10^20, whose values at zeta_p cannot be built
    "dump_too_large": ["--json", "correction", "--p", "1" + "0" * 20, "--dump-element", "1"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_1(capsys, name):
    rc = cli.main(USAGE_ERRORS[name])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith("usage error:") and len(err) < 1000, err[:200]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden_file(capsys, name):
    rc = cli.main(COMMANDS[name])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def _dump_digest(capsys, p, j):
    rc = cli.main(["--json", "correction", "--p", str(p), "--dump-element", str(j)])
    assert rc == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_largest_element_dump_matches_golden_digest(capsys):
    # every slot of the class at an element of prime order 809, the h^2
    # slot over t^2 included; 260199 bytes, so only its digest is recorded
    digest = (GOLDEN / "correction_p809_dump1.sha256").read_text().split()[0]
    assert _dump_digest(capsys, 809, 1) == digest


def test_composite_order_dump_matches_golden_digest(capsys):
    # d = 720 = 2^4 3^2 5: every power of t is divided out at an order whose
    # Phi is not (x^d - 1)/(x - 1); 50708 bytes.  d = 2310 = 2 3 5 7 11: Phi
    # has coefficients up to 3 and 16 binomial factors of each sign (Phi_720
    # = Phi_30(x^24) has only +-1); 134980 bytes
    for p in (720, 2310):
        digest = (GOLDEN / f"correction_p{p}_dump1.sha256").read_text().split()[0]
        assert _dump_digest(capsys, p, 1) == digest, p


def test_every_small_element_dump_matches_golden_digest(capsys):
    # every dump the query mix can ask for, p = 2..24 and j = 1..p-1 in that
    # order in one process (276 dumps, 1237980 bytes), so a dump that reads
    # what an earlier one left behind shows too
    digest = hashlib.sha256()
    for p in range(2, 25):
        for j in range(1, p):
            assert cli.main(["--json", "correction", "--p", str(p), "--dump-element", str(j)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (GOLDEN / "element_dumps_p24.sha256").read_text().split()[0]


def test_verify_sweep_to_100_matches_golden_digest(capsys):
    # every suite at every order up to 100; 274 bytes
    digest = (GOLDEN / "verify_p100.sha256").read_text().split()[0]
    rc = cli.main(["--json", "verify", "--p-max", "100"])
    assert rc == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_sweep_to_200_matches_golden_digest(capsys):
    # recorded before the conjugation suite checked its kernel per order and
    # its characters at three elements instead of at every element; 280 bytes
    digest = (GOLDEN / "verify_p200.sha256").read_text().split()[0]
    rc = cli.main(["--json", "verify", "--p-max", "200"])
    assert rc == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_TOPOLOGY = ["--chi", "5", "--tau", "3", "--sigma-chi", "2", "--sigma-sq", "3"]
# the orders of group_sums_p3000.sha256: every p < 3000, then a prime, a
# highly composite order, a prime, 2^20 and the primorials 17# and 19#
GROUP_SUM_ORDERS = (*range(2, 3000), 100003, 720720, 1000003, 2**20, 510510, 9699690)


def test_group_sums_match_golden_digest():
    """trig_sums and correction_sum at every order of GROUP_SUM_ORDERS, in
    that order: the sha256 of the concatenated UTF-8 bytes of
    repr((p, tuple(trig_sums(p)), correction_sum(p))), one repr per order
    and no separator, is the recorded digest in group_sums_p3000.sha256."""
    digest = hashlib.sha256()
    for p in GROUP_SUM_ORDERS:
        digest.update(repr((p, tuple(trig_sums(p)), index_mod.correction_sum(p))).encode())
    assert digest.hexdigest() == (GOLDEN / "group_sums_p3000.sha256").read_text().split()[0]


_RICCI_FLAT = ["example", "ricci-flat", "--chi", "24", "--tau", "-16", "--sigma-chi", "2",
               "--sigma-sq", "-4"]

# argv whose outputs are recorded in cli_transcript.txt: every index
# route at the smooth order 1 and at 2 and 7; correction with each kind of
# element dump, valid or not; every example, surfaces and orbifold-char
# report with their usage errors; a short verify sweep
TRANSCRIPT = [
    *(["index", *_TOPOLOGY, "--p", p, "--duality", duality, "--route", route]
      for p in ("1", "2", "7") for route in ("kawasaki", "closed", "both")
      for duality in ("asd", "sd")),
    *(["correction", "--p", p, *dump] for p in ("1", "2", "15", "24")
      for dump in ([], *(["--dump-element", j] for j in dict.fromkeys(("0", "1", "5", p))))),
    ["example", "hitchin", "--k", "3"],
    ["example", "hitchin", "--k", "7"],
    ["example", "hitchin"],
    ["example", "hitchin", "--k", "2"],
    ["example", "lebrun", "--n", "4", "--p", "3"],
    ["example", "lebrun", "--n", "2", "--p", "5"],
    ["example", "lebrun", "--p", "3"],
    ["example", "lebrun", "--n", "2", "--p", "1"],
    [*_RICCI_FLAT, "--p", "3"],
    [*_RICCI_FLAT, "--p", "1"],
    ["example", "ricci-flat", "--chi", "24", "--tau", "-16", "--p", "3"],
    ["example", "ricci-flat", "--chi", "24", "--tau", "-15", "--sigma-chi", "2",
     "--sigma-sq", "-4", "--p", "3"],
    # a negative moduli dimension, which the table flags
    ["example", "ricci-flat", "--chi", "4", "--tau", "0", "--sigma-chi", "0",
     "--sigma-sq", "-10", "--p", "2"],
    ["verify", "--p-max", "6"],
    ["verify", "--p-max", "1"],
    ["surfaces", "--j", "5"],
    ["surfaces", "--j", "0"],
    ["orbifold-char", *_TOPOLOGY, "--beta", "1/3"],
    ["orbifold-char", *_TOPOLOGY, "--beta", "0"],
]


def transcript(capsys, monkeypatch, cases):
    """Each argv's stdout, stderr and exit code, run first with stdout a
    terminal, then with it redirected (shown as `| cat`)."""
    parts = []
    for tty, pipe in ((True, ""), (False, " | cat")):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: tty)
        for argv in cases:
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            parts.append(f"$ orbifold-index {shlex.join(argv)}{pipe}\n{out}"
                         + (f"[stderr]\n{err}" if err else "") + f"[exit {rc}]\n\n")
    return "".join(parts)


def test_cli_outputs_match_golden_transcript(capsys, monkeypatch):
    text = transcript(capsys, monkeypatch, TRANSCRIPT)
    assert text.encode() == (GOLDEN / "cli_transcript.txt").read_bytes()


def test_derived_classes_match_golden_reprs():
    # the seven characters and the correction class, derived afresh by the
    # Laurent arithmetic, in their canonical forms
    chars = bundles.generic_characters.__wrapped__()
    lines = [f"{name}: {c!r}" for name, c in chars.items()]
    lines.append(f"correction_class: {index_mod.correction_class.__wrapped__()!r}")
    assert "\n".join(lines) + "\n" == (GOLDEN / "derived_classes.txt").read_text()


# the program's --help, then each subcommand's, in the order CI runs them
HELP_PAGES = ([], ["index"], ["correction"], ["verify"], ["orbifold-char"], ["surfaces"],
              ["example"])


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="Python 3.13's argparse wraps usage lines differently; "
                           "help.txt is the output of 3.10 to 3.12, which agree byte for byte")
def test_help_pages_match_golden_file(capsys, monkeypatch):
    # argparse wraps to COLUMNS - 2; help.txt was recorded at COLUMNS=80
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for argv in HELP_PAGES:
        with pytest.raises(SystemExit) as exit_:
            cli.main([*argv, "--help"])
        assert exit_.value.code == 0, argv
        pages.append(capsys.readouterr().out)
    assert "".join(pages).encode() == (GOLDEN / "help.txt").read_bytes()
