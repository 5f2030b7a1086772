"""Command-line behavior: outputs, exit codes, determinism, fault detection."""

import contextlib
import copy
import io
import json
import sys
from types import MappingProxyType

import pytest

import orbifold_index.applications as applications
import orbifold_index.bundles as bundles
import orbifold_index.index as index_mod
import orbifold_index.scalars as scalars
from oracles import Cyc, character
from orbifold_index import cli, identities, verify
from orbifold_index.ring import CohomElement
from orbifold_index.scalars import Cyclotomic, Laurent


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv)
    return rc, json.loads(out) if out.strip() else None, err


def test_index_hitchin_data(capsys):
    rc, data, _ = run_json(capsys, ["index", "--chi", "2", "--tau", "0",
                                    "--sigma-chi", "1", "--sigma-sq", "-2",
                                    "--p", "5", "--duality", "sd"])
    assert rc == 0
    assert data["index"] == 3
    assert data["agree"] is True
    assert data["routes"] == {"kawasaki": 3, "closed_form": 3}
    assert data["correction"] == {"e": "-2", "h": "-16/5"}


def test_index_smooth_case(capsys):
    rc, data, _ = run_json(capsys, ["index", "--chi", "2", "--tau", "0",
                                    "--sigma-chi", "2", "--sigma-sq", "0",
                                    "--p", "1", "--duality", "asd"])
    assert rc == 0
    assert data["index"] == 15
    assert data["routes"]["smooth"] == "15"


def test_index_single_route_labels(capsys):
    base = ["index", "--chi", "2", "--tau", "0", "--sigma-chi", "1",
            "--sigma-sq", "-2", "--duality", "sd"]
    rc, data, _ = run_json(capsys, base + ["--p", "5", "--route", "closed"])
    assert rc == 0 and data["route"] == "closed_form" and data["index"] == 3
    rc, data, _ = run_json(capsys, base + ["--p", "5", "--route", "kawasaki"])
    assert rc == 0 and data["route"] == "kawasaki" and data["index"] == 3
    rc, data, _ = run_json(capsys, base + ["--p", "1", "--route", "kawasaki"])
    assert rc == 0 and data["route"] == "smooth"  # empty-sum route at p = 1


def test_index_closed_route_rejects_p1(capsys):
    rc, _, err = run(capsys, ["index", "--chi", "2", "--tau", "0",
                              "--sigma-chi", "2", "--sigma-sq", "0",
                              "--p", "1", "--duality", "asd",
                              "--route", "closed"])
    assert rc == 1
    assert "smooth" in err


_ODD_PARITY = ["--chi", "1", "--tau", "2", "--sigma-chi", "1", "--sigma-sq", "1"]


def test_index_rejects_chi_and_tau_of_different_parity(capsys):
    # no closed four-manifold has chi + tau odd: bad input, not an internal failure
    for route in ("both", "kawasaki", "closed"):
        rc, out, err = run(capsys, ["--json", "index", *_ODD_PARITY, "--p", "3",
                                    "--duality", "asd", "--route", route])
        assert (rc, out) == (1, "")
        assert err.startswith("usage error:") and "parity" in err


def test_ricci_flat_rejects_chi_and_tau_of_different_parity(capsys):
    rc, out, err = run(capsys, ["--json", "example", "ricci-flat", *_ODD_PARITY])
    assert (rc, out) == (1, "")
    assert err.startswith("usage error:") and "parity" in err


def test_index_route_agreement_random(capsys):
    import random
    rng = random.Random(31)
    for _ in range(6):
        chi, tau = rng.randint(-10, 10), rng.randint(-10, 10)
        if (chi + tau) % 2:
            tau += 1
        argv = ["index", "--chi", str(chi), "--tau", str(tau),
                "--sigma-chi", str(rng.randint(-5, 5)),
                "--sigma-sq", str(rng.randint(-5, 5)),
                "--p", str(rng.randint(2, 20)), "--duality",
                rng.choice(["asd", "sd"])]
        rc, data, _ = run_json(capsys, argv)
        assert rc == 0 and data["agree"] is True


def test_index_route_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "index_closed_form", lambda d, duality: 10 ** 6)
    rc, data, err = run_json(capsys, ["index", "--chi", "2", "--tau", "0",
                                      "--sigma-chi", "1", "--sigma-sq", "-2",
                                      "--p", "5", "--duality", "sd"])
    assert rc == 3
    assert data["agree"] is False
    assert "disagreement" in err


def test_correction_route_disagreement_exits_3_and_names_both_values(capsys, monkeypatch):
    real = cli.correction_sum_closed_form
    monkeypatch.setattr(cli, "correction_sum_closed_form",
                        lambda p: index_mod.CorrectionSum(real(p).coeff_e + 1, real(p).coeff_h))
    rc, data, err = run_json(capsys, ["--json", "correction", "--p", "7"])
    assert rc == 3
    assert data["agree"] is False
    traced, closed = data["brute"], data["closed"]
    assert err == ("internal consistency failure: route disagreement at p=7: "
                   f"class traces e={traced['e']} h={traced['h']}, "
                   f"closed form e={closed['e']} h={closed['h']}\n")
    # index names its p and both of its values the same way
    monkeypatch.setattr(cli, "index_closed_form", lambda d, duality: 10 ** 6)
    rc, _, err = run_json(capsys, ["index", *_HITCHIN, "--p", "5", "--duality", "sd"])
    assert rc == 3
    assert err == ("internal consistency failure: route disagreement at p=5: "
                   "kawasaki index 3, closed form index 1000000\n")


def test_usage_errors(capsys):
    assert run(capsys, ["index", "--chi", "2"])[0] == 1             # missing flags
    assert run(capsys, ["index", "--chi", "2", "--tau", "0",
                        "--sigma-chi", "1", "--sigma-sq", "-2",
                        "--p", "5", "--duality", "weird"])[0] == 1  # bad choice
    assert run(capsys, ["verify", "--p-max", "1"])[0] == 1
    assert run(capsys, ["surfaces", "--j", "0"])[0] == 1
    assert run(capsys, ["example", "hitchin", "--k", "2"])[0] == 1
    assert run(capsys, ["example", "lebrun", "--n", "3", "--p", "1"])[0] == 1
    assert run(capsys, ["example", "ricci-flat"])[0] == 1
    assert run(capsys, ["correction", "--p", "0"])[0] == 1
    assert run(capsys, ["correction", "--p", "4", "--dump-element", "4"])[0] == 1
    # range checks the library would otherwise raise as ValueError
    assert run(capsys, ["index", *_HITCHIN, "--p", "0", "--duality", "sd"])[0] == 1
    assert run(capsys, ["example", "ricci-flat", *_HITCHIN, "--p", "0"])[0] == 1
    assert run(capsys, ["example", "ricci-flat", *_HITCHIN, "--p", "1"])[0] == 1


def test_correction_command(capsys):
    rc, data, _ = run_json(capsys, ["correction", "--p", "3"])
    assert rc == 0
    assert data["brute"] == {"e": "-1", "h": "-8/9"}
    assert data["closed"] == {"e": "-1", "h": "-8/9"}
    assert data["agree"] is True

    rc, data, _ = run_json(capsys, ["correction", "--p", "1"])
    assert rc == 0
    assert data["brute"] == {"e": "0", "h": "0"}
    assert data["closed"] is None

    rc, data, _ = run_json(capsys, ["correction", "--p", "4",
                                    "--dump-element", "1"])
    assert rc == 0
    assert data["characters"]["thom"]["1"] == {"order": 4, "coeffs": ["2", "0"]}
    assert data["correction_at"]["e"] == {"order": 4, "coeffs": ["-7/2", "0"]}


def test_orbifold_char_command(capsys):
    rc, data, _ = run_json(capsys, ["orbifold-char", "--chi", "2", "--tau", "0",
                                    "--sigma-chi", "1", "--sigma-sq", "-2",
                                    "--beta", "1/2"])
    assert rc == 0
    assert data["chi_orb"] == "3/2" and data["tau_orb"] == "1/2"
    rc, _, err = run(capsys, ["orbifold-char", "--chi", "2", "--tau", "0",
                              "--sigma-chi", "1", "--sigma-sq", "-2",
                              "--beta", "zero"])
    assert rc == 1 and "malformed" in err
    assert run(capsys, ["orbifold-char", "--chi", "2", "--tau", "0",
                        "--sigma-chi", "1", "--sigma-sq", "-2",
                        "--beta", "-1/2"])[0] == 1
    # chi + tau odd is rejected as index rejects it, though chi_orb and tau_orb exist
    rc, out, err = run(capsys, ["--json", "orbifold-char", "--chi", "1", "--tau", "0",
                                "--sigma-chi", "1", "--sigma-sq", "-2", "--beta", "1/2"])
    assert (rc, out) == (1, "")
    assert err.startswith("usage error:") and "parity" in err


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@pytest.mark.parametrize("beta", ["1e5000", "1e999999999", "1e-5000", "0e999999999",
                                  "1/" + "7" * 5000, "3" * 5000 + ".5"])
def test_orbifold_char_refuses_a_beta_past_the_digit_limit(capsys, beta):
    # refused by its digit count before Fraction builds it, so the power of
    # ten of 1e999999999 is never computed; the message names the limit
    rc, out, err = run(capsys, ["--json", "orbifold-char", *_HITCHIN, "--beta", beta])
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: rational ")
    assert f"exceeds the limit of {_DIGIT_LIMIT} digits" in err and len(err) < 200


def test_orbifold_char_names_a_long_malformed_beta_by_its_length(capsys):
    rc, out, err = run(capsys, ["--json", "orbifold-char", *_HITCHIN, "--beta", "x" * 100000])
    assert (rc, out) == (1, "")
    assert "malformed rational 'xxxxxxxxxxxxxxxxxxxx'... (100000 characters)" in err
    assert len(err) < 200


def test_orbifold_char_refuses_a_result_past_the_digit_limit(capsys):
    # beta = 10^(limit - 1) parses, but tau_orb holds beta^2
    rc, out, err = run(capsys, ["--json", "orbifold-char", *_HITCHIN,
                                "--beta", f"1e{_DIGIT_LIMIT - 1}"])
    assert (rc, out) == (1, "")
    assert err.startswith("usage error:") and "cannot be printed" in err


_FLAG_DIGITS = _DIGIT_LIMIT - cli._RESULT_DIGITS  # the most digits an integer flag takes
_P_DIGITS = _FLAG_DIGITS // 2  # and --p, whose square the correction sum holds


def _widest_results(n, n_p):
    """Each route of index, and example lebrun and ricci-flat, on n-digit
    flags signed so that the results have the most digits: the ASD closed
    form is (15 chi + 29 tau - 8 chi(Sigma) - 8 [Sigma]^2) / 2, 30 times
    the flags here, and lebrun's numbers are 3 times --n.  Where the
    correction sum is not traced, --p has n_p digits."""
    big, neg = "9" * n, "-" + "9" * n
    topo = ["--chi", big, "--tau", big, "--sigma-chi", neg, "--sigma-sq", neg]
    index = ["index", *topo, "--duality", "asd"]
    wide_p = "9" * n_p
    return {"index_both": [*index, "--p", "7"],
            "index_kawasaki": [*index, "--p", "7", "--route", "kawasaki"],
            "index_closed": [*index, "--p", wide_p, "--route", "closed"],
            "index_smooth": [*index, "--p", "1"],
            "lebrun": ["example", "lebrun", "--n", big, "--p", wide_p],
            "ricci_flat": ["example", "ricci-flat", *topo, "--p", wide_p]}


@pytest.mark.parametrize("name", sorted(_widest_results(1, 1)))
def test_integer_flags_at_the_digit_limit_answer(capsys, name):
    rc, data, err = run_json(capsys, ["--json", *_widest_results(_FLAG_DIGITS, _P_DIGITS)[name]])
    assert rc == 0, err
    widest = 10 ** _FLAG_DIGITS - 1
    if name.startswith("index"):
        assert data["index"] == (22 if name == "index_smooth" else 30) * widest
    elif name == "ricci_flat":
        assert data["moduli_dim"] == -30 * widest


# one more digit than each budget takes, on routes that trace no correction
# sum; test_golden.USAGE_ERRORS holds the 4300-digit index --chi and
# example lebrun --n
@pytest.mark.parametrize("argv, flag, limit", [
    (["example", "ricci-flat", "--chi", "9" * (_FLAG_DIGITS + 1), "--tau", "1",
      "--sigma-chi", "2", "--sigma-sq", "3", "--p", "3"], "--chi", _FLAG_DIGITS),
    (["index", "--chi", "5", "--tau", "3", "--sigma-chi", "2", "--sigma-sq", "3",
      "--duality", "sd", "--route", "closed", "--p", "-" + "9" * (_P_DIGITS + 1)],
     "--p", _P_DIGITS),
    (["example", "lebrun", "--n", "4", "--p", "9" * (_P_DIGITS + 1)], "--p", _P_DIGITS)],
    ids=["ricci_flat_chi", "index_closed_p", "lebrun_p"])
def test_integer_flags_past_the_digit_limit_are_usage_errors(capsys, argv, flag, limit):
    # refused at parse time by the flag's name and the limit, and the value
    # is not echoed
    rc, out, err = run(capsys, ["--json", *argv])
    assert (rc, out) == (1, "")
    assert err.startswith(f"usage error: argument {flag}: more than {limit} digits")
    assert len(err) < 200


@pytest.fixture
def int_digit_limit_640():
    """The interpreter's least int-to-str limit, so that a --p at its budget
    can be 3 times a power of two, whose correction sum is traced in a
    fraction of a second."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield (640 - cli._RESULT_DIGITS) // 2
    sys.set_int_max_str_digits(old)


def test_the_correction_sum_at_the_p_digit_limit_prints(capsys, int_digit_limit_640):
    # p = 3 * 2^1057 has 319 digits, the budget at 640, and the h numerator
    # 5 p^2 - 29, prime to 6p, has 639: correction and the traced index
    # routes print it
    p = 3 * 2 ** 1057
    assert len(str(p)) == int_digit_limit_640
    for argv, key in ((["correction", "--p", str(p)], "brute"),
                      (["index", *_HITCHIN, "--duality", "sd", "--p", str(p)], "correction")):
        rc, data, err = run_json(capsys, ["--json", *argv])
        assert rc == 0, err
        h = data[key]["h"]
        assert h == f"-{5 * p * p - 29}/{6 * p}" and len(h) == 1 + 639 + 1 + 320
    # 8p has one digit more: its h numerator would have 641
    rc, out, err = run(capsys, ["--json", "correction", "--p", str(8 * p)])
    assert (rc, out) == (1, "")
    assert err.startswith(f"usage error: argument --p: more than {int_digit_limit_640} digits")


def test_a_malformed_integer_keeps_the_argparse_message(capsys):
    rc, out, err = run(capsys, ["--json", "correction", "--p", "7x"])
    assert (rc, out, err) == (1, "", "usage error: argument --p: invalid int value: '7x'\n")


@pytest.mark.parametrize("beta, chi_orb, tau_orb", [("1/3", "4/3", "16/27"), ("0.5", "3/2", "1/2"),
                                                    ("1e3", "1001", "-666666")])
def test_orbifold_char_keeps_small_betas(capsys, beta, chi_orb, tau_orb):
    rc, data, _ = run_json(capsys, ["orbifold-char", *_HITCHIN, "--beta", beta])
    assert rc == 0 and (data["chi_orb"], data["tau_orb"]) == (chi_orb, tau_orb)


def test_surfaces_command(capsys):
    rc, data, _ = run_json(capsys, ["surfaces", "--j", "1"])
    assert rc == 0
    assert data["massey"] == [-2, 2] and data["feasible"] == [-2]
    rc, data, _ = run_json(capsys, ["surfaces", "--j", "5"])
    assert data["feasible"] == [-10, -6]


@pytest.mark.parametrize("j", [2**63, 2**62])
def test_surfaces_j_past_the_list_limit_is_a_usage_error(capsys, j):
    # the j + 1 Massey values cannot be one list: past the C ssize_t range
    # (OverflowError) or past the largest list of pointers (MemoryError);
    # both fail before anything is allocated.  A range limit, not a crash
    rc, out, err = run(capsys, ["--json", "surfaces", "--j", str(j)])
    assert rc == 1
    assert out == ""
    assert err.startswith("usage error: --j ")


def test_example_commands(capsys):
    rc, data, _ = run_json(capsys, ["example", "hitchin", "--k", "7"])
    assert rc == 0
    assert data["report"]["index"] == 3 and data["report"]["verdict"] == "rigid"

    rc, data, _ = run_json(capsys, ["example", "lebrun", "--n", "4", "--p", "3"])
    assert data["report"]["index"] == -5 and data["report"]["dim_h1"] == 6

    rc, data, _ = run_json(capsys, ["example", "ricci-flat", "--chi", "24",
                                    "--tau", "-16", "--sigma-chi", "2",
                                    "--sigma-sq", "-4", "--p", "2"])
    assert data["moduli_dim"] == 44


def test_verify_passes(capsys):
    rc, data, _ = run_json(capsys, ["verify", "--p-max", "6"])
    assert rc == 0
    assert data["ok"] is True
    assert set(data["suites"]) == {"correction", "trig", "conjugation",
                                   "rank", "divisibility", "p-independence"}
    assert all(v["pass"] == 5 and not v["fail"] for v in data["suites"].values())


def test_verify_minimal_run(capsys):
    rc, data, _ = run_json(capsys, ["verify", "--p-max", "2"])
    assert rc == 0 and data["ok"] is True


def test_verify_holds_one_order_of_tables_at_a_time(capsys):
    # the sweep runs order by order: each order's reduction table is built
    # once, and only the last order's table and Phi_p are kept
    scalars._reduction_rows.cache_clear()
    rc, data, _ = run_json(capsys, ["--json", "verify", "--p-max", "40"])
    assert rc == 0 and data["ok"] is True
    assert scalars._reduction_rows.cache_info().misses <= 39
    for memo in (scalars._reduction_rows, scalars.cyclotomic_polynomial):
        assert memo.cache_info().currsize <= 1, memo


def test_verify_detects_injected_sign_fault(capsys, monkeypatch):
    real = bundles.derive_characters

    def bad_thom(z, z_bar):
        # sign fault on the -2 i sin(theta) h term of the derived Thom
        # character; it passes the conjugation suite, is invisible at p = 2
        # (sin pi = 0) but poisons every correction sum from p = 3 on
        chars = real(z, z_bar)
        if isinstance(z, Laurent):  # the generic run, never the oracle's
            good = chars["thom"]
            chars["thom"] = CohomElement(good.c0, good.ce, -good.ch,
                                         good.cee, good.ceh, good.chh)
        return chars

    monkeypatch.setattr(bundles, "derive_characters", bad_thom)
    bundles.generic_characters.cache_clear()  # derive everything with the fault
    index_mod.correction_class.cache_clear()
    try:
        rc, data, _ = run_json(capsys, ["verify", "--p-max", "4"])
        assert rc == 2
        assert data["ok"] is False
        assert data["suites"]["correction"]["fail"] == [3, 4]
    finally:
        index_mod.correction_sum.cache_clear()  # drop values poisoned above
        index_mod.correction_class.cache_clear()
        bundles.generic_characters.cache_clear()


def test_verify_reads_the_trace_over_t_kernel_where_the_product_cannot(capsys, monkeypatch):
    # a fault that adds 12 P1 J_1(d) to each trace over 1/t moves only the
    # classes with P1 = sum_{s > 0} c_s s != 0: the product's 2/t and the
    # correction class's h slot have P1 = 0, so their sums stay right, and
    # only the correction suite's probe class z^3/t - 2 z^-1/t shows it
    real = identities.sparse_trace_over_t

    def skewed(d, primes, lo, nums):
        p1 = sum(c * s for s, c in enumerate(nums, lo) if s > 0)
        return real(d, primes, lo, nums) + 12 * p1 * identities._totients(d, primes)[0]

    monkeypatch.setattr(identities, "sparse_trace_over_t", skewed)
    identities._TRACES.clear()
    try:
        for p in range(2, 61):
            assert index_mod.correction_sum.__wrapped__(p) == (
                index_mod.correction_sum_closed_form(p)), p
            assert identities.trig_sums(p) == identities._trig_closed_forms(p), p
        rc, data, _ = run_json(capsys, ["verify", "--p-max", "12"])
        assert rc == 2
        assert data["suites"]["correction"]["fail"] == list(range(2, 13))
        assert all(not suite["fail"] for name, suite in data["suites"].items()
                   if name != "correction")
    finally:
        identities._TRACES.clear()  # drop the probes' skewed traces


def test_verify_fails_a_fault_in_the_interning_instead_of_crashing(capsys, monkeypatch):
    # with CohomElement.map swapping the e and h slots, the interned symbol
    # has an h part: generic_characters checks the symbol as interned and
    # raises ConsistencyError, so the suites that read the characters fail
    # (exit 2) where ring.divide_by_e would raise ValueError (exit 3)
    def swapped(self, f):
        return CohomElement(f(self.c0), f(self.ch), f(self.ce),
                            f(self.cee), f(self.ceh), f(self.chh))

    monkeypatch.setattr(CohomElement, "map", swapped)
    bundles.generic_characters.cache_clear()
    index_mod.correction_class.cache_clear()
    try:
        rc, data, _ = run_json(capsys, ["verify", "--p-max", "4"])
        assert rc == 2
        assert data["suites"]["correction"]["fail"] == [2, 3, 4]
        assert data["suites"]["trig"]["fail"] == []
    finally:
        monkeypatch.undo()
        index_mod.correction_sum.cache_clear()
        index_mod.correction_class.cache_clear()
        bundles.generic_characters.cache_clear()


@pytest.mark.parametrize("p", [7, 8])
def test_conjugation_suite_compares_each_pair_both_ways(monkeypatch, p):
    # a conjugation that is right on every value at j <= p/2 but not on the
    # values at p - j is no involution; each pair {j, p - j} is evaluated
    # once, so only the comparison from the p - j side can catch it
    low = set()
    for j in range(1, p // 2 + 1):
        for name in ("symbol", "thom", "lambda_plus"):
            character(name, bundles.GroupElement(p, j)).map(low.add)
    real = Cyclotomic.conjugate
    monkeypatch.setattr(Cyclotomic, "conjugate",
                        lambda a: real(a) if a in low else (Cyc.of(real(a)) + 1).value())
    assert verify._check_conjugation(p) is False
    monkeypatch.undo()
    assert verify._check_conjugation(p) is True


@pytest.mark.parametrize("p, elements", [(12, {1, 2, 6, 10, 11}), (13, {1, 6, 7, 12}),
                                         (2, {1})])
def test_conjugation_suite_evaluates_each_element_once(monkeypatch, p, elements):
    # j in {1, p // 2, q} and their partners p - j, q the least prime factor
    # of a composite p: each distinct class of the three characters exactly
    # once at each element, the one interned zero class included
    chars = bundles.generic_characters()
    classes = {id(getattr(chars[name], slot)) for name in ("symbol", "thom", "lambda_plus")
               for slot in CohomElement._fields}
    calls = []
    real = Laurent.at
    monkeypatch.setattr(Laurent, "at", lambda s, q, j: calls.append((id(s), j)) or real(s, q, j))
    assert verify._elements(p) == elements
    assert verify._check_conjugation(p) is True
    assert len(calls) == len(set(calls)) == len(classes) * len(elements) == 11 * len(elements)
    assert set(calls) == {(c, j) for c in classes for j in elements}


@pytest.mark.parametrize("p", [7, 12, 29])
def test_conjugation_suite_catches_one_wrong_reduction_row(capsys, monkeypatch, p):
    # x^(p-2) mod Phi_p gains a constant 1 at the order p only: the row of a
    # large exponent, whose step the closure check re-derives
    real = scalars._reduction_rows

    def rows(q):
        table = real(q)
        if q != p:
            return table
        return table[:p - 2] + (table[p - 2] + ((0, 1),),) + table[p - 1:]

    monkeypatch.setattr(scalars, "_reduction_rows", rows)
    assert verify._check_conjugation(p) is False
    rc, data, _ = run_json(capsys, ["verify", "--p-max", str(p + 1)])
    assert rc == 2
    assert data["suites"]["conjugation"] == {"pass": p - 1, "fail": [p]}
    monkeypatch.undo()
    assert verify._check_conjugation(p) is True


def _added_phi(table, p):
    # the recurrence adds lead * Phi_p instead of subtracting it (M17); at a
    # prime p the recurrence never runs past row phi, so p is composite
    phi_p = scalars.cyclotomic_polynomial(p)
    rows = list(table[:len(phi_p) - 1])
    cur = [-f for f in phi_p[:-1]]
    while len(rows) < p:
        rows.append(tuple((i, r) for i, r in enumerate(cur) if r))
        lead, cur = cur[-1], [0] + cur[:-1]
        cur = [c + lead * f for c, f in zip(cur, phi_p)]
    return tuple(rows)


def _with_row(table, s, row):
    return table[:s] + (row,) + table[s + 1:]


_TABLE_FAULTS = {
    "adds-phi": (12, _added_phi),
    # a monomial row at a mid exponent doubled, at a prime (M18)
    "doubled-monomial": (13, lambda t, p: _with_row(t, p // 2 + 1, ((p // 2 + 1, 2),))),
    # row p - 1 loses its last entry (M19)
    "short-last-row": (29, lambda t, p: _with_row(t, p - 1, t[p - 1][:-1])),
    # x^phi left unreduced in row phi = p - 1 of a prime p
    "exponent-phi": (11, lambda t, p: _with_row(t, p - 1, ((p - 1, 1),))),
    # the same value as row 2, with a stored zero coefficient
    "stored-zero": (10, lambda t, p: _with_row(t, 2, t[2] + ((3, 0),))),
}


@pytest.mark.parametrize("fault", sorted(_TABLE_FAULTS))
def test_conjugation_suite_catches_each_table_fault(capsys, monkeypatch, fault):
    p, wrong = _TABLE_FAULTS[fault]
    real = scalars._reduction_rows
    monkeypatch.setattr(scalars, "_reduction_rows",
                        lambda q: wrong(real(q), q) if q == p else real(q))
    assert scalars._reduction_rows(p) != real(p)
    assert scalars._reduction_rows_close(p) is False
    assert verify._check_conjugation(p) is False
    rc, data, _ = run_json(capsys, ["verify", "--p-max", str(p + 1)])
    assert rc == 2
    assert data["suites"]["conjugation"] == {"pass": p - 1, "fail": [p]}
    assert all(not v["fail"] for name, v in data["suites"].items() if name != "conjugation")
    monkeypatch.undo()
    assert verify._check_conjugation(p) is True


def test_conjugation_suite_catches_a_table_whose_wrap_fails(capsys, monkeypatch):
    # at p = 7 the table is built, by the builder itself, modulo Phi_9, of
    # the same degree 6: every step from row 0 to row 6 closes, and only
    # the wrap x * x^6 = 1 fails, since Phi_9 does not divide x^7 - 1
    p, real_phi, real_rows = 7, scalars.cyclotomic_polynomial, scalars._reduction_rows
    good = real_rows(p)
    monkeypatch.setattr(scalars, "cyclotomic_polynomial",
                        lambda q: real_phi(9) if q == p else real_phi(q))
    monkeypatch.setattr(scalars, "_reduction_rows",
                        lambda q: real_rows.__wrapped__(q) if q == p else real_rows(q))
    rows = scalars._reduction_rows(p)
    assert len(rows) == p and rows[0] == ((0, 1),) and rows != good
    # the closure check itself fails, not only the characters read through it
    assert scalars._reduction_rows_close(p) is False
    assert verify._check_conjugation(p) is False
    rc, data, _ = run_json(capsys, ["verify", "--p-max", str(p + 1)])
    assert rc == 2
    assert data["suites"]["conjugation"] == {"pass": p - 1, "fail": [p]}
    assert all(not v["fail"] for name, v in data["suites"].items() if name != "conjugation")
    monkeypatch.undo()
    assert verify._check_conjugation(p) is True


def _inject(monkeypatch, name, slot, j, wrong):
    """Make one slot of the derived character `name` evaluate to wrong(p) at
    the element j only: the slot is swapped for a copy of its own, and
    Laurent.at answers for that copy at j."""
    chars = dict(bundles.generic_characters())
    marked = copy.copy(getattr(chars[name], slot))
    chars[name] = CohomElement(**{**vars(chars[name]), slot: marked})
    monkeypatch.setattr(bundles, "generic_characters", lambda: MappingProxyType(chars))
    real_at = Laurent.at
    monkeypatch.setattr(Laurent, "at", lambda a, p, i: wrong(p) if a is marked and i == j
                        else real_at(a, p, i))


def test_a_non_unit_thom_class_is_a_failed_check_not_a_crash(capsys, monkeypatch):
    # degree-0 part 1 + t = 3 - z - 1/z: symmetric under z -> 1/z, so every
    # check of the characters holds, but no unit c * t^m to invert
    chars = dict(bundles.generic_characters())
    chars["thom"] = CohomElement(**{**vars(chars["thom"]), "c0": Laurent({-1: -1, 0: 3, 1: -1})})
    monkeypatch.setattr(bundles, "generic_characters", lambda: MappingProxyType(chars))
    index_mod.correction_class.cache_clear()
    index_mod.correction_sum.cache_clear()  # p-independence reads the cached sums
    try:
        with pytest.raises(scalars.ConsistencyError, match="derived Thom class is not a unit"):
            index_mod.correction_class()
        rc, data, err = run_json(capsys, ["verify", "--p-max", "6"])
        assert rc == 2 and data["ok"] is False, err
        suites = data["suites"]
        for name in ("correction", "p-independence"):
            assert suites[name] == {"pass": 0, "fail": [2, 3, 4, 5, 6]}, name
        for name in ("trig", "conjugation", "rank", "divisibility"):
            assert suites[name] == {"pass": 5, "fail": []}, name
        # outside verify the same failure is an internal inconsistency
        rc, out, err = run(capsys, ["--json", "correction", "--p", "7"])
        assert rc == 3 and not out and "Thom class" in err
    finally:
        monkeypatch.undo()
        index_mod.correction_class.cache_clear()
        index_mod.correction_sum.cache_clear()


@pytest.mark.parametrize("slot", ["c0", "ch", "chh"])
def test_divisibility_suite_checks_each_read_slot_at_every_element(monkeypatch, slot):
    # every element the suite reads: 7 at a prime, 12 at a composite order
    for p, elements in ((7, {1, 3, 4, 6}), (12, {1, 2, 6, 10, 11})):
        assert verify._elements(p) == elements
        for j in elements:
            with monkeypatch.context() as m:
                _inject(m, "symbol", slot, j, lambda q: Cyc.from_rational(q, 1).value())
                assert verify._check_divisibility(p) is False, (p, j)
        assert verify._check_divisibility(p) is True


def test_divisibility_suite_builds_a_bounded_number_of_values(monkeypatch):
    # the three zero slots are one interned class, read once at each of the
    # at most six elements, so the values built per order do not grow with
    # p (3 (p - 1) = 1200 of them, each a phi(p)-tuple, when every slot was
    # read at every element); 401 is prime, 402 composite
    real = Cyclotomic.__dict__["_raw"].__func__
    for p in (401, 402):
        built = []
        with monkeypatch.context() as m:
            m.setattr(Cyclotomic, "_raw",
                      classmethod(lambda cls, *a: built.append(cls) or real(cls, *a)))
            assert verify._check_divisibility(p) is True
        assert len(built) == len(verify._elements(p)) <= 6, p


@pytest.mark.parametrize("name, rank", [("cotangent", 4), ("lambda_plus", 3), ("lambda_minus", 3),
                                        ("s20_cotangent", 9), ("s20_lambda_plus", 5)])
def test_rank_suite_checks_each_character_at_the_identity(monkeypatch, name, rank):
    p = 5
    with monkeypatch.context() as m:
        _inject(m, name, "c0", 0, lambda q: Cyc.from_rational(q, rank + 1).value())
        assert verify._check_rank(p) is False
    assert verify._check_rank(p) is True


def test_verify_reports_crashing_suite_as_internal_error(capsys, monkeypatch):
    # a suite that raises has not answered: exit 3, not a failed check
    def boom(p):
        raise RuntimeError("not a verdict")

    suites = tuple((name, boom if name == "rank" else fn) for name, fn in verify.SUITES)
    monkeypatch.setattr(verify, "SUITES", suites)
    rc, out, err = run(capsys, ["verify", "--p-max", "3"])
    assert rc == 3
    assert out == ""
    assert "suite rank at p=2" in err and "RuntimeError: not a verdict" in err


_HITCHIN = ["--chi", "2", "--tau", "0", "--sigma-chi", "1", "--sigma-sq", "-2"]


@pytest.mark.parametrize("target, name, exc, argv", [
    (bundles, "character_dump", ZeroDivisionError,
     ["correction", "--p", "5", "--dump-element", "2"]),
    (cli, "index_kawasaki", KeyError, ["index", *_HITCHIN, "--p", "5", "--duality", "sd"]),
    (index_mod, "tau_orb", TypeError, ["orbifold-char", *_HITCHIN, "--beta", "1/2"]),
    (applications, "whitney_massey_values", RuntimeError, ["surfaces", "--j", "3"]),
    (applications, "hitchin_report", AttributeError, ["example", "hitchin", "--k", "7"]),
], ids=["correction", "index", "orbifold-char", "surfaces", "example"])
def test_crash_in_any_subcommand_exits_3_and_names_the_exception(
        capsys, monkeypatch, target, name, exc, argv):
    # a library bug is not a usage error (1) or a failed verification (2)
    def boom(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(target, name, boom)
    rc, out, err = run(capsys, ["--json", *argv])
    assert rc == 3
    assert out == ""
    assert err.startswith("internal error:") and exc.__name__ in err and "injected" in err


def test_value_error_from_the_library_is_an_internal_error(capsys, monkeypatch):
    # a ValueError that no argument check raised is a library bug: exit 3
    monkeypatch.setattr(index_mod, "correction_sum",
                        lambda p: Cyc.from_rational(p, 0).value().galois(p))
    rc, out, err = run(capsys, ["--json", "correction", "--p", "5"])
    assert rc == 3 and out == ""
    assert err == "internal error: ValueError: zeta -> zeta^5 is not an automorphism for order 5\n"


@pytest.mark.parametrize("p, j", [(7, 0), (7, 7), (1, 1), (10**15 + 37, 0)])
def test_an_out_of_range_dump_element_is_refused_before_any_sum(capsys, monkeypatch, p, j):
    # the element is checked first: at 10^15 + 37 the sum alone takes seconds
    def unreachable(p):
        raise AssertionError("the correction sum was computed")

    monkeypatch.setattr(index_mod, "correction_sum", unreachable)
    rc, out, err = run(capsys, ["correction", "--p", str(p), "--dump-element", str(j)])
    assert (rc, out, err) == (1, "", "usage error: --dump-element needs 1 <= j < p\n")


@pytest.mark.parametrize("exc", [MemoryError, OverflowError])
def test_a_dump_too_large_to_build_is_a_usage_error(capsys, monkeypatch, exc):
    # the reduction table of the order cannot be built: a range limit on a
    # valid query, named by its flag and not by its value
    def too_large(p):
        raise exc("injected")

    argv = ["--json", "correction", "--p", "11", "--dump-element", "3"]
    monkeypatch.setattr(scalars, "_reduction_rows", too_large)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err == ("usage error: --p is too large for an element dump: its values at zeta_p "
                   f"cannot be built ({exc.__name__})\n")
    # the same exception from the correction sum is no limit of the dump: a crash
    monkeypatch.setattr(index_mod, "correction_sum", too_large)
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (3, "", f"internal error: {exc.__name__}: injected\n")


def test_json_output_is_deterministic(capsys):
    argv = ["index", "--chi", "5", "--tau", "3", "--sigma-chi", "2",
            "--sigma-sq", "3", "--p", "3", "--duality", "sd"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


class _Tty:
    def __init__(self, real):
        self._real = real

    def write(self, s):
        return self._real.write(s)

    def flush(self):
        return self._real.flush()

    def isatty(self):
        return True


def test_human_output_on_tty(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _Tty(sys.stdout))
    rc = cli.main(["index", "--chi", "2", "--tau", "0", "--sigma-chi", "1",
                   "--sigma-sq", "-2", "--p", "5", "--duality", "sd"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "index (sd, p=5): 3" in out
    assert "{" not in out  # table, not JSON


def test_correction_human_output_names_the_class_traces(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _Tty(sys.stdout))
    rc = cli.main(["correction", "--p", "15"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1:] == ["  class traces: e: -3  h: -548/45",
                                    "  closed form:  e: -3  h: -548/45",
                                    "  agree: yes"]


def test_json_flag_before_or_after_the_subcommand(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _Tty(sys.stdout))
    argv = ["index", "--chi", "2", "--tau", "0", "--sigma-chi", "1",
            "--sigma-sq", "-2", "--p", "5", "--duality", "sd"]
    outputs = []
    for flags in (["--json"] + argv, argv + ["--json"], ["--json"] + argv + ["--json"]):
        rc, out, _ = run(capsys, flags)
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["index"] == 3
    rc, out, _ = run(capsys, argv)  # a terminal without the flag gets the table
    assert rc == 0 and "{" not in out
    assert cli.build_parser().parse_args(["--json"] + argv).json is True


_COMMANDS = ("index", "correction", "verify", "orbifold-char", "surfaces", "example")
_TOKENS = (*_COMMANDS, "--chi", "--tau", "--sigma-chi", "--sigma-sq", "--p", "--duality",
           "--route", "--dump-element", "--p-max", "--beta", "--j", "--k", "--n",
           "--json", "-h", "--help", "asd", "sd", "kawasaki", "closed", "both",
           "hitchin", "lebrun", "ricci-flat", "1/2", "--", "--dump", "--js",
           "--json=1", "--=x", "bogus", "--bogus", "-x", "")
_FULL_INDEX = ["index", *_HITCHIN, "--p", "5", "--duality", "sd"]


def _parse_outcome(parse, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            result = ("parsed", vars(parse(list(argv))))
    except cli.UsageError as exc:
        result = ("usage", str(exc))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, out.getvalue()


def test_one_pass_parse_agrees_with_the_whole_parser():
    # main parses [--json] SUBCOMMAND REST with the subcommand's parser alone;
    # every argv must give what the whole parser gives: the same Namespace,
    # usage message, or exit code and help text
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    tokens = st.sampled_from(_TOKENS) | st.integers(-20, 400).map(str)
    heads = st.sampled_from([[], ["--json"], ["--"], ["--js"], ["--json=1"], ["-h"]])
    commands = st.sampled_from([[c] for c in _COMMANDS] + [[], ["bogus"]])
    queries = st.sampled_from([_FULL_INDEX, ["correction", "--p", "4"],
                               ["verify", "--p-max", "3"], ["surfaces", "--j", "2"],
                               ["orbifold-char", *_HITCHIN, "--beta", "1/2"],
                               ["example", "hitchin", "--k", "3"]])
    argvs = (st.builds(lambda h, c, rest: h + c + rest, heads, commands,
                       st.lists(tokens, max_size=10))
             | st.builds(lambda h, q, rest: h + q + rest, heads, queries,
                         st.lists(tokens, max_size=2))
             | st.lists(tokens, max_size=12))

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(argvs)
    @example(["--json", *_FULL_INDEX])
    @example([*_FULL_INDEX, "--json"])
    @example(["--json", *_FULL_INDEX, "--json"])
    @example([*_FULL_INDEX, "--route", "closed", "--bogus"])  # unrecognized arguments
    @example(["correction", "--p", "4", "extra"])
    @example(["example", "hitchin", "--k", "3", "--=x"])
    @example(["verify", "--p-max", "3", "--", "4"])
    @example(["--json", "surfaces", "--help"])
    def check(argv):
        assert (_parse_outcome(cli._parse, argv)
                == _parse_outcome(cli._parser().parse_args, argv)), argv

    check()


def test_a_query_is_parsed_by_its_subcommand_parser_alone(monkeypatch):
    parser, whole = cli.build_parser(), []
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args",
                        lambda argv, real=parser.parse_args: whole.append(argv) or real(argv))
    args = cli._parse(["--json", "correction", "--p", "4", "--dump-element", "1"])
    assert (args.json, args.command, args.p, args.dump_element) == (True, "correction", 4, 1)
    args = cli._parse([*_FULL_INDEX, "--json"])
    assert (args.json, args.command, args.route) == (True, "index", "both")
    assert cli._parse(_FULL_INDEX).json is False
    assert whole == []
    assert cli._parse(["--js", "correction", "--p", "4"]).json is True
    assert whole == [["--js", "correction", "--p", "4"]]


def test_reused_parser_keeps_nothing_between_calls(capsys, monkeypatch):
    # on a terminal a leaked --json would show as JSON instead of the table
    monkeypatch.setattr(sys, "stdout", _Tty(sys.stdout))
    topo = ["--chi", "2", "--tau", "0", "--sigma-chi", "1", "--sigma-sq", "-2"]
    early = [["index", *topo, "--p", "5", "--duality", "sd", "--json"],
             ["correction", "--p", "4", "--dump-element", "1"],
             ["index", *topo, "--p", "5", "--duality", "sd", "--route", "kawasaki"],
             ["example", "lebrun", "--n", "4", "--p", "9"],
             ["index", "--chi", "2"]]  # usage error part way through parsing
    later = [["index", *topo, "--p", "5", "--duality", "sd"],
             ["correction", "--p", "4"],
             ["index", *topo, "--p", "7", "--duality", "asd"],
             ["example", "lebrun", "--n", "4"]]
    fresh = []
    for argv in later:  # a new parser and Namespace, bypassing main
        args = cli.build_parser().parse_args(argv)
        fresh.append((args.fn(args), capsys.readouterr().out))

    real, builds = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    assert [run(capsys, argv)[0] for argv in early] == [0, 0, 0, 0, 1]
    assert [run(capsys, argv)[:2] for argv in later] == fresh
    assert len(builds) == 1


def _decimal(n):
    """str(n) for any int, in blocks of 1000 digits: the interpreter's
    int-to-str limit refuses a larger int as one conversion."""
    if n < 0:
        return "-" + _decimal(-n)
    head, tail = divmod(n, 10 ** 1000)
    return _decimal(head) + str(tail).zfill(1000) if head else str(tail)


def test_every_drawn_query_answers_or_is_a_usage_error():
    # argv from a grammar of the six subcommands, each flag present or not,
    # in any order: a valid query answers (0) and anything else is refused
    # (1), never a crash or a consistency failure.  Integers run to
    # +-10^5000 on the flags whose cost does not grow with their value;
    # those whose cost does grow are bounded above: --p below 10^6 (2000
    # with --dump-element, whose output holds about p^2 coefficients),
    # verify --p-max at 40 and surfaces --j at 10^4
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    def ints(top=10 ** 5000):  # each draw clipped to the flag's bound, top
        wide = min(top, 10 ** 4000)  # within the bound, or printable
        return st.one_of(st.integers(-30, 30), st.integers(-10 ** 6, 10 ** 6),
                         st.integers(-wide, wide), st.integers(-10 ** 5000, 10 ** 5000),
                         ).map(lambda n: _decimal(min(n, top)))

    topology = {flag: ints() for flag in ("--chi", "--tau", "--sigma-chi", "--sigma-sq")}
    p = ints(10 ** 6 - 1)
    beta = ints() | st.builds("{}/{}".format, ints(), ints())
    grammar = [  # (tokens, the flags a query needs, the other flags)
        (["index"], {**topology, "--p": p, "--duality": st.sampled_from(["asd", "sd"])},
         {"--route": st.sampled_from(["kawasaki", "closed", "both"])}),
        (["correction"], {"--p": p}, {}),
        (["correction"], {"--p": ints(2000)}, {"--dump-element": ints()}),
        (["verify"], {"--p-max": ints(40)}, {}),
        (["orbifold-char"], {**topology, "--beta": beta}, {}),
        (["surfaces"], {"--j": ints(10 ** 4)}, {}),
        (["example", "hitchin"], {"--k": ints()}, {"--p": p, **topology}),
        (["example", "lebrun"], {"--n": ints()}, {"--p": p, **topology}),
        (["example", "ricci-flat"], topology, {"--p": p, "--k": ints(), "--n": ints()}),
    ]
    queries = st.one_of([
        (st.fixed_dictionaries(needed, optional=other)  # each flag a query needs, or any
         | st.fixed_dictionaries({}, optional={**needed, **other}))
        .flatmap(lambda drawn: st.permutations(list(drawn.items())))
        .map(lambda pairs, head=head: [*head, *(tok for pair in pairs for tok in pair)])
        for head, needed, other in grammar])
    argvs = st.builds(lambda json_at, argv: [*json_at[0], *argv, *json_at[1]],
                      st.sampled_from([([], []), (["--json"], []), ([], ["--json"])]), queries)
    nines = "9" * _DIGIT_LIMIT

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(argvs)
    @example(["index", "--chi", nines, "--tau", "1", "--sigma-chi", "1", "--sigma-sq", "1",
              "--p", "5", "--duality", "sd"])
    @example(["correction", "--p", "2000", "--dump-element", "1999"])
    @example(["correction", "--p", "999983"])
    @example(["verify", "--p-max", "40"])
    @example(["surfaces", "--j", "10000"])
    @example(["example", "lebrun", "--n", nines, "--p", "999999"])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 1), (argv, rc, err.getvalue())

    check()


def test_console_entry_point():
    import subprocess
    proc = subprocess.run(
        [sys.executable, "-m", "orbifold_index.cli", "correction", "--p", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["brute"] == {"e": "1/4", "h": "3/4"}
