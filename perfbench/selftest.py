"""Oracle self-test: deliberately wrong results must count as failed.

Runs the same closed loop and checks as a real round, against stand-in
libraries whose answers are right, wrong, raising or exiting nonzero.
Needs no orbifold_index.  Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import oracle
import workloads


def _large_order_lib(bad_p=None, raise_p=None):
    def correction_sum(p):
        if p == raise_p:
            raise ArithmeticError("injected")
        e, h = oracle.correction(p)
        return SimpleNamespace(coeff_e=e, coeff_h=h + (p == bad_p))

    def trig_sums(p):
        return oracle.trig(p)

    return SimpleNamespace(orbifold_index=SimpleNamespace(
        correction_sum=correction_sum, trig_sums=trig_sums))


def _cli_lib(main):
    return SimpleNamespace(cli=SimpleNamespace(main=main))


def _verify_main(fail_at=None):
    def main(argv):
        n = workloads.VERIFY_P_MAX - 1
        suites = {s: {"pass": n, "fail": []} for s in oracle.SUITES}
        if fail_at is not None:
            suites["correction"] = {"pass": n - 1, "fail": [fail_at]}
        print(json.dumps({"p_max": workloads.VERIFY_P_MAX, "suites": suites,
                          "ok": fail_at is None}))
        return 0 if fail_at is None else 2
    return main


def problems() -> list[str]:
    """Each case that the loop and oracle did not count as expected."""
    out = []

    def expect(what, result, failed):
        if result["failed"] != failed:
            out.append(f"{what}: counted {result['failed']} failed, expected {failed}")

    ops = workloads.large_order_inputs(0, 0)
    p_corr = next(p for kind, p in ops if kind == "correction")
    expect("right large-order answers",
           workloads.run_round(_large_order_lib(), "large-order", 0, 0), 0)
    expect("one wrong correction sum",
           workloads.run_round(_large_order_lib(bad_p=p_corr), "large-order", 0, 0), 1)
    expect("one raising call",
           workloads.run_round(_large_order_lib(raise_p=p_corr), "large-order", 0, 0), 1)

    expect("passing sweep",
           workloads.run_round(_cli_lib(_verify_main()), "verify-sweep", 0, 0), 0)
    expect("sweep with one failing check",
           workloads.run_round(_cli_lib(_verify_main(7)), "verify-sweep", 0, 0), 1)
    expect("sweep without output",
           workloads.run_round(_cli_lib(lambda argv: 2), "verify-sweep", 0, 0),
           workloads.op_size("verify-sweep"))

    expect("queries exiting nonzero",
           workloads.run_round(_cli_lib(lambda argv: 3), "query-mix", 0, 0),
           workloads.QUERIES)
    argv = ["--json", "index", "--chi", "2", "--tau", "0", "--sigma-chi", "1",
            "--sigma-sq", "-2", "--p", "5", "--duality", "sd", "--route", "both"]
    good = {"index": 3, "agree": True, "routes": {"kawasaki": 3, "closed_form": 3},
            "correction": {"e": "-2", "h": "-16/5"}}
    if not oracle.check_query(argv, good):
        out.append("right index answer rejected")
    for key, wrong in (("index", 4), ("correction", {"e": "-2", "h": "-3"})):
        if oracle.check_query(argv, {**good, key: wrong}):
            out.append(f"wrong index query field {key!r} accepted")
    if oracle.correction_at_e(5, 1) != [Fraction(-3, 2), 0, 2, 2]:
        out.append("per-element e coefficient oracle is wrong at p=5, j=1")
    return out


if __name__ == "__main__":
    found = problems()
    for line in found:
        print("FAIL", line)
    print("oracle self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
