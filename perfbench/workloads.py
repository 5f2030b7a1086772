"""Workload inputs, drawn from a seed, and the closed loop that runs them.

A round is one fixed batch of operations for one fresh interpreter.  The
inputs of round r of seed s depend on (workload, s, r) only, so a traced
and an untraced round with the same numbers run identical inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import oracle

VERIFY_P_MAX = 36

# large-order: the library's current accepted ranges (orders above them are
# refused, so they stay out), the divisor count that makes an order highly
# composite, and the orders drawn per stratum per round; a stratum with fewer
# orders is taken whole.  A round has 1018 orders, so its p99 has ten beyond it.
CORRECTION_RANGE = (25, 300)
TRIG_RANGE = (33, 2000)
MANY_DIVISORS = 8
CORRECTION_PER_STRATUM = 40
TRIG_PER_STRATUM = 610

# query-mix: queries per round and the Zipf exponent of the cone order.
# No source gives real traffic; the exponent is assumed (see README.md).  At
# 1.3 about 140 of the 800 orders in a round are new, and correction_sum's
# cache answers about 88% of its calls.
QUERIES = 1000
ZIPF_S = 1.3
P_RANGE = (2, 300)
DUMP_P_MAX = 24


def _num_divisors(n: int) -> int:
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    return 2 * len(small) - (small[-1] ** 2 == n)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def _is_prime_power(n: int) -> bool:
    q = next(q for q in range(2, n + 1) if n % q == 0)
    while n % q == 0:
        n //= q
    return n == 1


def strata(lo: int, hi: int, many_divisors: int) -> dict[str, list[int]]:
    """Orders in [lo, hi] split into primes (one nontrivial divisor class),
    proper prime powers, and highly composite orders (many classes)."""
    orders = range(lo, hi + 1)
    return {
        "prime": [n for n in orders if _is_prime(n)],
        "prime_power": [n for n in orders if not _is_prime(n) and _is_prime_power(n)],
        "composite": [n for n in orders if _num_divisors(n) >= many_divisors],
    }


def _spread_sample(rng: random.Random, pop: list[int], k: int) -> list[int]:
    """k distinct orders: the largest, which sets the round's peak memory,
    and one from each of k - 1 equal slices of the rest, so every round
    spans the whole size range."""
    k = min(k, len(pop))
    rest, n = sorted(pop)[:-1], k - 1
    return [max(pop)] + [rng.choice(rest[i * len(rest) // n:(i + 1) * len(rest) // n])
                         for i in range(n)]


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def large_order_inputs(seed: int, round_no: int) -> list[tuple[str, int]]:
    rng = _rng("large-order", seed, round_no)
    ops = []
    for kind, (lo, hi), per in (("correction", CORRECTION_RANGE, CORRECTION_PER_STRATUM),
                                ("trig", TRIG_RANGE, TRIG_PER_STRATUM)):
        chosen: set[int] = set()
        for pop in strata(lo, hi, MANY_DIVISORS).values():
            chosen.update(_spread_sample(rng, [n for n in pop if n not in chosen], per))
        ops += [(kind, p) for p in chosen]
    # smallest order first: the largest call then runs on top of everything
    # the round has cached, so the round's peak memory depends little on
    # the draw or on where in the round the largest order falls
    return sorted(ops, key=lambda op: (op[1], op[0]))


def _stratified_zipf(rng: random.Random, n: int) -> list[int]:
    """n Zipf-distributed cone orders, one drawn from each n-th of the
    distribution, so that how often each order comes up, and hence the
    set of cache misses, varies little from round to round."""
    lo, hi = P_RANGE
    cdf = list(accumulate(1 / (p - lo + 1) ** ZIPF_S for p in range(lo, hi + 1)))
    draws = [lo + min(bisect_right(cdf, (i + rng.random()) / n * cdf[-1]), hi - lo)
             for i in range(n)]
    rng.shuffle(draws)
    return draws


def _topology(rng: random.Random) -> list[str]:
    chi = rng.randint(-10, 40)
    tau = rng.randint(-20, 20)
    tau += (chi - tau) % 2  # chi = tau mod 2 on a closed four-manifold
    return ["--chi", str(chi), "--tau", str(tau),
            "--sigma-chi", str(rng.randint(-6, 4)),
            "--sigma-sq", str(rng.randint(-10, 10))]


# assumed shares in percent: index and correction, the calls whose latency
# ROADMAP names as the user's cost, take 70; the other kinds share the rest
QUERY_SHARES = (("index", 40), ("correction", 30), ("hitchin", 5), ("lebrun", 5),
                ("ricci-flat", 5), ("surfaces", 7.5), ("orbifold-char", 7.5))
TAKES_P = ("index", "correction", "lebrun", "ricci-flat")


def _query(rng: random.Random, kind: str, p: int) -> list[str]:
    if kind == "index":
        return ["--json", "index", *_topology(rng), "--p", str(p),
                "--duality", rng.choice(("asd", "sd")), "--route", "both"]
    if kind == "correction":
        argv = ["--json", "correction", "--p", str(p)]
        if p <= DUMP_P_MAX and rng.random() < 0.2:
            argv += ["--dump-element", str(rng.randint(1, p - 1))]
        return argv
    if kind == "hitchin":
        return ["--json", "example", "hitchin", "--k", str(rng.randint(3, 50))]
    if kind == "lebrun":
        return ["--json", "example", "lebrun", "--n", str(rng.randint(1, 12)),
                "--p", str(p)]
    if kind == "ricci-flat":
        return ["--json", "example", "ricci-flat", *_topology(rng), "--p", str(p)]
    if kind == "surfaces":
        return ["--json", "surfaces", "--j", str(rng.randint(1, 40))]
    beta = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    return ["--json", "orbifold-char", *_topology(rng), "--beta", str(beta)]


def query_mix_inputs(seed: int, round_no: int) -> list[list[str]]:
    """QUERIES queries in fixed shares per kind, shuffled.  The cone orders
    of all queries that take one come from one stratified Zipf draw."""
    rng = _rng("query-mix", seed, round_no)
    kinds = [k for k, share in QUERY_SHARES for _ in range(round(QUERIES * share / 100))]
    rng.shuffle(kinds)
    ps = _stratified_zipf(rng, sum(k in TAKES_P for k in kinds))
    return [_query(rng, k, ps.pop() if k in TAKES_P else 0) for k in kinds]


# ---------------------------------------------------------------------------
# execution: one timed call per operation, checked outside the timed region
# ---------------------------------------------------------------------------

def _run_cli(lib, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lib.cli.main(argv)
    return rc, out.getvalue()


def _run_large(lib, op):
    kind, p = op
    if kind == "correction":
        return lib.orbifold_index.correction_sum(p)
    return lib.orbifold_index.trig_sums(p)


def _check_verify(op, result) -> int:
    rc, out = result
    failed = oracle.check_verify(json.loads(out), VERIFY_P_MAX)
    return max(failed, 1) if rc else failed


def _check_large(op, result) -> int:
    kind, p = op
    if kind == "correction":
        got = (result.coeff_e, result.coeff_h)
        return int(got != oracle.correction(p))
    return int(tuple(result) != oracle.trig(p))


def _check_query(argv, result) -> int:
    rc, out = result
    return int(rc != 0 or not oracle.check_query(argv, json.loads(out)))


def op_size(workload: str) -> int:
    """Checks one operation stands for: a verify sweep is 6 suites x (N-1)
    orders; every other operation is one check."""
    return len(oracle.SUITES) * (VERIFY_P_MAX - 1) if workload == "verify-sweep" else 1


def verify_inputs(seed: int, round_no: int) -> list[list[str]]:
    """One whole sweep; it has no free inputs, so the seed changes nothing."""
    return [["--json", "verify", "--p-max", str(VERIFY_P_MAX)]]


WORKLOADS = {
    "verify-sweep": (verify_inputs, _run_cli, _check_verify),
    "large-order": (large_order_inputs, _run_large, _check_large),
    "query-mix": (query_mix_inputs, _run_cli, _check_query),
}


def run_round(lib, workload: str, seed: int, round_no: int) -> dict:
    """Run one round closed-loop; returns per-op latencies and failure
    counts.  Any exception, nonzero exit or oracle mismatch is a failure."""
    inputs, execute, check = WORKLOADS[workload]
    ops = inputs(seed, round_no)
    size = op_size(workload)
    lat_ms, failed, errors = [], 0, []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, bad, error = execute(lib, op), 0, ""
        except Exception as exc:  # a crashing operation is a failed operation
            bad, error = size, f"{type(exc).__name__}: {exc}"
        lat_ms.append((time.perf_counter() - t0) * 1e3)
        if not error:
            try:
                bad = check(op, result)
                error = f"{bad} wrong answer(s)" if bad else ""
            except Exception as exc:  # an unreadable answer is a wrong one
                bad, error = size, f"unreadable result: {type(exc).__name__}: {exc}"
        if error:
            errors.append(f"{op!r}: {error}")
        failed += bad
    # wall time is the program's share of the closed loop: checking the
    # answers is the client's think time and stays out
    return {"wall_s": sum(lat_ms) / 1e3, "lat_ms": lat_ms,
            "attempted": size * len(ops), "failed": failed, "errors": errors[:5]}
