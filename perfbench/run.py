"""Benchmark entry point for orbifold_index.

Usage:
    python3 perfbench/run.py --workload {verify-sweep,large-order,query-mix}
                             --seed N --seconds S --trace {0,1}

Each round of the workload runs in a fresh interpreter (child.py), one at a
time, so lru_cache tables start empty in every round.  Rounds repeat until
S seconds have passed.  The library is imported from the src/ directory of
the checkout that holds this file; without it the run fails.

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs each
round once untraced and once traced and prints the per-layer metrics.  The
last line of standard output is the result object; the line before it holds
the environment, cache counters and failure details.  Traced runs also write
the first traced round's spans to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_FIRST = 11      # import-only interpreters before the first round
SETUP_PER_ROUND = 3   # and before every round, so a burst of outside load
                      # in one part of the run moves the median little
MIN_ROUNDS = 3
RUN_LIMIT_S = 170     # every child must end before this
MAX_SECONDS = 120     # a traced round and its untraced twin take under 20 s
                      # together, so the last ones, started just before the
                      # deadline, still end before RUN_LIMIT_S


def _env() -> dict[str, str]:
    """The child environment: no thread knob, no inherited Python path,
    fixed hashing, single-threaded native libraries."""
    env = {k: v for k, v in os.environ.items()
           if k != "ORBIFOLD_INDEX_THREADS" and not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class ChildFailed(RuntimeError):
    pass


def _child(job: dict, started: float) -> dict:
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise ChildFailed("time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ROOT), json.dumps(job)],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"round {job} did not finish in time")
    if proc.returncode != 0:
        raise ChildFailed(f"round {job} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    started = time.monotonic()

    def import_only(n):
        return [_child({"import_only": True}, started)["setup_s"] for _ in range(n)]

    setup = import_only(SETUP_FIRST)
    plain, marked = [], []
    deadline = time.monotonic() + seconds
    round_no = 0
    while round_no < MIN_ROUNDS or time.monotonic() < deadline:
        setup += import_only(SETUP_PER_ROUND)
        job = {"workload": workload, "seed": seed, "round": round_no, "traced": False}
        plain.append(_child(job, started))
        if traced:
            spans_path = None
            if round_no == 0:
                out = ROOT / ".bench_out"
                out.mkdir(exist_ok=True)
                spans_path = str(out / f"spans-{workload}-seed{seed}.jsonl.gz")
            marked.append(_child({**job, "traced": True, "spans_path": spans_path},
                                 started))
        round_no += 1
    rounds = plain + marked
    return {"setup": setup + [r["setup_s"] for r in rounds], "plain": plain,
            "traced": marked, "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "errors": [e for r in rounds for e in r["errors"]][:10]}


def end_to_end(m: dict) -> dict[str, tuple[float, str]]:
    """Medians over rounds.  Each round is a whole sample of the workload,
    so a latency percentile is taken per round first; a round slowed by a
    burst of load from outside then moves the result little."""
    def median(f):
        return statistics.median(f(r) for r in m["plain"])

    return {
        "setup_s": (statistics.median(m["setup"]), "s"),
        "wall_s": (median(lambda r: r["wall_s"]), "s"),
        "op_ms_p50": (median(lambda r: _quantile(r["lat_ms"], 0.50)), "ms"),
        "op_ms_p90": (median(lambda r: _quantile(r["lat_ms"], 0.90)), "ms"),
        "op_ms_p99": (median(lambda r: _quantile(r["lat_ms"], 0.99)), "ms"),
        "peak_rss_mb": (median(lambda r: r["peak_rss_mb"]), "MB"),
    }


def per_layer(m: dict) -> dict[str, tuple[float, str]]:
    per_round = [{**r["layers"], **r["caches"]} for r in m["traced"]]
    values = {k: statistics.median(r[k] for r in per_round)
              for k in tracer.LAYER_METRICS if k != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / u["wall_s"] for t, u in zip(m["traced"], m["plain"]))
    return {k: (values[k], unit) for k, unit in tracer.LAYER_METRICS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help=f"measuring time, 1 to {MAX_SECONDS}")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be from 1 to {MAX_SECONDS}, so that the whole "
                 f"run ends within {RUN_LIMIT_S} s")

    if not (ROOT / "src" / "orbifold_index" / "__init__.py").is_file():
        print(f"no orbifold_index sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    broken = selftest.problems()
    if broken:
        print("oracle self-test failed:", *broken, sep="\n  ", file=sys.stderr)
        return 3
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(m) if args.trace else end_to_end(m)
    first = m["plain"][0]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(m["plain"]), "ops": sum(len(r["lat_ms"]) for r in m["plain"]),
        "setup_samples": len(m["setup"]), "nproc": len(os.sched_getaffinity(0)), **first["env"],
        "failed_ratio": m["failed"] / m["attempted"], "errors": m["errors"],
        "caches": first["caches"],
        "caches_round_median": {k: statistics.median(r["caches"][k] for r in m["plain"])
                                for k in first["caches"]},
        "untraced_targets": m["traced"][0]["untraced_targets"] if m["traced"] else [],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<44} {info['failed_ratio']:>14.6g} failed/attempted")
    for name, value in info["caches_round_median"].items():
        print(f"{name + ' (median round)':<52} {value:>14.6g}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": m["failed"] == 0, "attempted": m["attempted"], "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
