"""One round of one workload in a fresh interpreter.

Usage: python3 child.py <checkout root> '<job JSON>'

The job names the workload, seed and round, and whether to trace.  The
library is imported first, from <root>/src only, and that import is timed:
it is the set-up the workload pays before its first operation.  The result is one JSON line on standard output.
"""

import sys
import time


def main() -> int:
    src = sys.argv[1] + "/src"
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import orbifold_index
    import orbifold_index.cli
    import orbifold_index.identities  # every workload reaches it (and numpy)
    setup_s = time.perf_counter() - t0
    if not orbifold_index.__file__.startswith(src + "/"):
        print(f"orbifold_index imported from {orbifold_index.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import json
    job = json.loads(sys.argv[2])
    out = {"setup_s": setup_s}
    if job.get("import_only"):
        print(json.dumps(out))
        return 0

    import platform
    import resource
    from types import SimpleNamespace

    import numpy

    import tracer
    import workloads

    lib = SimpleNamespace(orbifold_index=orbifold_index, cli=orbifold_index.cli)
    caches = tracer.find_caches()
    before = tracer.cache_snapshot(caches)
    spans = tracer.Tracer() if job["traced"] else None
    if spans:
        spans.install()
    out.update(workloads.run_round(lib, job["workload"], job["seed"], job["round"]))
    out["caches"] = tracer.cache_metrics(before, tracer.cache_snapshot(caches))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    if spans:
        out["layers"] = spans.metrics()
        out["untraced_targets"] = spans.missing
        if job.get("spans_path"):
            spans.dump(job["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
