"""One benchmark op in a fresh process: parse the ``xc`` text on stdin,
solve it with one engine, optionally enumerate the first covers, and
print one JSON line with the timings, counters and peak RSS.

Run by ``run.py``, which enforces the hard deadline and checks the count.
The address-space ceiling is set here, before anything is allocated.

    python3 perfbench/child.py --engine dxd --threads 1 --enum 10 < inst.xc
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from itertools import islice

import benchenv
import speed

MEM_BYTES = 1 << 30     # RLIMIT_AS: an op that needs more fails
MIN_SECONDS = 2.0       # repeat solve / enumerate for this long
MAX_REPS = 1000


def _error(where, exc):
    return f"{where}: {type(exc).__name__}: {exc}"[:300]


def _repeat(fn):
    """Run fn until MIN_SECONDS have been spent (at least once, at most
    MAX_REPS times); returns (median corrected seconds, median raw
    seconds, reps, last result)."""
    raw, corrected = [], []
    result = None
    while not raw or (sum(raw) < MIN_SECONDS and len(raw) < MAX_REPS):
        result = None       # free the last result before the next one
        result, r, c = speed.timed(fn)
        raw.append(r)
        corrected.append(c)
    return (statistics.median(corrected), statistics.median(raw), len(raw),
            result)


def run(args, text) -> dict:
    from xcover import instance, solver
    from workloads import check_covers

    out = {"engine": args.engine, "threads": args.threads}
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        inst = instance.parse_instance(text)
        cfg = solver.SolveConfig(engine=args.engine, threads=args.threads,
                                 timeout_s=args.timeout_s)
        try:
            solve_s, wall_s, reps, rep = _repeat(
                lambda: solver.solve(inst, cfg))
        except Exception as exc:
            out["error"] = _error("solve", exc)
            return out
        out["solve_s"] = solve_s
        out["solve_wall_s"] = wall_s
        out["solve_reps"] = reps
        out["count"] = str(rep.count)
        out["nodes"] = rep.nodes
        store = rep.store
        out["store_nodes"] = len(store)
        out["var_entries"] = sum(len(store.variables(n))
                                 for n in range(len(store)))
        st = rep.stats
        out["stats"] = {"states": st.cache_misses, "cache_hits": st.cache_hits,
                        "subs": st.subs, "spawned": st.spawned}
    finally:
        if tracer is not None:
            tracer.uninstall()
            out["spans"] = tracer.spans()
    if args.enum:
        want = min(args.enum, rep.count)
        try:
            enum_s, wall_s, reps, covers = _repeat(
                lambda: list(islice(store.iter_members(rep.root), args.enum)))
        except Exception as exc:
            out["error"] = _error("enumerate", exc)
            return out
        out["enum_s"] = enum_s
        out["enum_wall_s"] = wall_s
        out["enum_reps"] = reps
        problem = check_covers(inst, covers)
        if problem is None and len(covers) != want:
            problem = f"enumerated {len(covers)} covers, expected {want}"
        if problem is not None:
            out["wrong"] = "enumerate: " + problem
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--engine", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--enum", type=int, default=0,
                   help="covers to draw from the diagram (0: none)")
    p.add_argument("--timeout-s", type=float, default=None,
                   help="SolveConfig.timeout_s handed to the engine")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEM_BYTES, MEM_BYTES))
    benchenv.import_xcover()
    text = sys.stdin.read()
    try:
        out = run(args, text)
    except Exception as exc:     # the parent records it as a failed op
        traceback.print_exc()
        out = {"error": _error("child", exc)}
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
