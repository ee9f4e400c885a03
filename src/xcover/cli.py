"""Command-line front end.

Four subcommands: ``count`` (solve and report), ``compile`` (solve and
export the diagram as DOT and/or enumerate covers), ``gen`` (build an
instance from a graph file), and ``bench`` (run engines over a
directory of instances and emit CSV).

Counts are always printed as exact decimal strings; the JSON and CSV
schemas are stable:

* JSON keys: instance, engine, threads, count, nodes, subs, time_ms,
  cache_hits, cache_misses, dead
* CSV columns: instance,engine,threads,count,nodes,subs,time_ms,status
  with status one of ok | TO | error

``subs`` is the number of components of the joins that the search
built, summed over those joins: always 0 for dxz.  A state that ends
BOTTOM builds no join, so it counts none, whatever its components.
``dead`` counts the dead ends: states reached by a row in which a live
column has no live row.  Each is BOTTOM in its parent, neither cached
nor counted in ``cache_misses``.

Exit status 0 on success, 2 on usage, I/O, or parse errors.  Bench
timeouts are reported as TO rows, and an instance an engine refuses
(the oracle's row limit) as an error row; neither stops the run.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import islice
from pathlib import Path

from .gen import GenConfig, generate, parse_graph
from .instance import (ParseError, _content_lines, _digit_fields, parse_instance,
                       serialize_instance)
from .solver import ENGINES, SolveConfig, SolveTimeout, solve

DIAGRAM_ENGINES = ("dxz", "dxd", "dyndxd")


def _detect_format(path: Path, text: str) -> str:
    if path.suffix == ".xc":
        return "xc"
    if path.suffix in (".matrix", ".mat"):
        return "matrix"
    first = next(_content_lines(text), (1, ""))[1]
    return "matrix" if _digit_fields(first, 2) else "xc"


def _load_instance(pathname: str):
    path = Path(pathname)
    text = path.read_text()
    return path.name, parse_instance(text, _detect_format(path, text))


def _report_dict(name, rep) -> dict:
    return {
        "instance": name,
        "engine": rep.engine,
        "threads": rep.threads,
        "count": str(rep.count),
        "nodes": rep.nodes,
        "subs": rep.stats.subs,
        "time_ms": round(rep.time_ms, 3),
        "cache_hits": rep.stats.cache_hits,
        "cache_misses": rep.stats.cache_misses,
        "dead": rep.stats.dead,
    }


def cmd_count(args) -> int:
    name, inst = _load_instance(args.file)
    rep = solve(inst, SolveConfig(engine=args.engine, threads=args.threads))
    info = _report_dict(name, rep)
    if args.json:
        print(json.dumps(info))
    else:
        for key, val in info.items():
            print(f"{key:<12} {val}")
    return 0


def cmd_compile(args) -> int:
    if args.limit < 0:
        raise ValueError("--enumerate LIMIT must be >= 0")
    _, inst = _load_instance(args.file)
    rep = solve(inst, SolveConfig(engine=args.engine, threads=args.threads))
    if args.dot is not None:
        var_names = {i: name for i, (name, _) in enumerate(inst.rows)}
        Path(args.dot).write_text(rep.store.export_dot(rep.root, var_names))
    if args.limit:
        for cover in islice(rep.store.iter_members(rep.root), args.limit):
            print(" ".join(sorted(inst.rows[r][0] for r in cover)))
    return 0


def cmd_gen(args) -> int:
    text = Path(args.graphfile).read_text()
    g = parse_graph(text)
    cfg = GenConfig(fraction=args.fraction, max_cycle_len=args.max_cycle_len,
                    max_cycles=args.max_cycles, seed=args.seed)
    out = serialize_instance(generate(g, cfg), "xc")
    if args.out is None:
        sys.stdout.write(out)
    else:
        Path(args.out).write_text(out)
    return 0


def cmd_bench(args) -> int:
    engines = args.engines.split(",")
    for eng in engines:
        if eng not in ENGINES:
            raise ValueError(f"unknown engine {eng!r}")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    if args.timeout_s is not None and not args.timeout_s >= 0:  # NaN too
        raise ValueError("--timeout-s must be a number >= 0")
    paths = sorted(p for p in Path(args.dir).iterdir()
                   if p.suffix in (".xc", ".matrix", ".mat"))
    sink = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(["instance", "engine", "threads", "count", "nodes",
                         "subs", "time_ms", "status"])

        def failed(name, eng, status):
            writer.writerow([name, eng, args.threads, "", "", "", "", status])

        for path in paths:
            try:
                name, inst = _load_instance(str(path))
            except (ParseError, OSError, UnicodeDecodeError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                failed(path.name, "", "error")
                continue
            for eng in engines:
                cfg = SolveConfig(engine=eng, threads=args.threads,
                                  timeout_s=args.timeout_s)
                try:
                    rep = solve(inst, cfg)
                except SolveTimeout:
                    failed(name, eng, "TO")
                    continue
                except (RuntimeError, ValueError) as exc:
                    print(f"error: {path} [{eng}]: {exc}", file=sys.stderr)
                    failed(name, eng, "error")
                    continue
                writer.writerow([name, eng, rep.threads, str(rep.count),
                                 rep.nodes, rep.stats.subs,
                                 round(rep.time_ms, 3), "ok"])
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcover",
        description="Count and compile exact covers of incidence matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument("--threads", type=int, default=1,
                       help="processes that may split the search at its root "
                            "(default 1)")

    p = sub.add_parser("count", help="count the exact covers of an instance")
    p.add_argument("file")
    p.add_argument("--engine", choices=ENGINES, default="dxz")
    add_threads(p)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("compile", help="compile covers to a diagram")
    p.add_argument("file")
    p.add_argument("--engine", choices=DIAGRAM_ENGINES, default="dxz")
    add_threads(p)
    p.add_argument("--dot", metavar="PATH", help="write the diagram as DOT")
    p.add_argument("--enumerate", type=int, default=0, metavar="LIMIT",
                   dest="limit", help="print the first LIMIT covers")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("gen", help="generate an instance from a graph file")
    p.add_argument("graphfile")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fraction", type=float, default=0.30)
    p.add_argument("--max-cycle-len", type=int, default=12)
    p.add_argument("--max-cycles", type=int, default=10000)
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="run engines over a directory of instances")
    p.add_argument("dir")
    p.add_argument("--engines", default="dxz,dxd,dyndxd",
                   help="comma-separated engine list")
    add_threads(p)
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--csv", metavar="PATH", help="CSV output file (default stdout)")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
