"""xcover benchmark: compile seeded exact-cover workloads with each engine
and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload rings --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report --seed 1

With ``--workload`` the run measures one workload in rounds of ops for
``--seconds`` seconds; the first round always runs, a further one only if
it should end in time.  An op is one fresh child process (one at a
time) that parses the workload's ``xc`` text, solves it with one engine
and possibly enumerates covers; it is killed at a hard deadline and runs
under an address-space ceiling.  Every count is checked against an
independent reference and every enumerated cover against the instance.
The last line of stdout is one JSON object; ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced child
next to an untraced one, and writes the span table to ``perfbench/out``.

``--report`` runs every workload once with every engine, including the
ops that fail at this commit (the known defects in README.md), and
prints a table of all end-to-end metrics and failures.  It is for
people; its exit code is 1 when an output is wrong or a failure is not
a known one.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import benchenv
import speed

CHILD = benchenv.BENCH_DIR / "child.py"
OUT_DIR = benchenv.BENCH_DIR / "out"
RUN_BUDGET_S = 165      # a scored run stops starting ops after this
OP_DEADLINE_S = 90      # hard per-op deadline: the child is killed
SETUP_SECONDS = 1.0     # parse time at the start of a run; a tenth after each op
SETUP_MIN = 5           # parses at least, each time


@dataclass(frozen=True)
class Op:
    label: str
    engine: str
    threads: int = 1
    enum_n: int | None = 0      # None: the workload's own N
    timeout_s: float | None = None
    deadline_s: float = OP_DEADLINE_S
    known: str | None = None    # the known defect this op reproduces


DXZ = Op("dxz", "dxz")
DXD = Op("dxd", "dxd", enum_n=None)
DXD_T2 = Op("dxd-t2", "dxd", threads=2)
DYNDXD = Op("dyndxd", "dyndxd")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "solve_s.dxz": "s",
    "solve_s.dxd": "s",
    "solve_s.dxd-t2": "s",
    "enum_s.dxd": "s",
    "rss_mb.dxz": "MB",
    "rss_mb.dxd": "MB",
    "nodes.dxz": "count",
    "nodes.dxd": "count",
}

# Per-layer metrics kept for each engine label; the rest are zero there.
_DLX = ("dlx.cover_calls", "dlx.cover_s", "dlx.uncover_s", "dlx.select_calls",
        "dlx.select_s", "dlx.build_calls", "dlx.build_s")
_SEARCH = ("solver.states", "solver.cache_hits", "solver.hit_ratio",
           "solver.self_s")
_DECOMPOSE = ("solver.decompose_calls", "solver.decompose_s", "solver.subs")
_BFS = ("solver.bfs_calls", "solver.bfs_s")
_DYNCONN = ("dynconn.init_s", "dynconn.dec_calls", "dynconn.dec_s",
            "dynconn.inc_s", "dynconn.links", "dynconn.cuts",
            "dynconn.partition_calls", "dynconn.partition_s")
_DIAGRAM = ("diagram.mk_calls", "diagram.intern_s", "diagram.store_nodes",
            "diagram.live_ratio", "diagram.var_entries", "diagram.count_s",
            "diagram.node_count_s")
LAYERS = {
    "dxz": _DLX + _SEARCH + _DIAGRAM + ("trace.overhead_s",),
    "dxd": _DLX + _SEARCH + _BFS + _DECOMPOSE + _DIAGRAM + ("trace.overhead_s",),
    "dxd-t2": ("solver.states", "solver.spawned", "solver.self_s",
               "trace.overhead_s"),
    "dyndxd": _DLX + _SEARCH + _DECOMPOSE + _DYNCONN + _DIAGRAM
              + ("trace.overhead_s",),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer_names() -> list:
    names = ["instance.parse_s"]
    for label, metrics in LAYERS.items():
        names.extend(f"{label}.{m}" for m in metrics)
    return names


def scored_ops(workload: str, trace: int) -> tuple:
    """The ops of one round.  dyndxd does not finish pentomino (known
    defect 3), so it is traced on the other workloads only."""
    if trace and workload != "pentomino":
        return DXZ, DXD, DXD_T2, DYNDXD
    return DXZ, DXD, DXD_T2


def report_ops(workload: str) -> tuple:
    """Every engine once, dxz enumerating too, and the known defects."""
    dxz = Op("dxz", "dxz", enum_n=None)
    dyn = DYNDXD
    extra = ()
    if workload == "pentomino":
        dyn = Op("dyndxd", "dyndxd", timeout_s=10, deadline_s=60,
                 known="3: dyndxd ignores timeout_s and does not finish")
    if workload == "ladder":
        dxz = Op("dxz", "dxz", enum_n=None,
                 known="1: iter_members on the dxz diagram recurses too deep")
        extra = (Op("dxd-enum1000", "dxd", enum_n=1000, deadline_s=120,
                    known="2: dxd enumeration costs ~9 MB per cover"),)
    return (dxz, DXD, DXD_T2, dyn) + extra


# -- one op -------------------------------------------------------------------

def run_op(op: Op, wl, trace: int, deadline: float) -> dict:
    """Run op in a child; the result carries "failure" (and "wrong" when
    an output is incorrect) if the op failed."""
    n = wl.enum_n if op.enum_n is None else op.enum_n
    cmd = [sys.executable, str(CHILD), "--engine", op.engine,
           "--threads", str(op.threads), "--enum", str(n),
           "--trace", str(trace)]
    if op.timeout_s is not None:
        cmd += ["--timeout-s", str(op.timeout_s)]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            cwd=benchenv.ROOT)
    try:
        out, err = proc.communicate(wl.text, timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"failure": f"killed at the {deadline:.0f} s deadline"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [""]
        return {"failure": f"child exited {proc.returncode}: {tail[0][:200]}"}
    res = json.loads(lines[-1])
    if "count" in res and res["count"] != str(wl.reference):
        res["wrong"] = (f"count {res['count'][:40]} != reference "
                        f"{str(wl.reference)[:40]}")
    problem = res.get("wrong") or res.get("error")
    if problem:
        res["failure"] = problem
    return res


# -- a run --------------------------------------------------------------------

class Run:
    """Samples, op counts and failures of one run of one workload."""

    def __init__(self, wl):
        self.wl = wl
        self.samples = defaultdict(list)
        self.wall = defaultdict(list)   # raw seconds of the timed samples
        self.attempted = 0
        self.failures = []      # (label, message, known defect or None)
        self.wrong = False
        self.traces = defaultdict(list)   # per label, one record per op

    def check_setup(self):
        """The setup op: the program must parse the text back to the
        instance the benchmark built."""
        from xcover.instance import parse_instance
        self.attempted += 1
        if parse_instance(self.wl.text) != self.wl.inst:
            self.wrong = True
            self.failures.append(("setup", "parsed instance differs", None))

    def time_setup(self, seconds: float):
        """Time parse_instance on the xc text for about ``seconds`` (at
        least SETUP_MIN times).  Called between ops, so that setup_s, the
        median of every parse in the run, spans the whole run."""
        from xcover.instance import parse_instance
        end = time.perf_counter() + seconds
        for i in itertools.count():
            if i >= SETUP_MIN and time.perf_counter() >= end:
                return
            _, raw, corrected = speed.timed(
                lambda: parse_instance(self.wl.text))
            self.samples["setup_s"].append(corrected)
            self.wall["setup_s"].append(raw)

    def op(self, op: Op, trace: int, deadline: float) -> dict:
        self.attempted += 1
        res = run_op(op, self.wl, trace, deadline)
        if "failure" in res:
            self.failures.append((op.label, res["failure"], op.known))
            self.wrong = self.wrong or "wrong" in res
        return res

    def record(self, label: str, res: dict):
        """End-to-end samples of one untraced op."""
        if "solve_s" in res:
            self.samples[f"solve_s.{label}"].append(res["solve_s"])
            self.wall[f"solve_s.{label}"].append(res["solve_wall_s"])
            self.samples[f"nodes.{label}"].append(res["nodes"])
        if "enum_s" in res:
            self.samples[f"enum_s.{label}"].append(res["enum_s"])
            self.wall[f"enum_s.{label}"].append(res["enum_wall_s"])
        if "rss_mb" in res:
            self.samples[f"rss_mb.{label}"].append(res["rss_mb"])

    def record_layers(self, label: str, traced: dict, base: dict):
        if "solve_s" not in traced or "solve_s" not in base:
            return
        spans = traced["spans"]
        self.traces[label].append({"spans": spans, "stats": traced["stats"],
                                  "solve_reps": traced["solve_reps"],
                                  "solve_s": traced["solve_s"],
                                  "untraced_solve_s": base["solve_s"]})
        if "instance.parse" in spans:
            self.samples["instance.parse_s"].append(
                spans["instance.parse"]["total_s"])
        values = layer_values(traced, base)
        for m in LAYERS[label]:
            self.samples[f"{label}.{m}"].append(values[m])

    def median(self, name):
        values = self.samples.get(name)
        return statistics.median(values) if values else None


def layer_values(res: dict, base: dict) -> dict:
    """Per-layer values of one traced op, spans averaged per solve."""
    spans = res["spans"]
    reps = res["solve_reps"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / reps

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0) / reps

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0) / reps

    st = res["stats"]
    lookups = st["cache_hits"] + st["states"]
    return {
        "dlx.cover_calls": calls("dlx.cover"),
        "dlx.cover_s": total("dlx.cover"),
        "dlx.uncover_s": total("dlx.uncover"),
        "dlx.select_calls": calls("dlx.select"),
        "dlx.select_s": total("dlx.select"),
        "dlx.build_calls": calls("dlx.build"),
        "dlx.build_s": total("dlx.build"),
        "solver.states": st["states"],
        "solver.cache_hits": st["cache_hits"],
        "solver.hit_ratio": st["cache_hits"] / lookups if lookups else 0.0,
        "solver.bfs_calls": calls("solver.bfs"),
        "solver.bfs_s": total("solver.bfs"),
        "solver.decompose_calls": calls("solver.decompose"),
        "solver.decompose_s": total("solver.decompose"),
        "solver.subs": st["subs"],
        "solver.spawned": st["spawned"],
        "solver.self_s": self_s("solver.solve"),
        "dynconn.init_s": total("dynconn.init"),
        "dynconn.dec_calls": calls("dynconn.dec"),
        "dynconn.dec_s": total("dynconn.dec"),
        "dynconn.inc_s": total("dynconn.inc"),
        "dynconn.links": calls("dynconn.link"),
        "dynconn.cuts": calls("dynconn.cut"),
        "dynconn.partition_calls": calls("dynconn.partition"),
        "dynconn.partition_s": total("dynconn.partition"),
        "diagram.mk_calls": calls("diagram.mk"),
        "diagram.intern_s": self_s("diagram.mk"),
        "diagram.store_nodes": res["store_nodes"],
        "diagram.live_ratio": res["nodes"] / res["store_nodes"],
        "diagram.var_entries": res["var_entries"],
        "diagram.count_s": total("diagram.count"),
        "diagram.node_count_s": total("diagram.node_count"),
        "trace.overhead_s": res["solve_s"] - base["solve_s"],
    }


def measure(wl, seconds: float, trace: int) -> Run:
    run = Run(wl)
    start = time.monotonic()
    run.check_setup()
    run.time_setup(SETUP_SECONDS)
    ops = scored_ops(wl.name, trace)
    while True:
        round_start = time.monotonic()
        for op in ops:
            left = RUN_BUDGET_S - (time.monotonic() - start)
            if left <= 1:
                return run
            base = run.op(op, 0, min(op.deadline_s, left))
            run.time_setup(SETUP_SECONDS / 10)
            if trace:
                left = RUN_BUDGET_S - (time.monotonic() - start)
                if left <= 1:
                    return run
                traced = run.op(op, 1, min(op.deadline_s, left))
                run.record_layers(op.label, traced, base)
            else:
                run.record(op.label, base)
        # start another round only if it should end within --seconds
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            return run


def result_line(run: Run, trace: int):
    """The final JSON object, or None when a metric has no sample."""
    if trace:
        units = {name: layer_unit(name) for name in per_layer_names()}
    else:
        units = END_TO_END
    ran = {op.label for op in scored_ops(run.wl.name, trace)}
    metrics = {}
    for name, unit in units.items():
        label = name.split(".", 1)[0]
        if trace and label in LAYERS and label not in ran:
            value = 0       # engine not run on this workload
        else:
            value = run.median(name)
        if value is None:
            return None
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not run.wrong, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def print_summary(run: Run):
    for name in sorted(run.samples):
        values = run.samples[name]
        line = f"  {name:34s} {statistics.median(values):14.6g}  n={len(values)}"
        if name in run.wall:
            line += f"  (raw {statistics.median(run.wall[name]):.6g} s)"
        print(line)
    for label, message, known in run.failures:
        tag = f"known defect {known}" if known else "FAILED"
        print(f"  {label}: {tag}: {message}")


def print_dominant(run: Run):
    """The layer time with the largest median, per traced engine."""
    for label in LAYERS:
        times = {m: run.median(f"{label}.{m}") for m in LAYERS[label]
                 if m.endswith("_s") and m != "trace.overhead_s"}
        times = {m: v for m, v in times.items() if v}
        if times:
            top = max(times, key=times.get)
            print(f"  dominant layer of {label}: {top} ({times[top]:.4g} s "
                  f"per solve)")


def write_trace(run: Run, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{run.wl.name}_seed{seed}.json"
    path.write_text(json.dumps({"workload": run.wl.name, "seed": seed,
                                "ops": run.traces}, indent=1))
    return path


# -- report -------------------------------------------------------------------

# The scored metrics plus those that fail on some workload at this commit.
REPORT_METRICS = {**END_TO_END, "solve_s.dyndxd": "s", "enum_s.dxz": "s",
                  "rss_mb.dyndxd": "MB"}


def report(seed: int) -> int:
    import workloads
    bad = False
    for name in workloads.NAMES:
        wl = workloads.build(name, seed)
        print(f"== {name}: {wl.inst.n_rows} rows x {wl.inst.n_cols} columns, "
              f"{len(str(wl.reference))}-digit reference count", flush=True)
        run = Run(wl)
        run.check_setup()
        run.time_setup(SETUP_SECONDS)
        for op in report_ops(name):
            res = run.op(op, 0, op.deadline_s)
            run.record(op.label, res)
        for metric, unit in REPORT_METRICS.items():
            values = run.samples.get(metric)
            shown = (f"{statistics.median(values):.6g}" if values
                     else "-  (failed)")
            print(f"  {metric:16s} {unit:6s} {shown:>14s}  "
                  f"n={len(values or ())}")
        print(f"  {'fail_ratio':16s} {'ratio':6s} "
              f"{len(run.failures) / run.attempted:14.3f}  "
              f"({len(run.failures)} of {run.attempted} ops)")
        for label, message, known in run.failures:
            tag = f"known defect {known}" if known else "UNEXPECTED"
            print(f"  {label}: {tag}: {message}")
            bad = bad or known is None
        bad = bad or run.wrong
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="run every workload and engine once, known "
                        "failures included, and print a table")
    args = p.parse_args(argv)
    try:
        benchenv.import_xcover()
    except benchenv.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed)
    import workloads
    if args.workload not in workloads.NAMES:
        p.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    wl = workloads.build(args.workload, args.seed)
    run = measure(wl, args.seconds, args.trace)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: "
          f"{run.attempted} ops, {len(run.failures)} failed")
    print_summary(run)
    if args.trace:
        print_dominant(run)
        print(f"  spans written to {write_trace(run, args.seed)}")
    line = result_line(run, args.trace)
    if line is None:
        print("error: a metric has no sample", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
