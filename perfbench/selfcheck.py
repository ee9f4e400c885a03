"""Checks of the benchmark itself, not of xcover:

* the seed changes no workload's scale: the row, column and cell
  counts, the reference count and ``solver.states`` of a dxz solve are
  the same for every seed given, and the solve matches the reference;
* the layer trace puts back every attribute it patched, and records
  the solve it wraps without changing its result.

    python3 perfbench/selfcheck.py --seeds 1 2 3

Exits 1 and says what moved.
"""

from __future__ import annotations

import argparse
import sys

import benchenv


def figures(name: str, seed: int) -> tuple:
    import workloads
    from xcover import SolveConfig, solve
    wl = workloads.build(name, seed)
    rep = solve(wl.inst, SolveConfig(engine="dxz"))
    if rep.count != wl.reference:
        raise SystemExit(f"{name} seed {seed}: count {rep.count} "
                         f"!= reference {wl.reference}")
    return (wl.inst.n_rows, wl.inst.n_cols, workloads.cell_count(wl.inst),
            wl.reference, rep.stats.cache_misses)


def check_seeds(seeds) -> bool:
    import workloads
    ok = True
    for name in workloads.NAMES:
        seen = {seed: figures(name, seed) for seed in seeds}
        rows, cols, cells, ref, states = seen[seeds[0]]
        moved = len(set(seen.values())) != 1
        ok = ok and not moved
        print(f"{name:10s} rows={rows} cols={cols} cells={cells} "
              f"reference={len(str(ref))} digits states={states}"
              + ("  MOVED: " + repr(seen) if moved else ""))
    return ok


def check_trace() -> bool:
    import workloads
    from layertrace import ENTRY_POINTS, Tracer
    from xcover import solver
    before = [owner.__dict__[attr] for _, owner, attr in ENTRY_POINTS]
    wl = workloads.build("rings", 1)
    with Tracer() as tracer:
        rep = solver.solve(wl.inst, solver.SolveConfig(engine="dxd"))
    after = [owner.__dict__[attr] for _, owner, attr in ENTRY_POINTS]
    restored = all(a is b for a, b in zip(before, after))
    spans = tracer.spans()
    recorded = (spans["solver.solve"]["calls"] == 1
                and spans["solver.decompose"]["calls"] >= 1
                and rep.count == wl.reference)
    print(f"trace      attributes restored={restored} "
          f"solve recorded={recorded}")
    return restored and recorded


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = p.parse_args(argv)
    benchenv.import_xcover()
    ok = check_seeds(args.seeds)
    ok = check_trace() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
