"""Compare two biotsplit source trees with identical benchmark code.

    python3 perfbench/compare.py --change . --parent ../parent [--pairs 10]
    python3 perfbench/compare.py --change . --out perfbench/baseline.json

Runs every workload of BENCHMARK.json for its ``run_seconds``, with this copy
of ``run.py`` from the root of each tree, so both trees are measured by the
same benchmark code and settings; each run's record lands in the measured
tree's own ``perfbench/results/``.  Pair i uses seed
``--first-seed + i`` on both sides, and the side that runs first alternates
from pair to pair.  Without ``--parent`` only the change tree runs, which
records a baseline and shows the benchmark's own run-to-run spread.

For each workload and end-to-end metric it reports each side's median and
quartiles over runs and the share of pairs the change won (ties count for
neither), and a verdict:

* ``gain``        -- over ten pairs or more, the change won at least 9/10 of
                     them, the medians differ by more than the parent's
                     quartile distance, and no more ops failed than on the
                     parent;
* ``regression``  -- the change's median is worse than the parent's by more
                     than the metric's bound in BENCHMARK.json;
* ``unresolved``  -- otherwise, when the parent's quartile distance is wider
                     than the bound, unless every change run beats every
                     parent run;
* ``same``        -- otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "runs": values}


def verdict(metric: dict, parent: list, change: list,
            more_failures: bool) -> tuple[str, float]:
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    won = sum(better(c, p) for c, p in zip(change, parent)) / len(change)
    ps, cs = stats(parent), stats(change)
    worse_by = (cs["median"] - ps["median"]) / ps["median"] * (1 if lower else -1)
    if (len(change) >= 10 and won >= 0.9 and not more_failures
            and abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]):
        return "gain", won
    if worse_by > metric["bound"]:
        return "regression", won
    all_better = all(better(c, p) for c in change for p in parent)
    if ps["spread"] > metric["bound"] and not all_better:
        return "unresolved", won
    return "same", won


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write the report here as JSON")
    args = ap.parse_args(argv)

    sides = {"change": args.change.resolve()}
    if args.parent:
        sides["parent"] = args.parent.resolve()
    report = {"pairs": args.pairs, "seconds": SPEC["run_seconds"],
              "first_seed": args.first_seed,
              "environment": {side: environment(tree, args.first_seed)
                              for side, tree in sides.items()},
              "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        lines = {side: [] for side in sides}
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                lines[side].append(run_once(sides[side], workload, args.first_seed + i))
        failed = {side: sum(ln["failed"] for ln in lines[side]) for side in sides}
        rows = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = {side: [ln["metrics"][name]["value"] for ln in lines[side]]
                      for side in sides}
            row = {side: stats(v) for side, v in values.items()}
            row["unit"] = metric["unit"]
            if args.parent:
                row["verdict"], row["change_won"] = verdict(
                    metric, values["parent"], values["change"],
                    failed["change"] > failed["parent"])
            rows[name] = row
            print(f"{workload:8s} {name:16s} " + "  ".join(
                f"{side} {row[side]['median']:.4g} [{row[side]['q1']:.4g}, "
                f"{row[side]['q3']:.4g}] {metric['unit']} spread {row[side]['spread']:.3f}"
                for side in sides)
                + (f"  won {row['change_won']:.0%} -> {row['verdict']}" if args.parent
                   else ""))
        print(f"{workload:8s} ops_failed " + "  ".join(
            f"{side} {n}" for side, n in failed.items()))
        report["workloads"][workload] = {"metrics": rows, "ops_failed": failed,
                                         "correct": {s: all(ln["correct"] for ln in lines[s])
                                                     for s in sides}}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
