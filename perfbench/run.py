"""Benchmark of the biotsplit library on its manufactured-solution studies.

Run from the root of a biotsplit source tree (the library is imported from
``./src``, never from an installed copy):

    python3 perfbench/run.py --workload gate64 --seed 1 --seconds 30 --trace 0

One process, one caller, no threads of its own: a closed loop in which each
``run_study`` call starts when the previous one has returned.  A *pass* runs
every study of the workload once, on the refinement chain 1/h = 16, 32, 64;
the run repeats passes until their time adds up to ``--seconds`` (at least
one pass) and reports medians over its passes.  One op is one (study, level); it fails
on an exception, on a relative solver residual above 1e-9 (the program's own
taint rule) or on a mismatch with the frozen errors in ``oracle.json``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``          -- one pass, first study call to last verified result;
* ``finest_level_s``  -- the part of a pass spent on the finest level (from
  the return of the last ``refine`` to the return of ``run_study``), summed
  over the studies;
* ``setup_s``         -- process start to ready (imports, cases, a warm-up
  of every study at 1/h = 2, 4), measured in fresh processes started after
  each pass, median of all of them;
* ``peak_rss_mb``     -- ``ru_maxrss`` of this process.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``spans.py``), plus the tracing
overhead: median traced minus median untraced ``wall_s``.

The last line of standard output is the JSON result; the lines before it
are a readable summary.  A record with the machine, library versions, every
pass and (traced runs) the spans is written to ``perfbench/results/`` of the
measured tree (the working directory).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from spans import LAYERS, Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ORACLE = HERE / "oracle.json"

#: Relative tolerance of the error oracle.  Errors of neighbouring levels
#: differ by a factor of 2 or more; repeated runs agree to about 1e-12.
ERROR_RTOL = 1e-6
#: ``StudyResult.tainted`` threshold of the library.
RESIDUAL_LIMIT = 1e-9
#: Set-up probes after each untraced pass.  One probe varies by about 13%
#: (quartile distance over median) on a shared machine; the median of ten
#: or more, spread over the run, varies by about 5%.
SETUP_PER_PASS = 5
#: Warm-up chain of the set-up: 1/h = 2, 4.
WARMUP_N0, WARMUP_LEVELS = 2, 2


@dataclass(frozen=True)
class Study:
    label: str
    algorithm: str
    preset: str
    overrides: tuple = ()  # (name, value) pairs passed to make_case
    iters: int | None = None
    tol: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    studies: tuple
    n0: int = 16
    levels: int = 3


#: The five studies of the acceptance gate (the module fixtures of
#: tests/test_acceptance.py), cut at 1/h = 64.  Four of them factor the
#: same Stokes matrix at every level.
GATE_STUDIES = (
    Study("coupled", "coupled", "nu03"),
    Study("te", "te", "nu03"),
    Study("iter5", "iterative", "nu03", (("dt", 5e-3),), iters=5),
    Study("iter10", "iterative", "nu03", (("dt", 1e-2),), iters=10),
    Study("c00", "iterative", "c00", (("dt", 1e-2),), iters=10),
)

#: ``--tol`` mode of the split iteration: about 19 sweeps per step, so the
#: time goes to triangular solves.  At tol = 1e-12 the iteration stalls at
#: the roundoff floor (ConvergenceFailure at 1/h = 32); 1e-10 converges.
SWEEP_STUDIES = (
    Study("nu03-tol", "iterative", "nu03", (("dt", 1e-3), ("T", 0.01)), tol=1e-10),
)

WORKLOADS = {w.name: w for w in (Workload("gate64", GATE_STUDIES),
                                 Workload("sweep64", SWEEP_STUDIES))}


@dataclass
class PassResult:
    wall_s: float
    finest_level_s: float
    ops: int
    failed: int
    spans: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# library, set-up and oracle
# ---------------------------------------------------------------------------

def load_library(root: Path):
    """Import biotsplit from ``root/src`` and nowhere else."""
    package = root / "src" / "biotsplit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no biotsplit sources at {package}; "
                         "run from the root of a biotsplit source tree")
    sys.path.insert(0, str(root / "src"))
    import biotsplit
    if Path(biotsplit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported biotsplit from {biotsplit.__file__}, "
                         f"not from {package}")
    return biotsplit


def run_one(lib, study: Study, case, n0: int, levels: int):
    return lib.run_study(study.algorithm, case, levels=levels, n0=n0,
                         iters=study.iters, tol=study.tol)


def set_up(lib, workload: Workload) -> dict:
    """Build the workload's cases and pay lazy first-call costs at 1/h <= 4."""
    cases = {s.label: lib.make_case(s.preset, **dict(s.overrides))
             for s in workload.studies}
    for s in workload.studies:
        run_one(lib, s, cases[s.label], WARMUP_N0, WARMUP_LEVELS)
    return cases


def freeze(result) -> list:
    """A study's per-level errors in the oracle's format."""
    return [{"inv_h": row.inv_h, "errors": list(row.errors.as_tuple())}
            for row in result.rows]


def oracle_mismatches(result, expected: list) -> list:
    """Describe each level whose errors or residual break the oracle."""
    if len(result.rows) != len(expected):
        return [f"{len(result.rows)} levels, expected {len(expected)}"] * len(expected)
    bad = []
    for row, ref in zip(result.rows, expected):
        errors = row.errors.as_tuple()
        if row.inv_h != ref["inv_h"]:
            bad.append(f"level {row.level}: 1/h={row.inv_h}, expected {ref['inv_h']}")
        elif not all(math.isclose(e, r, rel_tol=ERROR_RTOL)
                     for e, r in zip(errors, ref["errors"])):
            bad.append(f"1/h={row.inv_h}: errors {errors} != {ref['errors']}")
        elif not row.max_residual <= RESIDUAL_LIMIT:
            bad.append(f"1/h={row.inv_h}: residual {row.max_residual:.3e} > {RESIDUAL_LIMIT}")
    return bad


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def refine_marks(lib):
    """Record when each ``refine`` call made by ``run_study`` returns."""
    marks = []
    refine = lib.benchmark.refine

    def marked(mesh):
        out = refine(mesh)
        marks.append(time.perf_counter())
        return out

    lib.benchmark.refine = marked
    try:
        yield marks
    finally:
        lib.benchmark.refine = refine


def run_pass(lib, workload: Workload, order: list, cases: dict, oracle: dict,
             tracer: Tracer | None = None) -> PassResult:
    failed, finest = 0, 0.0
    traced = tracer.installed(lib) if tracer else contextlib.nullcontext()
    with refine_marks(lib) as marks, traced:
        start = time.perf_counter()
        for study in order:
            marks.clear()
            root = (tracer.span("benchmark.run_study", study.label) if tracer
                    else contextlib.nullcontext())
            try:
                with root:
                    result = run_one(lib, study, cases[study.label],
                                     workload.n0, workload.levels)
            except Exception as exc:  # a failed study counts; the run goes on
                print(f"{workload.name}/{study.label} failed: {exc!r}", file=sys.stderr)
                failed += workload.levels
                continue
            finest += time.perf_counter() - marks[-1]
            for problem in oracle_mismatches(result, oracle[study.label]):
                print(f"{workload.name}/{study.label} oracle: {problem}", file=sys.stderr)
                failed += 1
        wall = time.perf_counter() - start
    return PassResult(wall, finest, len(order) * workload.levels, failed,
                      tracer.spans if tracer else [])


def probe_setup(root: Path, name: str) -> float:
    """Seconds from starting a fresh benchmark process to its ``ready`` line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--probe-setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


def measure(lib, root: Path, workload: Workload, seed: int, seconds: float,
            trace: bool, oracle: dict) -> tuple[dict, dict]:
    """Run passes for ``seconds``; return (result line, detailed record)."""
    rng = random.Random(seed)
    cases = set_up(lib, workload)
    plain, traced, setup = [], [], []
    measured = 0.0  # pass time only; the set-up probes come on top
    while not plain or measured < seconds:
        order = list(workload.studies)
        rng.shuffle(order)
        plain.append(run_pass(lib, workload, order, cases, oracle))
        measured += plain[-1].wall_s
        if trace:
            traced.append(run_pass(lib, workload, order, cases, oracle, Tracer()))
            measured += traced[-1].wall_s
        else:
            setup += [probe_setup(root, workload.name) for _ in range(SETUP_PER_PASS)]

    med = statistics.median
    if trace:
        per_pass = [per_layer_metrics(p.spans) for p in traced]
        metrics = {name: {"value": med([m[name][0] for m in per_pass]), "unit": unit}
                   for name, (_, unit) in per_pass[0].items()}
        metrics["trace.overhead_s"] = {
            "value": med([p.wall_s for p in traced]) - med([p.wall_s for p in plain]),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": med([p.wall_s for p in plain]), "unit": "s"},
            "finest_level_s": {"value": med([p.finest_level_s for p in plain]), "unit": "s"},
            "setup_s": {"value": med(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    passes = [(p, False) for p in plain] + [(p, True) for p in traced]
    line = {"correct": all(p.failed == 0 for p, _ in passes),
            "attempted": sum(p.ops for p, _ in passes),
            "failed": sum(p.failed for p, _ in passes),
            "metrics": metrics}
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": [{"traced": is_traced, "wall_s": p.wall_s,
                    "finest_level_s": p.finest_level_s, "ops": p.ops, "failed": p.failed}
                   for p, is_traced in passes],
        "setup_samples_s": None if trace else setup,
        "spans": [asdict(s) for s in traced[-1].spans] if trace else None,
    }
    return line, record


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment(root: Path, seed: int) -> dict:
    """Machine, library versions and thread settings of this run."""
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, AttributeError):
            return None
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {k: os.environ.get(k) for k in (
            "BIOT_SPLIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def summary(line: dict, record: dict) -> list:
    """Readable lines: every metric by name and unit, then the trace verdict."""
    walls = [p["wall_s"] for p in record["passes"] if not p["traced"]]
    out = [f"{record['workload']}: {len(walls)} untraced pass(es), "
           f"wall_s min {min(walls):.3f} s, max {max(walls):.3f} s; "
           f"ops {line['attempted']}, ops_failed {line['failed']}"]
    for name, m in line["metrics"].items():
        out.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if record["trace"]:
        layers = {k: line["metrics"][f"layer.self_s.{k}"]["value"] for k in LAYERS}
        top = max(layers, key=layers.get)
        parts = {k: line["metrics"][k]["value"] for k in (
            "linalg.factor_s", "linalg.solve_s", "assembly.form_s", "biot.step_self_s",
            "biot.build_system_self_s", "benchmark.errors_s")}
        out.append(f"  largest self-time layer: {top} ({layers[top]:.3f} s); "
                   f"largest part: {max(parts, key=parts.get)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    ap.add_argument("--freeze-oracle", action="store_true",
                    help="run each study once and store its errors in oracle.json")
    args = ap.parse_args(argv)

    root = Path.cwd()
    lib = load_library(root)
    workload = WORKLOADS[args.workload]
    if args.probe_setup:
        set_up(lib, workload)
        print("ready", flush=True)
        return 0
    oracle = json.loads(ORACLE.read_text()) if ORACLE.is_file() else {}
    if args.freeze_oracle:
        cases = set_up(lib, workload)
        oracle[workload.name] = {s.label: freeze(run_one(lib, s, cases[s.label],
                                                         workload.n0, workload.levels))
                                 for s in workload.studies}
        ORACLE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
        return 0
    if workload.name not in oracle:
        raise SystemExit(f"error: {ORACLE} has no errors for {workload.name}")

    line, record = measure(lib, root, workload, args.seed, args.seconds,
                           bool(args.trace), oracle[workload.name])
    record["environment"] = environment(root, args.seed)
    record["result"] = line
    results = root / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary(line, record)))
    print(f"record: {out}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
