"""Smoke test of the benchmark at 1/h <= 8.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that a run emits exactly the metrics BENCHMARK.json names, with their
units, in both modes, and that the oracle rejects a perturbed error and a
tainted residual.  The oracle for the small chain is frozen here from the
same code, so only the checking is under test, not the frozen values.
"""
import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name):
    """The named workload on the chain 1/h = 4, 8."""
    return replace(run.WORKLOADS[name], n0=4, levels=2)


@pytest.fixture(scope="module")
def lib():
    return run.load_library(ROOT)


def frozen(lib, workload):
    cases = run.set_up(lib, workload)
    return {s.label: run.freeze(run.run_one(lib, s, cases[s.label],
                                            workload.n0, workload.levels))
            for s in workload.studies}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(lib, name, trace):
    workload = small(name)
    line, record = run.measure(lib, ROOT, workload, seed=7, seconds=0, trace=trace,
                               oracle=frozen(lib, workload))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    passes = 2 if trace else 1
    assert line["attempted"] == passes * len(workload.studies) * workload.levels
    assert line["correct"] and line["failed"] == 0
    if trace:
        assert line["metrics"]["linalg.factor_calls"]["value"] > 0
        assert line["metrics"]["linalg.fill_nnz"]["value"] > 0
    else:
        assert 0 < line["metrics"]["finest_level_s"]["value"] < line["metrics"]["wall_s"]["value"]
        assert line["metrics"]["setup_s"]["value"] > 0


def test_gate_reuses_the_stokes_factorization(lib):
    workload = small("gate64")
    line, _ = run.measure(lib, ROOT, workload, seed=1, seconds=0, trace=True,
                          oracle=frozen(lib, workload))
    metrics = line["metrics"]
    assert metrics["linalg.factor_calls"]["value"] == 9 * workload.levels
    assert metrics["linalg.factor_unique"]["value"] == 6 * workload.levels


def test_oracle_rejects_perturbed_errors_and_tainted_residuals(lib):
    workload = small("gate64")
    oracle = frozen(lib, workload)
    study = next(s for s in workload.studies if s.label == "te")
    result = run.run_one(lib, study, lib.make_case(study.preset), workload.n0,
                         workload.levels)
    assert run.oracle_mismatches(result, oracle["te"]) == []

    perturbed = copy.deepcopy(oracle["te"])
    perturbed[1]["errors"][0] *= 1 + 1e-4
    assert len(run.oracle_mismatches(result, perturbed)) == 1

    result.rows[0].max_residual = float("nan")
    assert len(run.oracle_mismatches(result, oracle["te"])) == 1

    bad = dict(oracle, te=perturbed)
    outcome = run.run_pass(lib, workload, list(workload.studies),
                           run.set_up(lib, workload), bad)
    assert outcome.failed == 1
