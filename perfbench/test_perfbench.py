"""Tests of the benchmark itself.

    python -m pytest perfbench/test_perfbench.py

They run one round of each workload through fresh workers, so they take
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import charp  # noqa: E402
import charp.cli  # noqa: E402,F401
import run as bench  # noqa: E402
from checks import load_reference  # noqa: E402
from tracer import FUNCTIONS, MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

JOBS = 12  # one round of every workload
SEED = 3

# The workload on which each per-layer metric must be nonzero.  Escalations
# are left out: no workload escalates today.
LOADS = {
    "cli.main.calls": ["release-gate", "lin-family", "two-term", "dense-series"],
    "cli.main.self_s": ["release-gate"],
    "criterion.verdict.calls": ["lin-family", "two-term"],
    "criterion.self_s": ["lin-family", "two-term"],
    "criterion.mk_point.calls": ["lin-family", "two-term"],
    "criterion.mk_point.repeat_ratio": ["lin-family", "two-term"],
    "recurrence.phi.calls": ["lin-family"],
    "recurrence.phi.self_s": ["lin-family"],
    "recurrence.numerator.calls": ["two-term", "lin-family"],
    "recurrence.numerator.self_s": ["two-term", "lin-family"],
    "recurrence.numerator.zero_ratio": ["two-term", "lin-family"],
    "recurrence.psi.calls": ["dense-series"],
    "recurrence.b_coeffs.self_s": ["dense-series"],
    "recurrence.max_window": WORKLOADS,
    "combinat.residue.calls": ["two-term"],
    "combinat.residue.self_s": ["two-term"],
    "combinat.residue.nonzero_ratio": ["two-term"],
    "combinat.degree_solutions.calls": ["release-gate", "two-term"],
    "combinat.degree_solutions.solutions": ["release-gate", "two-term"],
    "combinat.degree_solutions.self_s": ["release-gate", "two-term"],
    "field.mul.calls": ["dense-series"],
    "field.mul.self_s": ["dense-series"],
    "field.mul.coeff_ops": ["dense-series"],
    "field.add.calls": ["dense-series"],
    "field.add.self_s": ["dense-series"],
    "field.inverse.calls": ["dense-series"],
    "field.inverse.self_s": ["dense-series"],
    "field.lambda_pow.calls": ["dense-series"],
    "field.lambda_pow.self_s": ["dense-series"],
    "lemma_lab.cases": ["release-gate"],
    "lemma_lab.self_s": ["release-gate"],
    "trace.overhead_ratio": WORKLOADS,
}


@pytest.fixture(scope="module")
def traced_runs():
    reference = load_reference()
    return {w: [bench.traced(w, SEED, reference, count=JOBS) for _ in range(2)] for w in WORKLOADS}


def values(metrics):
    return {k: v["value"] for k, v in metrics.items()}


def test_every_binding_is_wrapped_and_restored():
    mods = [charp] + [getattr(charp, m) for m in MODULES]
    originals = {(m, fn): getattr(getattr(charp, m), fn) for m, fn in FUNCTIONS}
    bound = {key: [mod for mod in mods if any(v is f for v in vars(mod).values())] for key, f in originals.items()}
    assert {m.__name__ for m in bound[("combinat", "multinomial_residue")]} >= {"charp.combinat", "charp.recurrence", "charp.lemma_lab"}
    assert {m.__name__ for m in bound[("recurrence", "b_coeffs")]} >= {"charp.criterion", "charp.cli"}
    tracer = Tracer()
    tracer.install(charp)
    try:
        for key, f in originals.items():
            for mod in mods:
                assert not any(v is f for v in vars(mod).values()), f"{mod.__name__} still binds the bare {key}"
        assert charp.LaurentElement.__mul__.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for key, f in originals.items():
        for mod in bound[key]:
            assert any(v is f for v in vars(mod).values()), f"{key} not restored in {mod.__name__}"


def test_traced_reports_equal_untraced_ones(traced_runs):
    # traced() counts a job as failed when its traced report differs
    for w, runs in traced_runs.items():
        for attempted, failed, _metrics in runs:
            assert (attempted, failed) == (JOBS, 0), w


@pytest.mark.parametrize("metric", sorted(LOADS))
def test_layer_metric_is_loaded(traced_runs, metric):
    for w in LOADS[metric]:
        assert values(traced_runs[w][0][2])[metric] > 0, f"{metric} is zero on {w}"


def test_all_per_layer_metrics_reported(traced_runs):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    for w, runs in traced_runs.items():
        assert set(runs[0][2]) == names, w


def test_counts_repeat_exactly(traced_runs):
    for w, (first, second) in traced_runs.items():
        a, b = values(first[2]), values(second[2])
        exact = [k for k in a if not k.endswith("_s") and k != "trace.overhead_ratio"]
        assert {k: a[k] for k in exact} == {k: b[k] for k in exact}, w


def test_dominant_layers(traced_runs):
    """Each workload's named operations take more self time together than
    any other traced operation alone."""
    claims = {
        "lin-family": {"recurrence.phi.self_s"},
        "two-term": {"combinat.residue.self_s", "recurrence.numerator.self_s"},
        "dense-series": {"field.add.self_s", "field.mul.self_s"},
    }
    for w, named in claims.items():
        v = values(traced_runs[w][0][2])
        ops = {k: x for k, x in v.items() if k.endswith(".self_s") and k not in ("criterion.self_s", "lemma_lab.self_s")}
        others = max(x for k, x in ops.items() if k not in named)
        assert sum(ops[k] for k in named) > others, (w, ops)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lin-family", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
