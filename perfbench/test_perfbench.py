"""Tests of the benchmark itself, on tiny corpora.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3

# What the traced run must show on each workload: the layer split the
# workloads were chosen for.
SPLIT = {
    "gen_solve": lambda m: (m["solver.exhaustive_cat_search.calls"] == 0
                            and m["lab.brute_force_rainbow.calls"] == 0),
    "drisko_flip": lambda m: m["solver.augments_sweep"] > 0,
    "drisko_infeasible": lambda m: m["lab.brute_force_rainbow.calls"] >= 1,
}


def tiny_setup(name):
    workload = workloads.WORKLOADS[name]
    return (workload,) + run.setup(workload, SEED, "tiny")


def measure(workload, mods, corpus, trace, out_dir, setup_s=1.0):
    return run.measure(mods, workload, corpus, SEED, 0, trace, setup_s,
                       scale="tiny", out_dir=out_dir)


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name, tmp_path):
    workload, mods, corpus, setup_s = tiny_setup(name)
    program = run.program_modules()
    result, detail = measure(workload, mods, corpus, 0, tmp_path, setup_s)
    assert result["correct"], detail["problems"]
    # The set-up repeats after each pass leave the passes' program in place.
    assert detail["setup_samples"] == detail["passes"] + 1
    assert run.program_modules() == program
    assert result["failed"] == 0
    assert result["attempted"] == detail["passes"] * len(corpus)
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == \
        list(run.END_TO_END)
    assert all(v > 0 for v in values(result).values())
    again, again_detail = measure(workload, mods, corpus, 0, tmp_path)
    assert again_detail["digest"] == detail["digest"]
    assert values(again)["predicate_calls_per_op"] == \
        values(result)["predicate_calls_per_op"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_agrees_with_untraced(name, tmp_path):
    workload, mods, corpus, _ = tiny_setup(name)
    before = tracing.wrapped_attributes(mods)
    _, plain = measure(workload, mods, corpus, 0, tmp_path)
    result, detail = measure(workload, mods, corpus, 1, tmp_path)
    assert result["correct"], detail["problems"]
    assert detail["traced_digest"] == detail["digest"] == plain["digest"]
    assert detail["layer_predicate_sum"] == (
        detail["untraced_predicate_total"] + detail["other_oracle_calls"])
    assert list(result["metrics"]) == \
        [n for n, _ in run.per_layer_metric_names()]
    assert SPLIT[name](values(result))
    assert tracing.wrapped_attributes(mods) == before
    with open(detail["spans_file"]) as handle:
        assert sum(1 for _ in handle) == detail["spans"] + 1


def test_trace_check_catches_an_unwrapped_species(tmp_path, monkeypatch):
    workload, mods, corpus, _ = tiny_setup("drisko_flip")
    monkeypatch.setattr(tracing, "species_classes", lambda matroids: [])
    result, detail = measure(workload, mods, corpus, 1, tmp_path)
    assert not result["correct"]
    assert any("escaped the wrappers" in p for p in detail["problems"])


def test_wrapper_removed_when_an_op_raises(tmp_path, monkeypatch):
    workload, mods, corpus, _ = tiny_setup("drisko_flip")
    before = tracing.wrapped_attributes(mods)

    def broken(instance):
        raise RuntimeError("boom")

    monkeypatch.setattr(mods.solver, "greedy_seed", broken)
    result, _ = measure(workload, mods, corpus, 1, tmp_path)
    assert result["failed"] == result["attempted"]
    monkeypatch.undo()
    assert tracing.wrapped_attributes(mods) == before


@pytest.mark.parametrize("fault", ["drop_pick", "theorem_violation"])
def test_wrong_answer_counts_as_failed(fault, tmp_path, monkeypatch):
    workload, mods, corpus, _ = tiny_setup("drisko_flip")
    real_solve = mods.solver.solve
    target = corpus[0].data

    def faulty(instance):
        result = real_solve(instance)
        if instance is not target:
            return result
        if fault == "drop_pick":
            result.assignment.choices.popitem()
            return result
        raise mods.solver.TheoremViolationError("injected")

    monkeypatch.setattr(mods.solver, "solve", faulty)
    result, detail = measure(workload, mods, corpus, 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] == detail["passes"]
    assert detail["failed_ratio"] == result["failed"] / result["attempted"]
    assert values(result)["ok_ratio"] == 1 - detail["failed_ratio"]


def test_benchmark_json_matches_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.per_layer_metric_names())


def test_command_prints_result_last(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", "drisko_flip", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
