"""Closed-loop benchmark driver for rainbowmat.

    python3 perfbench/run.py --workload drisko_flip --seed 7 --seconds 20 --trace 0

One client in one thread: each operation starts when the previous one
returns.  A run builds its corpus from the seed, then makes whole passes
over it until --seconds are used, checks every answer and prints, as its
last line, one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1).  The line before it holds
the run's details: digest, pass count, percentile used, ratio bases.

The package is imported from ``src/`` next to this directory; without it
the driver exits with code 2 and prints no result.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import logging
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("matroids", "solver", "lab", "fileio")
PERCENTILES = (50, 90, 99, 99.9)
TAIL_BEYOND = 10

END_TO_END = (
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("predicate_calls_per_op", "calls/op"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
RATIOS = (
    ("solver.sweep_round.augment_ratio", "ratio"),
    ("solver.sweep_round.stall_ratio", "ratio"),
    ("solver.sweep_rounds_per_augment", "ratio"),
    ("solver.validate_trail.accept_ratio", "ratio"),
    ("solver.exhaustive_cat_search.hit_ratio", "ratio"),
    ("lab.brute_force_rainbow.hit_ratio", "ratio"),
    ("solver.augments_sweep", "count/op"),
    ("solver.augments_cat", "count/op"),
    ("solver.brute_force_used", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)


def per_layer_metric_names():
    out = []
    for layer in tracing.LAYERS:
        out += [(f"{layer}.calls", "calls/op"), (f"{layer}.self_s", "s/op"),
                (f"{layer}.predicate_calls", "calls/op")]
        if layer == tracing.PREDICATE:
            out.append((f"{layer}.us_per_call", "us"))
    return tuple(out) + RATIOS


class ProgramMissing(RuntimeError):
    """The checkout has no importable rainbowmat under src/."""


def program_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "rainbowmat" or name.startswith("rainbowmat.")}


def load_program():
    """Import (or import afresh) the four program modules from src/."""
    if not (SRC / "rainbowmat" / "__init__.py").is_file():
        raise ProgramMissing(f"no rainbowmat package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in program_modules():
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"rainbowmat.{m}")
                              for m in MODULES})
    if SRC not in Path(mods.solver.__file__).resolve().parents:
        raise ProgramMissing(f"rainbowmat was imported from outside {SRC}")
    return mods


def setup(workload, seed, scale="full"):
    """Import plus corpus construction; returns the program, the corpus
    and the set-up time."""
    start = time.perf_counter()
    mods = load_program()
    corpus = workload.build(mods, seed, scale)
    seconds = time.perf_counter() - start
    # The solver warns on every fallback; keep that I/O out of the timing.
    logging.getLogger("rainbowmat").setLevel(logging.ERROR)
    return mods, corpus, seconds


def setup_again(workload, seed, scale):
    """Time one more set-up, then put back the modules the passes use."""
    saved = program_modules()
    try:
        return setup(workload, seed, scale)[2]
    finally:
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def run_pass(mods, workload, corpus, tracer=None):
    """One closed-loop pass over the corpus."""
    rec = SimpleNamespace(latency=[], calls=[], canon=[], failed=0,
                          stats=[], errors=[], trace_counts=[])
    for op_id, op in enumerate(corpus):
        if tracer is not None:
            tracer.begin(op_id)
        outcome = error = None
        start = time.perf_counter()
        try:
            outcome = workload.run(mods, op)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        rec.latency.append(time.perf_counter() - start)
        if tracer is not None:
            rec.trace_counts.append(
                tracer.end(outcome.oracles if outcome else ()))
        # The answer check runs after the op's clock and call count stop.
        if outcome is not None:
            try:
                workload.check(op, outcome)
            except Exception as exc:
                error = exc
        if error is not None:
            rec.failed += 1
            rec.errors.append(f"op {op_id} {op.label}: "
                              f"{type(error).__name__}: {error}")
            rec.canon.append(["error", type(error).__name__])
        else:
            rec.canon.append(workloads.canonical(outcome.result))
        rec.calls.append(outcome.predicate_calls if outcome else 0)
        if outcome is not None:
            stats = outcome.result.stats
            rec.stats.append((stats.fast_path_augments,
                              stats.cat_search_augments,
                              stats.brute_force_used))
    rec.digest = hashlib.sha256(
        json.dumps(rec.canon).encode()).hexdigest()
    return rec


def run_passes(mods, workload, corpus, seconds, tracer=None, between=None):
    """Whole passes until another one would overrun ``seconds``; at least
    one.  ``between`` is called after each pass."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(mods, workload, corpus, tracer))
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(count):
    """Highest percentile of PERCENTILES with at least TAIL_BEYOND ops
    beyond it."""
    fits = [p for p in PERCENTILES if count * (100 - p) / 100 >= TAIL_BEYOND]
    return fits[-1] if fits else PERCENTILES[0]


def consistency(passes):
    """Errors for passes that disagree on answers or predicate calls."""
    first = passes[0]
    return [f"pass {i} differs from pass 0 in its {what}"
            for i, p in enumerate(passes[1:], 1)
            for what, same in (("digest", p.digest == first.digest),
                               ("predicate calls", p.calls == first.calls))
            if not same]


def summary(passes, corpus):
    """Shared bookkeeping of a list of passes."""
    attempted = len(passes) * len(corpus)
    failed = sum(p.failed for p in passes)
    problems = consistency(passes) + [e for p in passes for e in p.errors]
    return attempted, failed, problems


def end_to_end(passes, corpus, setup_s):
    attempted, failed, problems = summary(passes, corpus)
    # Each op is timed at its fastest pass: the ops are deterministic, and
    # other tenants of the machine only ever add time.  Percentiles are
    # then taken over the corpus, so the sample count is the corpus size.
    per_op = sorted(min(p.latency[i] for p in passes)
                    for i in range(len(corpus)))
    tail = tail_percentile(len(per_op))
    values = {
        "throughput_ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": 1e3 * statistics.median(per_op),
        "latency_tail_ms": 1e3 * nearest_rank(per_op, tail),
        "predicate_calls_per_op": sum(passes[0].calls) / len(corpus),
        "ok_ratio": 1 - failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    detail = {
        "passes": len(passes),
        "digest": passes[0].digest,
        "latency_tail_percentile": tail,
        "latency_samples": len(per_op),
        "failed_ratio": failed / attempted,
        "predicate_calls_per_pass": sum(passes[0].calls),
    }
    return values, attempted, failed, problems, detail


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(setup_snap, end_snap, traced, corpus, overhead):
    """Per corpus op: the traced set-up's share plus one traced pass."""
    n_passes, size = len(traced), len(corpus)
    values, bases = {}, {}

    def per_op(kind, name):
        before = setup_snap[kind].get(name, 0)
        return (before + (end_snap[kind].get(name, 0) - before) / n_passes) / size

    for layer in tracing.LAYERS:
        values[f"{layer}.calls"] = per_op("calls", layer)
        values[f"{layer}.self_s"] = per_op("self_s", layer)
        values[f"{layer}.predicate_calls"] = per_op("predicate_calls", layer)
    values[f"{tracing.PREDICATE}.us_per_call"] = 1e6 * _ratio(
        end_snap["self_s"].get(tracing.PREDICATE, 0.0),
        end_snap["calls"][tracing.PREDICATE])

    calls = end_snap["calls"]
    stats = [s for p in traced for s in p.stats]
    augments = sum(s[0] for s in stats)

    def share(layer, label):
        return end_snap["outcomes"].get(layer, {}).get(label, 0), calls[layer]

    for name, (num, den) in {
            "solver.sweep_round.augment_ratio":
                share("solver.sweep_round", "Augment"),
            "solver.sweep_round.stall_ratio":
                share("solver.sweep_round", "Stalled"),
            "solver.sweep_rounds_per_augment":
                (calls["solver.sweep_round"] + calls["solver.close_round"],
                 augments),
            "solver.validate_trail.accept_ratio":
                share("solver.validate_trail", "accept"),
            "solver.exhaustive_cat_search.hit_ratio":
                share("solver.exhaustive_cat_search", "hit"),
            "lab.brute_force_rainbow.hit_ratio":
                share("lab.brute_force_rainbow", "hit")}.items():
        values[name] = _ratio(num, den)
        bases[name] = [num, den]
    values["solver.augments_sweep"] = _ratio(augments, len(stats))
    values["solver.augments_cat"] = _ratio(sum(s[1] for s in stats),
                                           len(stats))
    values["solver.brute_force_used"] = _ratio(sum(s[2] for s in stats),
                                               len(stats))
    values["trace_overhead_ratio"] = overhead
    return values, bases


def trace_check(untraced, traced, setup_snap, end_snap):
    """Problems unless the trace saw exactly the predicate calls the
    untraced run counted, op by op and in total.  (That traced and untraced
    passes agree on digest and per-op calls is checked with all passes.)"""
    problems = []
    expected = untraced[0].calls
    for i, p in enumerate(traced):
        for op_id, (seen, counted, other) in enumerate(p.trace_counts):
            if seen != counted:
                problems.append(f"traced pass {i} op {op_id}: wrappers saw "
                                f"{seen} predicate calls, oracles counted "
                                f"{counted}")
            if seen != p.calls[op_id] + other:
                problems.append(f"traced pass {i} op {op_id}: instance "
                                "oracle calls escaped the wrappers")
    layer_sum = (sum(end_snap["predicate_calls"].values())
                 - sum(setup_snap["predicate_calls"].values()))
    other = sum(c[2] for p in traced for c in p.trace_counts)
    want = len(traced) * sum(expected) + other
    if layer_sum != want:
        problems.append(f"self predicate calls over all layers sum to "
                        f"{layer_sum}, untraced total plus other-oracle "
                        f"calls is {want}")
    return problems, {"layer_predicate_sum": layer_sum,
                      "untraced_predicate_total": len(traced) * sum(expected),
                      "other_oracle_calls": other}


def traced_run(mods, workload, corpus, seed, seconds, scale, out_dir):
    """Untraced passes for half the time, then a traced set-up and traced
    passes for the other half."""
    untraced = run_passes(mods, workload, corpus, seconds / 2)
    before = tracing.wrapped_attributes(mods)
    tracer = tracing.Tracer()
    with tracer.installed(mods):
        tracer.begin(-1, root="bench.setup")
        traced_corpus = workload.build(mods, seed, scale)
        tracer.end(())
        setup_snap = tracer.snapshot()
        traced = run_passes(mods, workload, traced_corpus, seconds / 2, tracer)
        end_snap = tracer.snapshot()
    attempted, failed, problems = summary(untraced + traced, corpus)
    if tracing.wrapped_attributes(mods) != before:
        problems.append("a trace wrapper is still installed")
    checks, sums = trace_check(untraced, traced, setup_snap, end_snap)
    problems += checks

    def throughput(passes):
        return statistics.median(len(corpus) / sum(p.latency) for p in passes)

    overhead = throughput(untraced) / throughput(traced)
    values, bases = per_layer(setup_snap, end_snap, traced, corpus, overhead)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    detail = {"untraced_passes": len(untraced), "traced_passes": len(traced),
              "digest": untraced[0].digest,
              "traced_digest": traced[0].digest,
              "ratio_bases": bases, "spans": len(tracer.spans),
              "spans_file": str(spans_path), **sums}
    return values, attempted, failed, problems, detail


def measure(mods, workload, corpus, seed, seconds, trace, setup_s=0.0,
            scale="full", out_dir=OUT_DIR):
    """Run one benchmark run on a loaded program; returns (result, detail)
    where ``result`` is the object printed as the last line."""
    if trace:
        values, attempted, failed, problems, detail = traced_run(
            mods, workload, corpus, seed, seconds, scale, out_dir)
        names = per_layer_metric_names()
    else:
        # Set-up is timed again after every pass, so that its median, like
        # the op times, samples the whole run and not only its first moment.
        setup_times = [setup_s]
        passes = run_passes(mods, workload, corpus, seconds, between=lambda:
                            setup_times.append(setup_again(workload, seed,
                                                           scale)))
        values, attempted, failed, problems, detail = end_to_end(
            passes, corpus, statistics.median(setup_times))
        detail["setup_samples"] = len(setup_times)
        names = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }
    detail = {"workload": workload.name, "seed": seed,
              "corpus_ops": len(corpus), "problems": problems[:20], **detail}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        mods, corpus, setup_s = setup(workload, args.seed)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, detail = measure(mods, workload, corpus, args.seed, args.seconds,
                             args.trace, setup_s)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
