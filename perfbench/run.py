"""Benchmark of the querying stack: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed under
``end_to_end`` in ``BENCHMARK.json``; ``--trace 1`` runs the workload
once untraced and once under the benchmark's tracer and reports the
``per_layer`` metrics, writing the recorded spans to
``perfbench/out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end metrics, per workload (``workloads.py`` says why each
choice was made):

* ``setup_s`` — interpreter imports plus the median of three set-ups
  (corpus, hasher fit, index build, preload, process pool and first
  shared-memory publication, front-door start); ground truth excluded.
* ``qps`` — completed queries per second of timed wall time; for
  ``churn`` reads only, with the write time in the wall; for ``serve``
  requests served within their lane deadline per second at the
  reference rate (goodput at the top rate is printed as goodput_rps).
* ``latency_p50_ms`` / ``latency_tail_ms`` — ``point``: per query, p99;
  ``batch``: per 256-query block, the mean of the per-budget medians
  and p90; ``churn``: per read, p50 and the median over nine slices of
  the run of each slice's p95; ``serve``: batch lane at the reference
  rate, from due time, the medians over five slices of each slice's
  p50 and p90 (interactive-lane figures are printed).  The
  pooled tail of the highest supported percentile (ten samples beyond
  it) and the sample count are always printed.
* ``recall_at_10`` — against exact kNN (of the live items, for
  ``churn``); for the Zipfian workloads, averaged per distinct query.
* ``ok_frac`` — 1 - (errors + refusals + deadline misses + wrong
  answers) / attempted; for ``serve``, of the reference step.
* ``peak_rss_mb`` — peak RSS of this process plus its worker children.

The run exits non-zero without a result when the program is missing,
when a check of its own soundness fails (unsupported percentile, a
layer the workload names left unexercised, more than 5% of a traced
run's wall time outside every span, a worker process or a
shared-memory segment left behind), or on any crash.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Largest share of a traced run's wall time its spans may leave
#: uncovered; beyond it the layer self times do not explain the run.
MAX_UNCOVERED = 0.05

#: How the layers are expected to interact, recorded with every run.
PREDICTIONS = [
    "point: core.probe_ms is most of the blocking time of budget-2000 "
    "queries, so a probe-strategy change can save at most that share of "
    "latency_tail_ms, and only there",
    "serve: queue wait rises before goodput stops rising, so "
    "latency_tail_ms responds first to a serving-layer change and "
    "max_ok_rps moves only when a rate step is crossed",
    "churn: cache.hit_frac falls as writes invalidate entries; "
    "compaction shows in latency_tail_ms, not in the median",
    "batch: the slowest shard sets each block's time",
]
LAYER_PREDICTIONS = {
    "hashing.encode_ms": "latency_p50_ms on point; qps on batch",
    "core.probe_ms": "latency_tail_ms and qps on point; about 0 elsewhere",
    "core.batch_scores_ms": "qps on batch, max_ok_rps on serve; 0 on point",
    "index.nonempty_frac": "latency_tail_ms on point",
    "index.write_ms": "write_p99_ms on churn",
    "search.execute_self_ms": "latency_p50_ms on point and churn",
    "search.batch_ms": "qps on batch, max_ok_rps on serve",
    "cache.hit_frac": "qps and latency_p50_ms on churn; max_ok_rps on "
                      "serve (0 lookups there today)",
    "parallel.run_ms": "qps and block_p50_ms on batch only",
    "serving.queue_wait_p99_ms": "latency_tail_ms, max_ok_rps, goodput_rps "
                                 "and recall_at_10 on serve only",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="ascii").strip()
        return ref
    except OSError:
        return "unknown"


def run_untraced(workload, seeds, seconds: float) -> tuple:
    from workloads import peak_rss_mb

    import_s = time.perf_counter() - _START
    setups = []
    state = None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
                gc.collect()
            t0 = time.perf_counter()
            state = workload.build(seeds)
            setups.append(time.perf_counter() - t0)
        workload.prepare(state, seeds)
        phase = workload.measure(state, seconds, None, workload.need())
        peak = peak_rss_mb()
        outcomes, problems = workload.check(state, phase, seeds)
    finally:
        if state is not None:
            workload.close(state)
    metrics, extras = workload.metrics(state, phase)
    metrics["setup_s"] = import_s + statistics.median(setups)
    metrics.setdefault("ok_frac", outcomes.ok_frac)
    metrics["peak_rss_mb"] = peak
    extras = [
        ("setup_s", metrics["setup_s"], "s"),
        ("import_s", import_s, "s"),
        ("build_s_median", statistics.median(setups), "s"),
        ("failed_frac", outcomes.failed_frac, "ratio"),
        *extras,
    ]
    return metrics, extras, outcomes, problems


def run_traced(
    workload, seeds, seconds: float, trace_path: Path, meta: dict
) -> tuple:
    from repro import obs
    from tracing import Tracer

    state = workload.build(seeds)
    try:
        workload.prepare(state, seeds)
        base = workload.measure(state, seconds / 2, None, 1)
        tracer = Tracer()
        counters = workload.install(state, tracer)
        try:
            with obs.telemetry_session():
                traced = workload.measure(state, seconds / 2, tracer, 1)
                metrics = workload.layers(state, traced, tracer, counters)
        finally:
            tracer.uninstall()
        outcomes, problems = workload.check(state, traced, seeds)
    finally:
        workload.close(state)
    metrics["bench.trace_overhead_frac"] = (
        workload.overhead_basis(traced) / workload.overhead_basis(base) - 1.0
    )
    if metrics["bench.uncovered_frac"] > MAX_UNCOVERED:
        problems.append(
            f"spans cover too little of the traced run: "
            f"{metrics['bench.uncovered_frac']:.1%} uncovered"
        )
    tracer.write(trace_path, meta)
    extras = [(name, value, "") for name, value in metrics.items()]
    return metrics, extras, outcomes, problems


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Spawned workers and shared memory start it as a helper process of
    this one; left alone it outlives the benchmark by a moment.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import stats
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.Seeds.derive(args.seed)
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": "full" if args.seconds >= spec["run_seconds"] else "smoke",
        "git_sha": git_sha(),
        "available_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "predictions": PREDICTIONS,
        "layer_predictions": LAYER_PREDICTIONS,
    }
    print("meta " + json.dumps(meta))
    if args.trace:
        trace_path = HERE / "out" / f"trace-{workload.name}-{args.seed}.json"
        metrics, extras, outcomes, problems = run_traced(
            workload, seeds, args.seconds, trace_path, meta
        )
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, extras, outcomes, problems = run_untraced(
            workload, seeds, args.seconds
        )
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for name, value, unit in extras:
        print(f"{name} = {value:.6g} {unit or wanted.get(name, '')}".rstrip())
    print(
        f"outcomes attempted={outcomes.attempted} checked={outcomes.checked} "
        + " ".join(f"{k}={v}" for k, v in outcomes.counts.items())
    )

    gc.collect()
    children = multiprocessing.active_children()
    problems += stats.leftovers(children, stats.shm_segments(os.getpid()))
    problems += [
        f"thread still alive: {t.name}" for t in threading.enumerate()
        if t is not threading.main_thread()
    ]
    stop_resource_tracker()
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 3
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
