"""The four workloads of the querying-stack benchmark.

Every workload draws its corpus from ``gaussian_mixture(60_000, 64,
n_clusters=60)`` and its queries from ``sample_queries`` /
``zipfian_stream``, all seeded from the run's ``--seed``; the program
sees only the generated arrays.  Each workload has the same parts:

* ``build`` — the timed set-up, from nothing to ready for the first
  timed request (the runner repeats it and reports the median);
* ``prepare`` — untimed inputs (query pools, id bookkeeping);
* ``install`` — wrap the calls into each layer for a traced phase;
* ``measure`` — the timed phase, traced or not;
* ``check`` — failure accounting, and a seeded sample of answers
  compared bit-for-bit (ids and distances) with a direct cache-free
  ``search`` under the plan that produced them;
* ``metrics`` — the end-to-end metrics of an untraced phase;
* ``layers`` — the per-layer metrics of a traced phase.

Costs and spreads quoted in comments were measured on a shared 2-core
x86_64 virtual machine (Python 3.11, numpy 2.4, OpenBLAS).
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

import numpy as np
from stats import (
    Outcomes,
    backlog_growing,
    min_samples_for,
    open_loop_latencies,
    percentile,
    percentile_supported,
    ratio,
    recall_at_k,
    shm_segments,
    timing_summary,
    vm_hwm_mb,
    windowed_percentile,
)
from tracing import TimedLoop, Tracer, timed_task_factory

from repro import obs
from repro.core import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.data.workloads import zipfian_stream
from repro.hashing import ITQ
from repro.search import DynamicHashIndex, HashIndex
from repro.search.cache import QueryResultCache
from repro.search.parallel import ParallelBatchExecutor
from repro.serving import AsyncFrontDoor, default_config
from repro.serving.core import STATUS_SERVED_DEGRADED

N_ITEMS = 60_000
DIM = 64
N_CLUSTERS = 60
K = 10
#: Answers per run compared bit-for-bit with a direct search.
CHECK_SAMPLE = 64
#: Ceiling on a closed loop that runs past ``--seconds`` to reach the
#: sample count its tail percentile needs.
MAX_STRETCH = 3.0

#: Rejection reasons the serve workload can produce: it sends only
#: valid queries and drains before closing the front door.
SERVE_REJECT_REASONS = (
    "queue_full", "shed", "deadline_expired", "deadline_infeasible",
)


#: Seed of the corpus and the hasher, the same in every run.  Runs differ
#: in their queries, traffic and write order, which come from ``--seed``:
#: a corpus drawn per seed moved per-query cost at m=18 by ~10% between
#: seeds, more than the spread of the queries themselves.
CORPUS_SEED = 0


@dataclass
class Seeds:
    corpus: int
    hasher: int
    queries: int
    stream: int
    check: int

    @classmethod
    def derive(cls, seed: int) -> Seeds:
        corpus, hasher = np.random.SeedSequence(CORPUS_SEED).generate_state(2)
        queries, stream, check = np.random.SeedSequence(seed).generate_state(3)
        return cls(*(int(v) for v in (corpus, hasher, queries, stream, check)))


@dataclass
class Phase:
    """What one timed phase produced."""

    wall: float
    cpu: float
    requests: int
    data: dict[str, Any] = field(default_factory=dict)


def corpus(seeds: Seeds) -> np.ndarray:
    return gaussian_mixture(
        N_ITEMS, DIM, n_clusters=N_CLUSTERS, seed=seeds.corpus
    )


def exact_knn(data: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact top-``K`` ids (unordered) of each query, in small blocks."""
    norms = np.einsum("ij,ij->i", data, data)
    out = np.empty((len(queries), K), dtype=np.int64)
    for lo in range(0, len(queries), 64):
        dists = norms[np.newaxis, :] - 2.0 * queries[lo : lo + 64] @ data.T
        out[lo : lo + 64] = np.argpartition(dists, K - 1, axis=1)[:, :K]
    return out


def per_query_mean(recalls: Any) -> float:
    """Mean over distinct queries of each query's mean recall.

    Zipfian traffic would otherwise let the few most popular queries
    decide the figure (one poor head query moved it by 0.09).
    """
    by_query: dict[int, list[float]] = {}
    for query, recall in recalls:
        by_query.setdefault(query, []).append(recall)
    return statistics.fmean(statistics.fmean(v) for v in by_query.values())


def same_answer(answer: Any, reference: Any) -> bool:
    return np.array_equal(answer.ids, reference.ids) and np.array_equal(
        answer.distances, reference.distances
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live worker child."""
    children = multiprocessing.active_children()
    return vm_hwm_mb() + sum(vm_hwm_mb(child.pid) for child in children)


def closed_loop_done(
    start: float, now: float, seconds: float, n: int, need: int
) -> bool:
    """Stop after ``seconds`` once ``need`` samples exist (or at the cap)."""
    elapsed = now - start
    return (elapsed >= seconds and n >= need) or elapsed >= seconds * MAX_STRETCH


def check_sample(
    outcomes: Outcomes, n_answers: int, seed: int
) -> np.ndarray:
    """Seeded positions of the answers to compare with a direct search."""
    picks = np.random.default_rng(seed).choice(
        n_answers, min(CHECK_SAMPLE, n_answers), replace=False
    )
    outcomes.checked += len(picks)
    return picks


# -- tracing helpers -------------------------------------------------------

def trace_query_path(
    tracer: Tracer, state: Any, table: Any, counters: dict[str, int]
) -> None:
    """Wrap the per-query path: encode, probe pulls, fetches, evaluate."""

    def count_fetch(_args: tuple, ids: Any) -> None:
        if len(ids):
            counters["nonempty"] += 1

    index = state.index
    tracer.wrap(index, "search", "search.search", "search")
    tracer.wrap(index.engine, "execute", "search.execute", "search")
    tracer.wrap(
        index.engine.evaluator, "evaluate", "search.evaluate", "search",
        record=False,
    )
    tracer.wrap(
        state.hasher, "probe_info", "hashing.encode", "hashing", record=False
    )
    tracer.wrap_pulls(state.prober, "probe", "core.probe", "core")
    tracer.wrap(
        table, "get", "index.fetch", "index", record=False, on_call=count_fetch
    )


def trace_batch_path(tracer: Tracer, state: Any) -> None:
    """Wrap the batched path: batch encode, batch scoring, the kernels."""
    index = state.index
    tracer.wrap(index, "search_batch", "search.search_batch", "search")
    for attr in ("execute_batch_ordered", "execute_batch_streams"):
        tracer.wrap(index.engine, attr, "search.batch", "search")
    tracer.wrap(
        state.hasher, "probe_info_batch", "hashing.encode_batch", "hashing"
    )
    tracer.wrap(state.prober, "batch_scores", "core.batch_scores", "core")


def trace_cache(tracer: Tracer, cache: QueryResultCache) -> None:
    for attr in ("key_for", "lookup", "store"):
        tracer.wrap(cache, attr, f"cache.{attr}", "cache")


ENCODE_OPS = ("hashing.encode", "hashing.encode_batch", "hashing.encode_items")
EXECUTE_CHILDREN = (
    "core.probe", "index.fetch", "search.evaluate",
    "cache.key_for", "cache.lookup", "cache.store",
)
SELF_LAYERS = (
    "hashing", "core", "index", "search", "cache", "parallel", "serving",
    "bench", "trace", "loop",
)
SERVING_LAYER_METRICS = (
    "serving.queue_wait_p99_ms",
    "serving.batch_size_mean",
    "serving.exec_busy_frac",
    "serving.core_ms",
    "serving.degraded_frac",
    *(f"serving.rejected_frac.{reason}" for reason in SERVE_REJECT_REASONS),
    "serving.deadline_miss_frac",
)


def base_layers(
    tracer: Tracer, phase: Phase, counters: dict[str, int]
) -> dict[str, float]:
    """Per-layer metrics every workload reports (0 where a layer is unused).

    Times and counts are per request of the traced phase, so a faster
    program does not read as more work; ``<layer>.self_frac`` is the
    layer's self time over the phase's wall time.
    """
    n = max(phase.requests, 1)

    def ms(*ops: str) -> float:
        return sum(tracer.op_seconds(op) for op in ops) * 1e3 / n

    def per(*ops: str) -> float:
        return sum(tracer.op_calls(op) for op in ops) / n

    probes = tracer.op_calls("core.probe")
    execute = tracer.op_seconds("search.execute")
    children = sum(tracer.op_seconds(op) for op in EXECUTE_CHILDREN)
    out = {
        "hashing.encode_ms": ms(*ENCODE_OPS),
        "hashing.calls": per(*ENCODE_OPS),
        "core.probe_ms": ms("core.probe"),
        "core.probes_generated": probes / n,
        "core.batch_scores_ms": ms("core.batch_scores"),
        "index.fetches": per("index.fetch"),
        "index.fetch_ms": ms("index.fetch"),
        "index.nonempty_frac": ratio(counters.get("nonempty", 0), probes),
        "index.writes": per("index.add", "index.remove"),
        "index.write_ms": ms("index.add", "index.remove"),
        "search.execute_self_ms": (execute - children) * 1e3 / n
        if execute else 0.0,
        "search.evaluate_ms": ms("search.evaluate"),
        "search.candidates_per_query": ratio(
            counters.get("candidates", 0), counters.get("answers", 0)
        ),
        "search.batch_ms": ms("search.batch"),
        "cache.lookups": per("cache.lookup"),
        "cache.hit_frac": ratio(
            counters.get("hits", 0), tracer.op_calls("cache.lookup")
        ),
        "cache.evictions": counters.get("evictions", 0) / n,
        "cache.lookup_ms": ms("cache.lookup"),
        "parallel.run_ms": ms("parallel.run"),
        "parallel.shards": 0.0,
        "parallel.process_frac": 0.0,
    }
    out.update(dict.fromkeys(SERVING_LAYER_METRICS, 0.0))
    layers = tracer.layer_seconds()
    for layer in SELF_LAYERS:
        out[f"{layer}.self_frac"] = ratio(layers.get(layer, 0.0), phase.wall)
    main = tracer.main_state()
    covered = sum(main.layer_self.values())
    out["bench.idle_frac"] = ratio(main.layer_self.get("idle", 0.0), phase.wall)
    out["bench.uncovered_frac"] = ratio(phase.wall - covered, phase.wall)
    out["bench.generator_lag_p99_ms"] = 0.0
    return out


class Workload:
    name = ""
    why = ""
    #: The tail percentile this workload's sample supports.
    tail = 99.0

    def build(self, seeds: Seeds) -> Any:
        raise NotImplementedError

    def close(self, state: Any) -> None:
        close = getattr(state.index, "close", None)
        if close is not None:
            close()

    def prepare(self, state: Any, seeds: Seeds) -> None:
        raise NotImplementedError

    def install(self, state: Any, tracer: Tracer) -> dict[str, int]:
        raise NotImplementedError

    def measure(
        self, state: Any, seconds: float, tracer: Tracer | None, need: int
    ) -> Phase:
        raise NotImplementedError

    def check(
        self, state: Any, phase: Phase, seeds: Seeds
    ) -> tuple[Outcomes, list[str]]:
        raise NotImplementedError

    def metrics(
        self, state: Any, phase: Phase
    ) -> tuple[dict[str, float], list[tuple[str, float, str]]]:
        raise NotImplementedError

    def layers(
        self, state: Any, phase: Phase, tracer: Tracer, counters: dict[str, int]
    ) -> dict[str, float]:
        raise NotImplementedError

    def overhead_basis(self, phase: Phase) -> float:
        """Cost per request compared between untraced and traced phases."""
        return phase.wall / max(phase.requests, 1)

    def need(self) -> int:
        """Samples the tail percentile needs."""
        return min_samples_for(self.tail)


# -- point --------------------------------------------------------------

class Point(Workload):
    name = "point"
    why = (
        "one client, distinct queries, per-query search at m=18: lazy "
        "probing and bucket fetch do the work; the batch kernel, executor, "
        "cache and serving layers are bypassed"
    )
    #: m=18, not 20: at m=20 a budget-2000 query costs ~200 ms, a 20-s
    #: run sees ~100 of them, and their tail and throughput spread over
    #: ten seeds by 0.22 and 0.12.  At m=18 they still cost ~60x a
    #: budget-200 query (the lazy walk of empty buckets) and a run sees
    #: ~400 of them.
    CODE = 18
    POOL = 16384
    SLOW_EVERY = 10

    def budget(self, i: int) -> int:
        """10% of queries (every tenth) at budget 2000, the rest at 200."""
        return 2000 if i % self.SLOW_EVERY == self.SLOW_EVERY - 1 else 200

    def build(self, seeds: Seeds) -> Any:
        data = corpus(seeds)
        hasher = ITQ(self.CODE, seed=seeds.hasher)
        prober = GQR()
        index = HashIndex(hasher, data, prober=prober)
        return SimpleNamespace(
            data=data, hasher=hasher, prober=prober, index=index
        )

    def prepare(self, state: Any, seeds: Seeds) -> None:
        state.queries = sample_queries(
            state.data, self.POOL, seed=seeds.queries
        )
        state.cursor = 0

    def install(self, state: Any, tracer: Tracer) -> dict[str, int]:
        counters = {"nonempty": 0}
        trace_query_path(tracer, state, state.index.tables[0], counters)
        return counters

    def measure(
        self, state: Any, seconds: float, tracer: Tracer | None, need: int
    ) -> Phase:
        clock = time.perf_counter
        latencies: list[float] = []
        answers: list[tuple[int, int, Any]] = []
        errors: list[str] = []
        cpu0 = time.process_time()
        start = now = clock()
        while not closed_loop_done(start, now, seconds, len(latencies), need):
            i = state.cursor
            if i >= len(state.queries):
                raise RuntimeError("point query pool exhausted; enlarge POOL")
            state.cursor += 1
            budget = self.budget(i)
            t0 = clock()
            try:
                result = state.index.search(
                    state.queries[i], K, n_candidates=budget
                )
            except Exception as error:  # reprolint: disable=RL005 -- counted as an error outcome; the loop keeps running
                errors.append(repr(error))
                now = clock()
                continue
            now = clock()
            latencies.append(now - t0)
            answers.append((i, budget, result))
        return Phase(
            now - start, time.process_time() - cpu0,
            len(latencies) + len(errors),
            {"latencies": latencies, "answers": answers, "errors": errors},
        )

    def check(self, state, phase, seeds):
        answers = phase.data["answers"]
        outcomes = Outcomes()
        outcomes.attempted = phase.requests
        outcomes.add("errors", len(phase.data["errors"]))
        for pick in check_sample(outcomes, len(answers), seeds.check):
            i, budget, answer = answers[pick]
            reference = state.index.search(
                state.queries[i], K, n_candidates=budget
            )
            if not same_answer(answer, reference):
                outcomes.add("wrong")
        return outcomes, []

    def metrics(self, state, phase):
        answers = phase.data["answers"]
        used = sorted({i for i, _, _ in answers})
        truth = dict(zip(used, exact_knn(state.data, state.queries[used])))
        timing = timing_summary(phase.data["latencies"], self.tail)
        metrics = {
            "qps": len(answers) / phase.wall,
            "latency_p50_ms": timing["p50_ms"],
            "latency_tail_ms": timing["tail_ms"],
            "recall_at_10": statistics.fmean(
                recall_at_k(r.ids, truth[i], K) for i, _, r in answers
            ),
        }
        extras = [
            ("latency_p50_ms", timing["p50_ms"], "ms"),
            (f"latency_p{self.tail:g}_ms", timing["tail_ms"], "ms"),
            ("latency_samples", timing["n"], "count"),
        ]
        return metrics, extras

    def layers(self, state, phase, tracer, counters):
        answers = phase.data["answers"]
        counters["answers"] = len(answers)
        counters["candidates"] = sum(r.n_candidates for _, _, r in answers)
        return base_layers(tracer, phase, counters)


# -- batch --------------------------------------------------------------

class Batch(Workload):
    name = "batch"
    why = (
        "offline blocks of 256 through search_batch on two process "
        "workers: batch scoring, the ordered kernel and shared memory do "
        "the work; lazy probing, the cache and serving are bypassed"
    )
    #: ~150 blocks per run support p90, not p99.
    tail = 90.0
    CODE = 16
    POOL = 2048
    BLOCK = 256
    BUDGETS = (500, 2000)
    WORKERS = 2

    def build(self, seeds: Seeds) -> Any:
        data = corpus(seeds)
        hasher = ITQ(self.CODE, seed=seeds.hasher)
        prober = GQR()
        executor = ParallelBatchExecutor(n_workers=self.WORKERS, mode="process")
        index = HashIndex(hasher, data, prober=prober, parallel=executor)
        try:
            # Spawns the pool and publishes the shared-memory segments.
            warm = sample_queries(data, self.BLOCK, seed=seeds.stream)
            index.search_batch(warm, K, self.BUDGETS[0])
        except BaseException:
            index.close()
            raise
        return SimpleNamespace(
            data=data, hasher=hasher, prober=prober, index=index,
            executor=executor,
        )

    def prepare(self, state: Any, seeds: Seeds) -> None:
        state.queries = sample_queries(
            state.data, self.POOL, seed=seeds.queries
        )
        state.block = 0
        state.workers_seen = len(multiprocessing.active_children())
        state.segments_seen = len(shm_segments(os.getpid()))

    def install(self, state: Any, tracer: Tracer) -> dict[str, int]:
        trace_batch_path(tracer, state)
        for attr in ("run_ordered", "run_streams"):
            tracer.wrap(state.executor, attr, "parallel.run", "parallel")
        return {}

    def measure(
        self, state: Any, seconds: float, tracer: Tracer | None, need: int
    ) -> Phase:
        n_blocks = len(state.queries) // self.BLOCK
        clock = time.perf_counter
        latencies: list[float] = []
        answers: list[tuple[int, int, list]] = []
        errors: list[str] = []
        cpu0 = time.process_time()
        start = now = clock()
        while not closed_loop_done(start, now, seconds, len(latencies), need):
            b = state.block
            state.block += 1
            lo = (b % n_blocks) * self.BLOCK
            budget = self.BUDGETS[b % len(self.BUDGETS)]
            t0 = clock()
            try:
                results = state.index.search_batch(
                    state.queries[lo : lo + self.BLOCK], K, budget
                )
            except Exception as error:  # reprolint: disable=RL005 -- counted as an error outcome; the loop keeps running
                errors.append(repr(error))
                now = clock()
                continue
            now = clock()
            latencies.append(now - t0)
            answers.append((lo, budget, results))
        return Phase(
            now - start, time.process_time() - cpu0,
            self.BLOCK * (len(latencies) + len(errors)),
            {"latencies": latencies, "answers": answers, "errors": errors},
        )

    def check(self, state, phase, seeds):
        answers = phase.data["answers"]
        outcomes = Outcomes()
        outcomes.attempted = phase.requests
        outcomes.add("errors", self.BLOCK * len(phase.data["errors"]))
        for pick in check_sample(
            outcomes, len(answers) * self.BLOCK, seeds.check
        ):
            lo, budget, results = answers[pick // self.BLOCK]
            row = pick % self.BLOCK
            reference = state.index.search(
                state.queries[lo + row], K, n_candidates=budget
            )
            if not same_answer(results[row], reference):
                outcomes.add("wrong")
        problems = []
        if state.workers_seen < self.WORKERS or state.segments_seen < 1:
            problems.append(
                f"process mode not engaged: {state.workers_seen} workers, "
                f"{state.segments_seen} shared-memory segments"
            )
        return outcomes, problems

    def metrics(self, state, phase):
        answers = phase.data["answers"]
        truth = exact_knn(state.data, state.queries)
        latencies = phase.data["latencies"]
        timing = timing_summary(latencies, self.tail)
        # Block times are bimodal (the budgets alternate), so the median of
        # all blocks falls in the gap between the modes; the mean of the
        # two per-budget medians is the well-conditioned centre.
        medians = {
            budget: statistics.median(
                t for t, (_, b, _) in zip(latencies, answers) if b == budget
            ) * 1e3
            for budget in self.BUDGETS
        }
        metrics = {
            "qps": self.BLOCK * len(answers) / phase.wall,
            "latency_p50_ms": statistics.fmean(medians.values()),
            "latency_tail_ms": timing["tail_ms"],
            "recall_at_10": statistics.fmean(
                recall_at_k(r.ids, truth[lo + row], K)
                for lo, _, results in answers
                for row, r in enumerate(results)
            ),
        }
        extras = [
            ("block_p50_ms", timing["p50_ms"], "ms"),
            *((f"block_p50_ms_at_{b}", m, "ms") for b, m in medians.items()),
            (f"block_p{self.tail:g}_ms", timing["tail_ms"], "ms"),
            ("block_samples", timing["n"], "count"),
        ]
        return metrics, extras

    def layers(self, state, phase, tracer, counters):
        answers = phase.data["answers"]
        counters["answers"] = sum(len(results) for _, _, results in answers)
        counters["candidates"] = sum(
            r.n_candidates for _, _, results in answers for r in results
        )
        out = base_layers(tracer, phase, counters)
        shards = {"process": 0.0, "thread": 0.0}
        registry = obs.get_registry()
        family = registry.get("repro_parallel_shards_total") if registry else None
        if family is not None:
            for labels, child in family.samples():
                if labels.get("mode") in shards:
                    shards[labels["mode"]] += child.value
        total = shards["process"] + shards["thread"]
        out["parallel.shards"] = total / max(phase.requests, 1)
        out["parallel.process_frac"] = ratio(shards["process"], total)
        return out


# -- churn --------------------------------------------------------------

class Churn(Workload):
    name = "churn"
    why = (
        "one client, Zipfian reads over a working set twice the cache, "
        "and an add-16/remove-16 write after every 10 reads: the only "
        "workload on the dynamic-table write path"
    )
    CODE = 16
    FIT_SAMPLE = 20_000
    PRELOAD = 50_000
    DISTINCT = 2048
    CACHE = 1024
    BUDGET = 500
    READS_PER_WRITE = 10
    WRITE_SIZE = 16
    #: Every Nth read is compared with a cache-free search at the same
    #: index generation and scored against exact kNN of the live items;
    #: the check is paused out of the timed wall time.
    CHECK_EVERY = 16
    STREAM = 400_000
    #: The gated read tail is the median of the p95s of this many
    #: consecutive slices of the run.  The pooled p99 of a sub-ms read
    #: moves with any few-ms stall of the machine (spread 0.57 over five
    #: seeds; 0.25 windowed over ten); it is printed, not gated.
    tail = 95.0
    PRINTED_TAIL = 99.0
    TAIL_WINDOWS = 9

    def need(self) -> int:
        return max(
            self.TAIL_WINDOWS * min_samples_for(self.tail),
            min_samples_for(self.PRINTED_TAIL),
            # write_p99_ms: one write per READS_PER_WRITE reads.
            self.READS_PER_WRITE * min_samples_for(99.0),
        )

    def build(self, seeds: Seeds) -> Any:
        data = corpus(seeds)
        rng = np.random.default_rng(seeds.hasher)
        sample = data[rng.choice(len(data), self.FIT_SAMPLE, replace=False)]
        hasher = ITQ(self.CODE, seed=seeds.hasher).fit(sample)
        prober = GQR()
        cache = QueryResultCache(capacity=self.CACHE)
        index = DynamicHashIndex(hasher, DIM, prober=prober, cache=cache)
        ids = index.add(data[: self.PRELOAD])
        return SimpleNamespace(
            data=data, hasher=hasher, prober=prober, cache=cache, index=index,
            preload_ids=ids,
        )

    def prepare(self, state: Any, seeds: Seeds) -> None:
        state.queries = sample_queries(
            state.data, self.DISTINCT, seed=seeds.queries
        )
        state.stream = zipfian_stream(
            self.DISTINCT, self.STREAM, seed=seeds.stream
        )
        state.cursor = 0
        state.n_reads = 0
        state.norms = np.einsum("ij,ij->i", state.data, state.data)
        state.live_rows = np.zeros(N_ITEMS, dtype=bool)
        state.live_rows[: self.PRELOAD] = True
        state.id_of_row = np.full(N_ITEMS, -1, dtype=np.int64)
        state.id_of_row[: self.PRELOAD] = state.preload_ids
        # Live items oldest first, in write-sized groups, and the corpus
        # rows free to be added next.
        state.live = deque(
            (state.preload_ids[lo : lo + self.WRITE_SIZE],
             np.arange(lo, lo + self.WRITE_SIZE))
            for lo in range(0, self.PRELOAD, self.WRITE_SIZE)
        )
        state.supply = deque(range(self.PRELOAD, N_ITEMS))

    def install(self, state: Any, tracer: Tracer) -> dict[str, int]:
        counters = {"nonempty": 0}
        index = state.index
        trace_query_path(tracer, state, index.table, counters)
        tracer.wrap(state.hasher, "encode", "hashing.encode_items", "hashing")
        tracer.wrap(index, "add", "search.add", "search")
        tracer.wrap(index, "remove", "search.remove", "search")
        for attr in ("add", "remove"):
            tracer.wrap(index.table, attr, f"index.{attr}", "index", record=False)
        trace_cache(tracer, state.cache)
        return counters

    def write(self, state: Any) -> None:
        """Add the next 16 rows, then remove the 16 oldest live items."""
        rows = np.array(
            [state.supply.popleft() for _ in range(self.WRITE_SIZE)]
        )
        ids = state.index.add(state.data[rows])
        old_ids, old_rows = state.live.popleft()
        state.index.remove(old_ids)
        state.live.append((ids, rows))
        state.live_rows[old_rows] = False
        state.live_rows[rows] = True
        state.id_of_row[rows] = ids
        state.supply.extend(int(r) for r in old_rows)

    def exact(self, state: Any, query: np.ndarray) -> np.ndarray:
        """Exact top-``K`` ids among the items live right now."""
        dists = state.norms - 2.0 * (state.data @ query)
        dists[~state.live_rows] = np.inf
        return state.id_of_row[np.argpartition(dists, K - 1)[:K]]

    def measure(
        self, state: Any, seconds: float, tracer: Tracer | None, need: int
    ) -> Phase:
        clock = time.perf_counter
        index, cache = state.index, state.cache
        reads: list[float] = []
        writes: list[float] = []
        recalls: list[float] = []
        errors: list[str] = []
        candidates = checked = wrong = 0
        stats0 = cache.stats
        cpu0 = time.process_time()
        paused = 0.0
        start = now = clock()
        while not closed_loop_done(start, now - paused, seconds, len(reads), need):
            if state.cursor >= len(state.stream):
                raise RuntimeError("churn stream exhausted; enlarge STREAM")
            qi = int(state.stream[state.cursor])
            query = state.queries[qi]
            state.cursor += 1
            state.n_reads += 1
            t0 = clock()
            try:
                result = index.search(query, K, n_candidates=self.BUDGET)
            except Exception as error:  # reprolint: disable=RL005 -- counted as an error outcome; the loop keeps running
                errors.append(repr(error))
                result = None
            now = clock()
            if result is not None:
                reads.append(now - t0)
                candidates += result.n_candidates
                if state.n_reads % self.CHECK_EVERY == 0:
                    # No write runs between the answer and its check.
                    untraced = tracer.suspended() if tracer else contextlib.nullcontext()
                    with untraced:
                        index.engine.cache = None
                        try:
                            reference = index.search(
                                query, K, n_candidates=self.BUDGET
                            )
                        finally:
                            index.engine.cache = cache
                    checked += 1
                    wrong += not same_answer(result, reference)
                    recalls.append(
                        (qi, recall_at_k(result.ids, self.exact(state, query), K))
                    )
                    paused += clock() - now
                    now = clock()
            if state.n_reads % self.READS_PER_WRITE == 0:
                t0 = clock()
                try:
                    self.write(state)
                except Exception as error:  # reprolint: disable=RL005 -- counted as an error outcome; the loop keeps running
                    errors.append(repr(error))
                now = clock()
                writes.append(now - t0)
        stats1 = cache.stats
        return Phase(
            now - start - paused, time.process_time() - cpu0,
            len(reads) + len(writes) + len(errors),
            {
                "reads": reads, "writes": writes, "recalls": recalls,
                "errors": errors, "checked": checked, "wrong": wrong,
                "candidates": candidates,
                "cache": {key: stats1[key] - stats0[key]
                          for key in ("hits", "misses", "evictions")},
            },
        )

    def check(self, state, phase, seeds):
        data = phase.data
        outcomes = Outcomes()
        outcomes.attempted = phase.requests
        outcomes.add("errors", len(data["errors"]))
        outcomes.add("wrong", data["wrong"])
        outcomes.checked = data["checked"]
        problems = []
        if data["cache"]["hits"] == 0:
            problems.append("no cache hit: the cache layer was not exercised")
        return outcomes, problems

    def metrics(self, state, phase):
        data = phase.data
        timing = timing_summary(data["reads"], self.PRINTED_TAIL)
        windowed = windowed_percentile(
            data["reads"], self.tail, self.TAIL_WINDOWS
        ) * 1e3
        writes = timing_summary(data["writes"], 99.0)
        lookups = data["cache"]["hits"] + data["cache"]["misses"]
        metrics = {
            "qps": len(data["reads"]) / phase.wall,
            "latency_p50_ms": timing["p50_ms"],
            "latency_tail_ms": windowed,
            "recall_at_10": per_query_mean(data["recalls"]),
        }
        extras = [
            ("latency_p50_ms", timing["p50_ms"], "ms"),
            (f"latency_p{self.PRINTED_TAIL:g}_ms", timing["tail_ms"], "ms"),
            (f"latency_p{self.tail:g}_ms_windowed", windowed, "ms"),
            ("read_samples", timing["n"], "count"),
            ("write_p50_ms", writes["p50_ms"], "ms"),
            ("write_p99_ms", writes["tail_ms"], "ms"),
            ("write_samples", writes["n"], "count"),
            ("cache_hit_frac", ratio(data["cache"]["hits"], lookups), "ratio"),
        ]
        return metrics, extras

    def layers(self, state, phase, tracer, counters):
        counters["hits"] = phase.data["cache"]["hits"]
        counters["evictions"] = phase.data["cache"]["evictions"]
        counters["answers"] = len(phase.data["reads"])
        counters["candidates"] = phase.data["candidates"]
        return base_layers(tracer, phase, counters)


# -- serve --------------------------------------------------------------

class Serve(Workload):
    name = "serve"
    why = (
        "open-loop Poisson arrivals at fixed rates across the knee into "
        "the async front door: admission, coalescing and the degrade "
        "ladder under queueing; coalesced batches skip the cache"
    )
    CODE = 16
    DISTINCT = 2048
    CACHE = 1024
    #: Offered rates (req/s) and each step's share of ``--seconds``.  The
    #: gated metrics come from the reference step, which sits below the
    #: knee and gets the most time; the other steps trace the knee and
    #: feed max_ok_rps and goodput_rps, which are printed, not gated:
    #: past the knee the event loop and the executor contend for the GIL
    #: and a step may or may not collapse, so those numbers are bimodal.
    RATES = (250, 500, 750, 1000, 1500)
    SHARES = (0.6, 0.1, 0.1, 0.1, 0.1)
    REFERENCE_RATE = 250
    #: The gated latencies are the batch lane's (p50 and p90) at the
    #: reference rate.  Interactive latency, a few ms of thread hand-offs
    #: on top of a 2 ms coalescing window, tracks the host's CPU steal
    #: (p50 5.1 ms at 2% steal, 6.5 ms at 12%): over ten seeds its p50
    #: spread by 0.33 and its p90 by 0.36, medians over slices of the run
    #: included.  The batch lane's 20 ms window dominates its latency
    #: (p50 23.4 ms, spread 0.04 over ten seeds).  Interactive figures, pooled
    #: and as medians over this many slices, are printed.  The gated
    #: batch-lane figures are medians over up to BATCH_WINDOWS slices
    #: (p90 spread 0.16 over ten seeds pooled, 0.09 windowed).
    tail = 90.0
    WINDOWS = 6
    BATCH_WINDOWS = 5
    INTERACTIVE_SHARE = 0.8
    BUDGETS = {"interactive": 200, "batch": 2000}
    #: Share of interactive requests that must be served within the lane
    #: deadline (from due time) for a rate to count as sustained.
    OK_SHARE = 0.99

    def build(self, seeds: Seeds) -> Any:
        data = corpus(seeds)
        hasher = ITQ(self.CODE, seed=seeds.hasher)
        prober = GQR()
        cache = QueryResultCache(capacity=self.CACHE)
        index = HashIndex(hasher, data, prober=prober, cache=cache)
        state = SimpleNamespace(
            data=data, hasher=hasher, prober=prober, cache=cache, index=index
        )
        # The first batched search builds the table's scoring layout.
        warm = sample_queries(data, 32, seed=seeds.stream)
        index.search_batch(warm, K, self.BUDGETS["interactive"])
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(self._start_stop(state))
        finally:
            loop.close()
        return state

    async def _start_stop(self, state: Any) -> None:
        door = AsyncFrontDoor(state.index, default_config())
        await door.start()
        await door.close()

    def prepare(self, state: Any, seeds: Seeds) -> None:
        state.queries = sample_queries(
            state.data, self.DISTINCT, seed=seeds.queries
        )
        state.plans = {
            lane: state.index.plan(K, n_candidates=budget)
            for lane, budget in self.BUDGETS.items()
        }
        state.deadlines = {
            lane.name: lane.deadline_seconds for lane in default_config().lanes
        }
        state.rng = np.random.default_rng(seeds.stream)
        state.batch_sizes = []

    def install(self, state: Any, tracer: Tracer) -> dict[str, int]:
        trace_batch_path(tracer, state)
        trace_cache(tracer, state.cache)
        return {}

    def schedule(self, state: Any, rate: float, seconds: float) -> list[tuple]:
        """Seeded Poisson arrivals: ``(offset, lane, query)`` per request."""
        rng = state.rng
        gaps = rng.exponential(1.0 / rate, int(rate * seconds * 1.5) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        interactive = rng.random(len(offsets)) < self.INTERACTIVE_SHARE
        picks = zipfian_stream(
            self.DISTINCT, len(offsets), seed=int(rng.integers(2**31))
        )
        return [
            (float(offset), "interactive" if fast else "batch", int(pick))
            for offset, fast, pick in zip(offsets, interactive, picks)
        ]

    def measure(
        self, state: Any, seconds: float, tracer: Tracer | None, need: int
    ) -> Phase:
        if tracer is not None:
            loop = TimedLoop(tracer)
            loop.set_task_factory(timed_task_factory(tracer, self._layer_of))
        else:
            loop = asyncio.new_event_loop()
        cpu0 = time.process_time()
        steps = []
        wall = 0.0
        try:
            for rate, share in zip(self.RATES, self.SHARES):
                arrivals = self.schedule(state, rate, seconds * share)
                t0 = time.perf_counter()
                records = loop.run_until_complete(
                    self._step(state, loop, arrivals, tracer)
                )
                wall += time.perf_counter() - t0
                steps.append(
                    {"rate": rate, "seconds": seconds * share, "records": records}
                )
        finally:
            loop.close()
        return Phase(
            wall, time.process_time() - cpu0,
            sum(len(step["records"]) for step in steps), {"steps": steps},
        )

    @staticmethod
    def _layer_of(coroutine: str) -> str:
        """Layer of a task's coroutine: the front door's, ours, or asyncio's."""
        if coroutine.startswith("AsyncFrontDoor."):
            return "serving"
        if coroutine.startswith("Serve."):
            return "bench"
        return "loop"

    async def _step(
        self, state: Any, loop: asyncio.AbstractEventLoop,
        arrivals: list[tuple], tracer: Tracer | None,
    ) -> list[dict]:
        """One fixed-rate step on a fresh front door, drained at the end."""
        door = AsyncFrontDoor(state.index, default_config())
        if tracer is not None:
            self._trace_door(state, door, tracer)
        await door.start()
        tasks: list[asyncio.Task] = []
        try:
            t0 = loop.time() + 0.005
            for offset, lane, pick in arrivals:
                due = t0 + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                coro = self._request(door, loop, state, lane, pick, due)
                if tracer is None:
                    tasks.append(loop.create_task(coro))
                else:
                    tasks.append(
                        tracer.call("bench.send", "bench", loop.create_task, coro)
                    )
            return list(await asyncio.gather(*tasks))
        finally:
            for task in tasks:
                task.cancel()
            await door.close()

    def _trace_door(self, state: Any, door: AsyncFrontDoor, tracer: Tracer) -> None:
        def batch_size(args: tuple, _result: Any) -> None:
            state.batch_sizes.append(len(args[0].tickets))

        for attr in ("admit", "poll"):
            tracer.wrap(door.core, attr, f"serving.{attr}", "serving")
        tracer.wrap(
            door.core, "complete", "serving.complete", "serving",
            on_call=batch_size,
        )

    async def _request(
        self, door: AsyncFrontDoor, loop: asyncio.AbstractEventLoop,
        state: Any, lane: str, pick: int, due: float,
    ) -> dict:
        record = {"lane": lane, "pick": pick, "due": due, "sent": loop.time(),
                  "response": None, "error": None}
        try:
            record["response"] = await door.submit(
                state.queries[pick], state.plans[lane], lane=lane
            )
        except Exception as error:  # reprolint: disable=RL005 -- counted as an error outcome
            record["error"] = repr(error)
        record["done"] = loop.time()
        return record

    def _served(self, record: dict) -> bool:
        return record["response"] is not None and record["response"].served

    def _on_time(self, state: Any, record: dict) -> bool:
        """Served within the lane deadline, counted from the due time."""
        return self._served(record) and (
            record["done"] - record["due"] <= state.deadlines[record["lane"]]
        )

    def _outcome(self, state: Any, record: dict, wrong: bool) -> str:
        """The one outcome kind of a request, or ``"ok"``."""
        if record["response"] is None:
            return "errors"
        if wrong:
            return "wrong"
        if not record["response"].served:
            return "rejected"
        if not self._on_time(state, record):
            return "deadline_missed"
        return "ok"

    def check(self, state, phase, seeds):
        records = [r for step in phase.data["steps"] for r in step["records"]]
        served = [r for r in records if self._served(r)]
        outcomes = Outcomes()
        outcomes.attempted = len(records)
        wrong = set()
        engine = state.index.engine
        engine.cache = None
        try:
            for pick in check_sample(outcomes, len(served), seeds.check):
                record = served[pick]
                plan = record["response"].effective_plan
                reference = state.index.search(
                    state.queries[record["pick"]], plan.k,
                    n_candidates=plan.n_candidates,
                )
                if not same_answer(record["response"].result, reference):
                    wrong.add(id(record))
        finally:
            engine.cache = state.cache
        for record in records:
            record["outcome"] = self._outcome(state, record, id(record) in wrong)
            if record["outcome"] != "ok":
                outcomes.add(record["outcome"])
        problems = []
        top = phase.data["steps"][-1]["records"]
        if not any(self._served(r) and r["response"].degrade_level > 0 for r in top):
            problems.append("the top rate never reached the degrade ladder")
        return outcomes, problems

    def metrics(self, state, phase):
        steps = phase.data["steps"]
        extras: list[tuple[str, float, str]] = []
        ok_rates = []
        for step in steps:
            records = step["records"]
            interactive = [r for r in records if r["lane"] == "interactive"]
            ok_share = ratio(
                sum(r["outcome"] == "ok" for r in interactive), len(interactive)
            )
            growing = backlog_growing(
                [r["sent"] for r in records], [r["done"] for r in records]
            )
            if ok_share >= self.OK_SHARE and not growing:
                ok_rates.append(step["rate"])
            extras.append(
                (f"interactive_ok_share_at_{step['rate']}", ok_share, "ratio")
            )
        top = steps[-1]
        goodput = sum(r["outcome"] == "ok" for r in top["records"]) / top["seconds"]
        reference = next(s for s in steps if s["rate"] == self.REFERENCE_RATE)
        records = reference["records"]
        served = [r for r in records if self._served(r)]
        fast, slow = (self._latencies(served, lane) for lane in self.BUDGETS)
        _, lags = open_loop_latencies(*(
            [r[key] for step in steps for r in step["records"]]
            for key in ("due", "sent", "done")
        ))
        truth = exact_knn(state.data, state.queries)
        windows = min(
            self.BATCH_WINDOWS, max(1, len(slow) // min_samples_for(self.tail))
        )
        ok = sum(r["outcome"] == "ok" for r in records)
        metrics = {
            "qps": ok / reference["seconds"],
            "latency_p50_ms": windowed_percentile(slow, 50.0, windows) * 1e3,
            "latency_tail_ms": windowed_percentile(slow, self.tail, windows) * 1e3,
            "recall_at_10": per_query_mean(
                (r["pick"], recall_at_k(r["response"].result.ids, truth[r["pick"]], K))
                for r in served
            ),
            "ok_frac": ok / len(records),
        }
        extras[:0] = [
            ("reference_rate", float(self.REFERENCE_RATE), "req/s"),
            *self._lane_lines("batch", slow),
            ("batch_windows", float(windows), "count"),
            *self._lane_lines("interactive", fast),
            ("interactive_p50_ms_windowed",
             windowed_percentile(fast, 50.0, self.WINDOWS) * 1e3, "ms"),
            ("interactive_p90_ms_windowed",
             windowed_percentile(fast, 90.0, self.WINDOWS) * 1e3, "ms"),
            ("max_ok_rps", float(max(ok_rates, default=0)), "req/s"),
            ("goodput_rps", goodput, "req/s"),
            ("generator_lag_p99_ms", percentile(lags, 99.0) * 1e3, "ms"),
        ]
        return metrics, extras

    def _latencies(self, served: list[dict], lane: str) -> list[float]:
        """Latency from due time of one lane's served requests."""
        mine = [r for r in served if r["lane"] == lane]
        latencies, _ = open_loop_latencies(
            *([r[key] for r in mine] for key in ("due", "sent", "done"))
        )
        return latencies

    @staticmethod
    def _lane_lines(lane: str, latencies: list[float]) -> list[tuple]:
        """Median and highest supported percentile, with the sample count."""
        top = next(
            p for p in (99.0, 98.0, 95.0, 90.0, 50.0)
            if percentile_supported(p, len(latencies))
        )
        summary = timing_summary(latencies, top)
        return [
            (f"{lane}_p50_ms", summary["p50_ms"], "ms"),
            (f"{lane}_p{top:g}_ms", summary["tail_ms"], "ms"),
            (f"{lane}_samples", summary["n"], "count"),
        ]

    def overhead_basis(self, phase: Phase) -> float:
        # Open loop: the schedule sets wall time, so compare CPU per request.
        return phase.cpu / max(phase.requests, 1)

    def layers(self, state, phase, tracer, counters):
        records = [r for step in phase.data["steps"] for r in step["records"]]
        responses = [r["response"] for r in records if r["response"] is not None]
        served = [resp for resp in responses if resp.served]
        counters["answers"] = len(served)
        counters["candidates"] = sum(resp.result.n_candidates for resp in served)
        out = base_layers(tracer, phase, counters)
        n = max(len(records), 1)
        queue = [resp.queue_seconds for resp in served]
        out["serving.queue_wait_p99_ms"] = (
            percentile(queue, 99.0) * 1e3 if queue else 0.0
        )
        sizes = state.batch_sizes
        out["serving.batch_size_mean"] = statistics.fmean(sizes) if sizes else 0.0
        main = tracer.main_state()
        out["serving.exec_busy_frac"] = ratio(
            sum(s.top_seconds for s in tracer.threads() if s is not main),
            phase.wall,
        )
        out["serving.core_ms"] = sum(
            tracer.op_seconds(f"serving.{op}") for op in ("admit", "poll", "complete")
        ) * 1e3 / n
        out["serving.degraded_frac"] = sum(
            resp.status == STATUS_SERVED_DEGRADED for resp in responses
        ) / n
        for reason in SERVE_REJECT_REASONS:
            out[f"serving.rejected_frac.{reason}"] = sum(
                resp.reason == reason for resp in responses
            ) / n
        out["serving.deadline_miss_frac"] = sum(
            not resp.deadline_met for resp in served
        ) / n
        _, lags = open_loop_latencies(*(
            [r[key] for r in records] for key in ("due", "sent", "done")
        ))
        out["bench.generator_lag_p99_ms"] = percentile(lags, 99.0) * 1e3
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Point(), Batch(), Serve(), Churn())
}
