"""Parallel batch execution for the serving layer: threads or processes.

Large batches shard across a persistent pool.  Every shard, in either
mode, runs the engine's one stage-pipeline runner over a contiguous
slice of the batch — the same control flow a serial batch or a single
query takes.  Two modes:

* ``"thread"`` — workers are threads; numpy releases the GIL inside
  the vectorized scoring kernels, so this wins only when batch time is
  BLAS/ufunc-bound.  On the numpy-light probe path the GIL serialises
  the workers and threads can *lose* to serial.
* ``"process"`` — workers are spawned processes attached zero-copy to
  shared-memory snapshots of the index (:mod:`repro.search.shm`).  The
  parent publishes each engine's vectors and bucket layout once per
  generation; workers run the pipeline with the ordered retrieval
  source over their shards and return compact arrays (with per-stage
  seconds) instead of pickled ``SearchResult`` objects.  This
  sidesteps the GIL entirely, at the price of shipping each shard's
  probe-score slice to the worker.

Process mode applies to the ordered batch path with an
:class:`~repro.search.engine.ExactEvaluator` (plain plans, or rerank
mode ``"exact"`` over the same vectors); everything else — the streams
path drains per-query generators that cannot cross a process boundary,
fusion needs a partner engine — falls back to the thread pool, and
below ``min_batch_size`` both modes degrade to serial execution.

Determinism is non-negotiable: shard results are concatenated in slice
order, and the pipeline is per-row independent —

* the ordered source's probe orders, ``_probe_prefix`` widths and
  ragged gathers depend only on each row's scores and the shared
  bucket layout, :func:`repro.search.engine._ragged_distances` is
  chunk-invariant by construction, and every row is ranked alone by
  :meth:`repro.search.engine.CandidatePipeline.top_k`;
* the streams source drains each query's own iterator;
* rerank, fuse and truncate run per row from each row's own surviving
  pool, with no cross-row state;

so the merged output is **bit-identical** to running the whole batch
serially (enforced by tests), in both modes.  The one shared mutable
structure, a table's lazily cached ``dense_layout``, is materialised
on the caller's thread before any worker starts.  The engine's batch
entry point records telemetry for the merged batch once.

Lifecycle: pools and shared-memory publications are released by
:meth:`ParallelBatchExecutor.shutdown` (also spelled ``close``, also a
context manager), and a ``weakref.finalize`` backstop tears them down
when an executor is dropped without one — worker processes and named
segments must never outlive the executor that created them.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Iterable
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import get_context
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.search import shm

if TYPE_CHECKING:
    from repro.search.engine import BucketTable, QueryEngine, QueryPlan
    from repro.search.results import SearchResult

__all__ = ["ParallelBatchExecutor"]

_MODES = ("thread", "process")


class _ExecutorState:
    """Pools and publications, separated out so ``weakref.finalize`` can
    tear them down without keeping the executor itself alive."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.thread_pool: ThreadPoolExecutor | None = None
        self.process_pool: ProcessPoolExecutor | None = None
        # family token -> (generation, table weakref, publication)
        self.publications: dict[
            str,
            tuple[int, weakref.ref[object], shm.SharedIndexPublication],
        ] = {}

    def take_all(
        self,
    ) -> tuple[
        ThreadPoolExecutor | None,
        ProcessPoolExecutor | None,
        list[shm.SharedIndexPublication],
    ]:
        """Atomically take everything that needs releasing."""
        with self.lock:
            thread_pool, self.thread_pool = self.thread_pool, None
            process_pool, self.process_pool = self.process_pool, None
            publications = [pub for _, _, pub in self.publications.values()]
            self.publications.clear()
        return thread_pool, process_pool, publications


def _teardown(state: _ExecutorState) -> None:
    thread_pool, process_pool, publications = state.take_all()
    if thread_pool is not None:
        thread_pool.shutdown(wait=True)
    if process_pool is not None:
        process_pool.shutdown(wait=True)
    for publication in publications:
        publication.close()


class ParallelBatchExecutor:
    """Shard batch execution across a persistent worker pool.

    Parameters
    ----------
    n_workers:
        Workers (and the maximum shard count).  ``1`` degrades to
        serial execution.
    min_batch_size:
        Batches smaller than this run serially — dispatch costs more
        than it saves on small blocks.
    mode:
        ``"thread"`` (default) or ``"process"`` — see the module
        docstring for when each wins and when process mode falls back
        to threads.
    """

    def __init__(
        self,
        n_workers: int,
        min_batch_size: int = 64,
        mode: str = "thread",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if min_batch_size < 2:
            raise ValueError(
                f"min_batch_size must be at least 2, got {min_batch_size}"
            )
        if mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        self.n_workers = n_workers
        self.min_batch_size = min_batch_size
        self.mode = mode
        self._state = _ExecutorState()
        self._finalizer = weakref.finalize(self, _teardown, self._state)

    def should_split(self, n_queries: int) -> bool:
        """Whether a batch of this size is worth sharding."""
        return self.n_workers > 1 and n_queries >= self.min_batch_size

    def _bounds(self, n_queries: int) -> list[tuple[int, int]]:
        """Contiguous, near-equal ``[lo, hi)`` shard bounds."""
        shards = min(self.n_workers, n_queries)
        edges = np.linspace(0, n_queries, shards + 1).astype(np.int64)
        return [
            (int(lo), int(hi))
            for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo
        ]

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        state = self._state
        with state.lock:
            if state.thread_pool is None:
                state.thread_pool = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="repro-batch",
                )
            return state.thread_pool

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        state = self._state
        with state.lock:
            if state.process_pool is None:
                # Spawn, not fork: the parent holds locks and worker
                # threads a forked child would inherit mid-state.
                state.process_pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=get_context("spawn"),
                )
            return state.process_pool

    # -- process-mode eligibility and publication ---------------------

    def _process_eligible(
        self, engine: QueryEngine, plan: QueryPlan, table: BucketTable
    ) -> bool:
        """Whether this ordered batch can run in worker processes.

        The worker rebuilds the engine from the published vectors and
        bucket layout, so the plan must only need what those can
        express: exact evaluation, optionally an ``"exact"`` rerank
        over the same vectors, no fusion partner.
        """
        from repro.search.engine import ExactEvaluator

        if self.mode != "process":
            return False
        if getattr(table, "dense_layout", None) is None:
            return False
        evaluator = engine.evaluator
        if not isinstance(evaluator, ExactEvaluator):
            return False
        if plan.fusion is not None:
            return False
        if plan.rerank is not None:
            if plan.rerank.mode != "exact":
                return False
            reranker = engine.rerankers.get("exact")
            if reranker is not evaluator and not (
                isinstance(reranker, ExactEvaluator)
                and reranker.metric == evaluator.metric
                and reranker._vectors() is evaluator._vectors()
            ):
                return False
        return True

    def _publication_for(
        self, engine: QueryEngine, table: BucketTable
    ) -> shm.SharedIndexPublication:
        """The current generation's publication, republishing when stale.

        Keyed by the engine's process-unique cache token; a publication
        goes stale when the engine generation moves (mutable indexes
        bump it on every mutation) or the table object itself was
        replaced.  Stale segments are closed and unlinked immediately —
        their names are never reused, so a worker holding the old spec
        cannot silently read them.
        """
        from repro.search.engine import ExactEvaluator

        family = str(engine.identity()[0])
        generation = engine.generation
        state = self._state
        with state.lock:
            cached = state.publications.get(family)
            if cached is not None:
                cached_generation, table_ref, publication = cached
                if (
                    cached_generation == generation
                    and table_ref() is table
                ):
                    return publication
        evaluator = engine.evaluator
        assert isinstance(evaluator, ExactEvaluator)
        fresh = shm.publish_index(
            family,
            generation,
            engine.name,
            evaluator.metric,
            evaluator._vectors(),
            table.dense_layout(),  # type: ignore[attr-defined]
        )
        stale: shm.SharedIndexPublication | None = None
        with state.lock:
            cached = state.publications.get(family)
            if cached is not None:
                stale = cached[2]
            state.publications[family] = (
                generation,
                weakref.ref(table),
                fresh,
            )
        if stale is not None:
            stale.close()
        return fresh

    # -- batch entry points -------------------------------------------

    def run_ordered(
        self,
        engine: QueryEngine,
        queries: np.ndarray,
        plan: QueryPlan,
        table: BucketTable,
        scores: np.ndarray,
        bucket_signatures: np.ndarray,
    ) -> list[SearchResult]:
        """Sharded ordered-path execution; results in batch order."""
        if self._process_eligible(engine, plan, table):
            return self._run_ordered_process(
                engine, queries, plan, table, scores, bucket_signatures
            )
        layout_fn = getattr(table, "dense_layout", None)
        if layout_fn is not None:
            # Materialise the lazily cached layout before workers race
            # to build it.
            layout_fn()
        pool = self._ensure_thread_pool()
        return _merge_thread_shards([
            pool.submit(
                _thread_shard,
                engine,
                queries[lo:hi],
                plan,
                ordered=(table, scores[lo:hi], bucket_signatures),
            )
            for lo, hi in self._bounds(len(queries))
        ])

    def _run_ordered_process(
        self,
        engine: QueryEngine,
        queries: np.ndarray,
        plan: QueryPlan,
        table: BucketTable,
        scores: np.ndarray,
        bucket_signatures: np.ndarray,
    ) -> list[SearchResult]:
        """Ordered-path execution over shared-memory process workers."""
        publication = self._publication_for(engine, table)
        pool = self._ensure_process_pool()
        bucket_signatures = np.asarray(bucket_signatures, dtype=np.int64)
        futures: list[Future[tuple[np.ndarray, ...]]] = [
            pool.submit(
                shm.run_ordered_shard,
                publication.spec,
                queries[lo:hi],
                plan,
                scores[lo:hi],
                bucket_signatures,
            )
            for lo, hi in self._bounds(len(queries))
        ]
        merged: list[SearchResult] = []
        for future in futures:
            results, seconds = shm.unpack_shard_results(
                future.result(), plan.stage_names()
            )
            obs.observe_parallel_shard("process", seconds)
            merged.extend(results)
        return merged

    def run_streams(
        self,
        engine: QueryEngine,
        queries: np.ndarray,
        plan: QueryPlan,
        streams: list[Iterable[np.ndarray]],
    ) -> list[SearchResult]:
        """Sharded streams-path execution; results in batch order.

        Always thread-pooled: the streams are live per-query
        generators, which cannot cross a process boundary.
        """
        if len(queries) != len(streams):
            raise ValueError(
                f"queries and streams must align: got {len(queries)} "
                f"queries for {len(streams)} streams"
            )
        pool = self._ensure_thread_pool()
        return _merge_thread_shards([
            pool.submit(
                _thread_shard,
                engine,
                queries[lo:hi],
                plan,
                streams=streams[lo:hi],
            )
            for lo, hi in self._bounds(len(streams))
        ])

    def shutdown(self) -> None:
        """Release pools and shared segments; a later batch rebuilds them."""
        _teardown(self._state)

    def close(self) -> None:
        """Alias for :meth:`shutdown`, for context-manager symmetry."""
        self.shutdown()

    def __enter__(self) -> ParallelBatchExecutor:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: object,
    ) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ParallelBatchExecutor(n_workers={self.n_workers}, "
            f"min_batch_size={self.min_batch_size}, mode={self.mode!r})"
        )


def _thread_shard(
    engine: QueryEngine,
    queries: np.ndarray,
    plan: QueryPlan,
    streams: list[Iterable[np.ndarray]] | None = None,
    ordered: tuple[BucketTable, np.ndarray, np.ndarray] | None = None,
) -> tuple[list[SearchResult], float]:
    """Run one thread-mode shard under a span; return (results, seconds)."""
    with obs.span("parallel_shard") as shard_span:
        results, _ = engine._run_pipeline(
            queries, plan, streams=streams, ordered=ordered
        )
    return results, shard_span.duration


def _merge_thread_shards(
    futures: list[Future[tuple[list[SearchResult], float]]],
) -> list[SearchResult]:
    """Concatenate shard results in slice order, recording each shard."""
    merged: list[SearchResult] = []
    for future in futures:
        results, seconds = future.result()
        obs.observe_parallel_shard("thread", seconds)
        merged.extend(results)
    return merged
