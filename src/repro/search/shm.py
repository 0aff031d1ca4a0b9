"""Shared-memory publication of immutable index state for process workers.

The process execution mode of
:class:`~repro.search.parallel.ParallelBatchExecutor` must not pickle
the index into every worker: the vectors and the bucket layout are by
far the largest state, and they are immutable between index mutations.
This module publishes that state once per engine *generation* into
named ``multiprocessing.shared_memory`` segments:

* the ``(n, d)`` float64 item vectors (what exact evaluation scores);
* the table's CSR-style dense layout — ascending bucket ``signatures``,
  per-bucket ``sizes``, ``offsets`` into the flat id array, and the
  concatenated ``ids_flat`` (what retrieval drains).

Workers attach **zero-copy**: :func:`run_ordered_shard` maps the named
segments into numpy views, rebuilds a minimal
:class:`~repro.search.engine.QueryEngine` over them, and runs the
engine's one stage-pipeline runner with the ordered retrieval source
over its contiguous query shard — the same control flow as serial
execution, so the process path is bit-identical to it by
construction.  Results travel back as compact arrays (ids, distances,
stats columns including one seconds column per plan stage) rather
than pickled ``SearchResult`` objects.

Attachments are cached per worker process, keyed by publication family,
and re-attached when the generation in the incoming spec differs from
the cached one — a worker can never read a stale segment after the
parent republishes (mutable indexes bump the generation on every
mutation, which retires the old segment names entirely).

Lifecycle: the parent owns every segment — it unlinks on republish and
on executor shutdown, with a ``weakref.finalize`` backstop in the
executor for abandoned instances (see :func:`_attach_segment` for how
worker attachments stay out of the segments' lifetime).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro import obs

if TYPE_CHECKING:
    from repro.search.engine import QueryEngine, QueryPlan
    from repro.search.results import SearchResult

__all__ = [
    "SharedArraySpec",
    "SharedBucketTable",
    "SharedIndexPublication",
    "SharedIndexSpec",
    "attached_generation",
    "publish_index",
    "run_ordered_shard",
    "unpack_shard_results",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)

# Deterministic segment naming: pid plus a monotone counter.  Names are
# process-unique without consulting a RNG, and short enough for every
# platform's shm name limit.
_SEGMENT_COUNTER = 0
_SEGMENT_LOCK = threading.Lock()


def _next_segment_name() -> str:
    global _SEGMENT_COUNTER
    with _SEGMENT_LOCK:
        _SEGMENT_COUNTER += 1
        return f"repro-{os.getpid()}-{_SEGMENT_COUNTER}"


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable description of one published array: name, shape, dtype."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedIndexSpec:
    """Everything a worker needs to attach one published index.

    ``family`` identifies the publishing engine (its process-unique
    cache token) and ``generation`` the engine generation the arrays
    were snapshotted at; together they key the worker-side attachment
    cache.  The remaining fields point at the named segments.
    """

    family: str
    generation: int
    engine_name: str
    metric: str
    vectors: SharedArraySpec
    signatures: SharedArraySpec
    sizes: SharedArraySpec
    offsets: SharedArraySpec
    ids_flat: SharedArraySpec


class SharedIndexPublication:
    """Parent-side handle on one generation's published segments."""

    def __init__(
        self,
        spec: SharedIndexSpec,
        segments: list[shared_memory.SharedMemory],
    ) -> None:
        self.spec = spec
        self._segments = segments
        self._closed = False
        self._close_lock = threading.Lock()

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            segments, self._segments = self._segments, []
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass


def _publish_array(array: np.ndarray) -> tuple[
    shared_memory.SharedMemory, SharedArraySpec
]:
    contiguous = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(
        name=_next_segment_name(),
        create=True,
        size=max(contiguous.nbytes, 1),
    )
    if contiguous.nbytes:
        view: np.ndarray = np.ndarray(
            contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf
        )
        view[...] = contiguous
    spec = SharedArraySpec(
        name=segment.name,
        shape=tuple(int(s) for s in contiguous.shape),
        dtype=str(contiguous.dtype),
    )
    return segment, spec


def publish_index(
    family: str,
    generation: int,
    engine_name: str,
    metric: str,
    vectors: np.ndarray,
    layout: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> SharedIndexPublication:
    """Snapshot one index generation into named shared-memory segments.

    ``layout`` is the table's ``dense_layout()`` tuple.  The returned
    publication owns the segments; callers must :meth:`close` it when
    the generation is retired (the executor does, on republish and on
    shutdown).
    """
    signatures, sizes, offsets, ids_flat = layout
    segments: list[shared_memory.SharedMemory] = []
    specs: list[SharedArraySpec] = []
    try:
        for array in (
            np.asarray(vectors, dtype=np.float64),
            np.asarray(signatures, dtype=np.int64),
            np.asarray(sizes, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
            np.asarray(ids_flat, dtype=np.int64),
        ):
            segment, spec = _publish_array(array)
            segments.append(segment)
            specs.append(spec)
    except BaseException:
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        raise
    index_spec = SharedIndexSpec(
        family=family,
        generation=generation,
        engine_name=engine_name,
        metric=metric,
        vectors=specs[0],
        signatures=specs[1],
        sizes=specs[2],
        offsets=specs[3],
        ids_flat=specs[4],
    )
    return SharedIndexPublication(index_spec, segments)


# -- worker-side attachment -------------------------------------------

def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifetime.

    Python 3.13 grew ``track=False`` for exactly this; earlier versions
    register every attachment with the resource tracker.  Our pool
    workers are spawned by the owning executor and therefore share the
    *parent's* tracker process (spawn hands down the fd), where the
    segment is already registered — the duplicate registration is a
    harmless set-add that the parent's eventual ``unlink`` balances.
    Explicitly unregistering here would instead remove the parent's own
    registration, orphaning the crash backstop and making the parent's
    ``unlink`` double-unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _attach_array(
    spec: SharedArraySpec,
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    segment = _attach_segment(spec.name)
    view: np.ndarray = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    return segment, view


class SharedBucketTable:
    """Bucket lookups over the published CSR layout — zero-copy.

    Satisfies the engine's :class:`~repro.search.engine.BucketTable`
    protocol: ``get`` binary-searches the ascending signature array and
    ``dense_layout`` hands the batch path the exact tuple the parent's
    :meth:`~repro.index.hash_table.HashTable.dense_layout` produced, so
    the ordered path takes the same layout branch it takes in-process.
    """

    def __init__(
        self,
        signatures: np.ndarray,
        sizes: np.ndarray,
        offsets: np.ndarray,
        ids_flat: np.ndarray,
    ) -> None:
        self._signatures = signatures
        self._sizes = sizes
        self._offsets = offsets
        self._ids_flat = ids_flat

    def get(self, signature: int) -> np.ndarray:
        position = int(
            np.searchsorted(self._signatures, int(signature), side="left")
        )
        if (
            position >= len(self._signatures)
            or int(self._signatures[position]) != int(signature)
        ):
            return _EMPTY_IDS
        start = int(self._offsets[position])
        return self._ids_flat[start:start + int(self._sizes[position])]

    def dense_layout(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self._signatures, self._sizes, self._offsets, self._ids_flat)


class _AttachedIndex:
    """One worker's cached attachment: segments, views, rebuilt engine."""

    def __init__(self, spec: SharedIndexSpec) -> None:
        self.generation = spec.generation
        self._segments: list[shared_memory.SharedMemory] = []
        arrays: list[np.ndarray] = []
        for array_spec in (
            spec.vectors,
            spec.signatures,
            spec.sizes,
            spec.offsets,
            spec.ids_flat,
        ):
            segment, view = _attach_array(array_spec)
            self._segments.append(segment)
            arrays.append(view)
        from repro.search.engine import ExactEvaluator, QueryEngine

        self.table = SharedBucketTable(*arrays[1:])
        evaluator = ExactEvaluator(arrays[0], spec.metric)
        self.engine: QueryEngine = QueryEngine(
            evaluator, name=spec.engine_name
        )
        self.engine.rerankers["exact"] = evaluator

    def detach(self) -> None:
        # Only _attached_index calls this, with _ATTACHED_LOCK held —
        # the cache lock doubles as every attachment's mutation lock.
        segments, self._segments = self._segments, []  # reprolint: disable=RL012
        for segment in segments:
            segment.close()


_ATTACHED: dict[str, _AttachedIndex] = {}
_ATTACHED_LOCK = threading.Lock()


def _attached_index(spec: SharedIndexSpec) -> _AttachedIndex:
    """The cached attachment for ``spec.family``, re-attached when stale.

    Pool workers are single-threaded, but the lock keeps the cache safe
    if a thread-mode executor ever routes through this entry point too.
    """
    with _ATTACHED_LOCK:
        cached = _ATTACHED.get(spec.family)
        if cached is not None and cached.generation == spec.generation:
            return cached
        if cached is not None:
            cached.detach()
        fresh = _AttachedIndex(spec)
        _ATTACHED[spec.family] = fresh
        return fresh


def attached_generation(family: str) -> int | None:
    """The generation this process has attached for ``family`` (tests)."""
    with _ATTACHED_LOCK:
        cached = _ATTACHED.get(family)
        return None if cached is None else cached.generation


# -- the shard entry point --------------------------------------------

def run_ordered_shard(
    spec: SharedIndexSpec,
    queries: np.ndarray,
    plan: QueryPlan,
    scores: np.ndarray,
    bucket_signatures: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Run one contiguous query shard against the published index.

    Runs the engine's stage pipeline with the ordered source over the
    shared-memory views and packs the results into compact arrays (see
    :func:`unpack_shard_results`); the final float column is the
    shard's wall time, for the parent's per-shard telemetry.
    """
    attached = _attached_index(spec)
    with obs.span("parallel_shard") as shard_span:
        results, _ = attached.engine._run_pipeline(
            queries,
            plan,
            ordered=(attached.table, scores, bucket_signatures),
        )
    return _pack_results(results, plan.stage_names(), shard_span.duration)


#: Leading per-row stat columns of a shard pack; one column per plan
#: stage (its ``stage_seconds``) follows them.
_STAT_COLUMNS = 6


def _pack_results(
    results: list[SearchResult],
    stage_names: tuple[str, ...],
    shard_seconds: float,
) -> tuple[np.ndarray, ...]:
    n = len(results)
    lengths = np.fromiter(
        (len(r.ids) for r in results), dtype=np.int64, count=n
    )
    ids_flat = (
        np.concatenate([r.ids for r in results]) if n else _EMPTY_IDS
    )
    dists_flat = (
        np.concatenate([r.distances for r in results])
        if n
        else np.empty(0, dtype=np.float64)
    )
    stats = np.zeros((n, _STAT_COLUMNS + len(stage_names)), dtype=np.float64)
    for row, result in enumerate(results):
        ctx = result.stats
        if ctx is None:
            continue
        stats[row, :_STAT_COLUMNS] = (
            ctx.n_buckets_probed,
            ctx.n_candidates,
            ctx.early_stop_triggered,
            ctx.retrieval_seconds,
            ctx.evaluation_seconds,
            ctx.total_seconds,
        )
        stats[row, _STAT_COLUMNS:] = [
            ctx.stage_seconds[name] for name in stage_names
        ]
    shard = np.array([shard_seconds], dtype=np.float64)
    return (lengths, ids_flat, dists_flat, stats, shard)


def unpack_shard_results(
    pack: tuple[np.ndarray, ...],
    stage_names: tuple[str, ...],
) -> tuple[list[SearchResult], float]:
    """Rebuild ``(results, shard_seconds)`` from one shard's pack.

    ``stage_names`` — the plan's ``stage_names()`` — names the
    per-stage seconds columns.
    """
    from repro.search.engine import ExecutionContext
    from repro.search.results import SearchResult

    lengths, ids_flat, dists_flat, stats, shard = pack
    bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    results: list[SearchResult] = []
    for row in range(len(lengths)):
        lo, hi = int(bounds[row]), int(bounds[row + 1])
        ctx = ExecutionContext(
            n_buckets_probed=int(stats[row, 0]),
            n_candidates=int(stats[row, 1]),
            early_stop_triggered=bool(stats[row, 2]),
            retrieval_seconds=float(stats[row, 3]),
            evaluation_seconds=float(stats[row, 4]),
            total_seconds=float(stats[row, 5]),
            stage_seconds={
                name: float(seconds)
                for name, seconds in zip(
                    stage_names, stats[row, _STAT_COLUMNS:]
                )
            },
        )
        results.append(
            SearchResult(
                ids_flat[lo:hi].copy(),
                dists_flat[lo:hi].copy(),
                ctx.n_candidates,
                ctx.n_buckets_probed,
                {"stats": ctx},
            )
        )
    return results, float(shard[0])
