"""Composable query-pipeline stages: the engine's execution vocabulary.

The paper's two-step loop (retrieval gathers candidates, evaluation
re-ranks them exactly) generalises to a typed **stage pipeline**::

    Retrieve → DedupBudget → Evaluate → Rerank → Fuse → Truncate

Each stage is a small class with a uniform ``run(contexts, state)``
contract over a **ragged batch** — a single query is a batch of one.
It reads and mutates one :class:`PipelineState` (the ``(B, d)``
queries, the stacked per-row candidates, the per-row ranked lists) and
records whatever it learned into each row's ``ExecutionContext``.
``Stage.execute`` wraps ``run`` in an :func:`repro.obs.span` named
after the stage and stores each row's share of the measured wall time
under ``ctx.stage_seconds[name]`` — so every stage is individually
visible in sampled traces and the ``repro_query_stage_seconds``
histogram without writing any instrumentation of its own.

Retrieval has two sources: per-row candidate streams, drained by
:class:`DedupBudgetStage` through :func:`drain_stream`, or the engine's
vectorised ordered gather, run by :class:`RetrieveStage`.  Evaluation
scores the whole block with the evaluator's block kernel when it has
one.  Rerank, Fuse and Truncate work row by row.

The always-on prefix (Retrieve / DedupBudget / Evaluate / Truncate)
reproduces the classic engine path bit-for-bit; the two optional
production stages open the hybrid-retrieval scenario:

* :class:`RerankStage` — re-scores the evaluation stage's surviving
  pool with a second, more faithful scorer: exact distances over raw
  vectors (``mode="exact"``) or PQ/OPQ asymmetric distance over fine
  codes (``mode="adc"``).  This is the "hashing is a candidate stage"
  architecture of the related-work revisit: a cheap estimator ranks the
  pool, an expensive scorer fixes the top.
* :class:`FuseStage` — linear score fusion of this engine's ranked list
  with a second engine's (two hashers, or hash + filtered linear scan):
  min-max normalise both score lists, take the weighted sum, rank
  ascending.  Candidates missing from one list get that list's worst
  normalised score (1.0).

Stages compose **only** through :func:`build_pipeline` driven by a
``QueryPlan`` — constructing or calling them from outside
``repro/search`` is a lint error (reprolint RL011): the engine owns
execution order, span naming and stats accounting, and a stage invoked
on its own bypasses all three.  The plan-vocabulary dataclasses
(:class:`RerankSpec`, :class:`FusionSpec`) and the fusion adapters are
public API and freely importable.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro import obs

if TYPE_CHECKING:
    from repro.search.engine import (
        Evaluator,
        ExecutionContext,
        QueryEngine,
        QueryPlan,
    )
    from repro.search.results import SearchResult

__all__ = [
    "DedupBudgetStage",
    "EvaluateStage",
    "FusableIndex",
    "FuseStage",
    "FusionPartner",
    "FusionSpec",
    "IndexFusionPartner",
    "PipelineState",
    "RerankSpec",
    "RerankStage",
    "RetrieveStage",
    "Stage",
    "TruncateStage",
    "build_pipeline",
    "drain_stream",
    "linear_fusion",
]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_SCORES = np.empty(0, dtype=np.float64)


# -- plan vocabulary ---------------------------------------------------

@dataclass(frozen=True)
class RerankSpec:
    """Parameters of the optional :class:`RerankStage`.

    Attributes
    ----------
    mode:
        ``"exact"`` (raw-vector distances) or ``"adc"`` (PQ/OPQ
        asymmetric distance over fine codes).  Which modes are
        available depends on the index — every raw-vector index offers
        ``"exact"``; indexes built with a fine quantizer also offer
        ``"adc"``.
    pool:
        How many evaluation survivors feed the re-ranker.  ``None``
        (default) re-scores the *entire* candidate set; an integer
        keeps the evaluation stage's best ``pool`` items — the matched-
        budget setting the IR report compares at.
    """

    mode: str = "exact"
    pool: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "adc"):
            raise ValueError(
                f"rerank mode must be 'exact' or 'adc', got {self.mode!r}"
            )
        if self.pool is not None and self.pool < 1:
            raise ValueError(f"rerank pool must be positive, got {self.pool}")


@dataclass(frozen=True)
class FusionSpec:
    """Parameters of the optional :class:`FuseStage`.

    Attributes
    ----------
    weight:
        Weight of the *primary* engine's normalised scores in the
        linear combination; the partner contributes ``1 - weight``.
    pool:
        Ranked-list depth requested from the fusion partner (and, when
        no rerank precedes fusion, kept from the primary evaluation).
        ``None`` defaults to the plan's ``k``.
    """

    weight: float = 0.5
    pool: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(
                f"fusion weight must be in [0, 1], got {self.weight}"
            )
        if self.pool is not None and self.pool < 1:
            raise ValueError(f"fusion pool must be positive, got {self.pool}")


class FusionPartner(Protocol):
    """What :class:`FuseStage` needs from the secondary engine."""

    def fusion_pool(
        self, query: np.ndarray, plan: QueryPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        """The partner's ranked ``(ids, scores)`` pool for ``query``."""
        ...

    def fusion_identity(self) -> tuple[object, ...]:
        """Hashable identity folded into the primary engine's cache keys.

        Must change whenever the partner's answers could change (its
        engine token and generation at minimum), so fused results can
        never be served stale from the primary cache.
        """
        ...


class FusableIndex(Protocol):
    """The index surface :class:`IndexFusionPartner` adapts."""

    @property
    def engine(self) -> QueryEngine: ...

    def search(
        self, query: np.ndarray, k: int, n_candidates: int
    ) -> SearchResult: ...


class IndexFusionPartner:
    """Adapt any engine-backed index as a :class:`FusionPartner`.

    Works with every front-end in :mod:`repro.search` (they all expose
    ``search(query, k, n_candidates)`` and an ``engine`` property).
    The partner runs its own full pipeline per fused query — through
    its own cache, if one is attached.

    Parameters
    ----------
    index:
        The secondary index whose ranked list is fused in.
    n_candidates:
        Candidate budget for the partner's searches; defaults to the
        primary plan's budget (matched-budget fusion).
    """

    def __init__(
        self, index: FusableIndex, n_candidates: int | None = None
    ) -> None:
        if n_candidates is not None and n_candidates < 1:
            raise ValueError(
                f"n_candidates must be positive, got {n_candidates}"
            )
        self._index = index
        self._n_candidates = n_candidates

    def fusion_pool(
        self, query: np.ndarray, plan: QueryPlan
    ) -> tuple[np.ndarray, np.ndarray]:
        pool = plan.k
        if plan.fusion is not None and plan.fusion.pool is not None:
            pool = plan.fusion.pool
        budget = self._n_candidates
        if budget is None:
            budget = (
                plan.n_candidates if plan.n_candidates is not None else pool
            )
        result = self._index.search(query, pool, budget)
        return (
            np.asarray(result.ids, dtype=np.int64),
            np.asarray(result.distances, dtype=np.float64),
        )

    def fusion_identity(self) -> tuple[object, ...]:
        return ("index", *self._index.engine.identity(), self._n_candidates)


# -- pipeline state and the stage contract -----------------------------

@dataclass
class PipelineState:
    """Mutable state threaded through one ragged batch's stage pipeline.

    A single query is a batch of one.  Exactly one retrieval source is
    set: ``streams`` (one lazy bucket stream per row, drained by
    :class:`DedupBudgetStage`) or ``gather`` (the vectorised ordered
    gather, run by :class:`RetrieveStage`).  Retrieval leaves the
    ragged candidate block — every row's ids stacked in row order, with
    ``counts[i]`` the length of row ``i`` — and :class:`EvaluateStage`
    turns it into per-row ranked ``(ids, scores)`` lists that later
    stages refine row by row.
    """

    queries: np.ndarray
    streams: list[Iterable[np.ndarray]] | None = None
    gather: (
        Callable[[list[ExecutionContext]], tuple[np.ndarray, np.ndarray]]
        | None
    ) = None
    candidates: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    counts: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    ids: list[np.ndarray] = field(default_factory=list)
    scores: list[np.ndarray] = field(default_factory=list)


def _split_rows(stacked: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """The rows of a ragged block, as views: ``counts[i]`` items each."""
    if len(counts) == 1:
        return [stacked]
    ends = np.cumsum(counts).tolist()
    return [stacked[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]


class Stage:
    """Base class of every pipeline stage.

    Subclasses set ``name`` (the span / stats label) and implement
    :meth:`run`.  :meth:`execute` is the engine's entry point: it wraps
    ``run`` in one obs span for the whole batch and records each row's
    equal share of the measured duration into its context's
    ``stage_seconds`` — a stage never times itself.
    """

    name: str = "stage"

    def run(
        self, contexts: list[ExecutionContext], state: PipelineState
    ) -> None:
        """Advance ``state``; record per-row stage facts into ``contexts``."""
        raise NotImplementedError

    def execute(
        self, contexts: list[ExecutionContext], state: PipelineState
    ) -> None:
        """Run the stage under its span and account its wall time."""
        with obs.span(self.name) as span:
            self.run(contexts, state)
        share = span.duration / max(len(contexts), 1)
        for ctx in contexts:
            ctx.stage_seconds[self.name] = share


def drain_stream(
    stream: Iterable[np.ndarray],
    plan: QueryPlan,
    ctx: ExecutionContext,
) -> np.ndarray:
    """Collect candidate ids until a stopping criterion fires.

    Mirrors the retrieval loop of Algorithms 1 and 2: each yielded
    array is one probed non-empty bucket; the final bucket is taken
    whole, so slightly more than ``n_candidates`` ids may return.

    Candidates are deduplicated across (and within) buckets: an id the
    stream already yielded is dropped, so ``ctx.n_candidates`` counts
    each retrieved item exactly once — the evaluation cost actually
    paid — and the candidate budget is spent on *distinct* items.
    Dedup and budget accounting are interleaved by design (a duplicate
    must not consume budget), which is why they share one stage instead
    of two.
    """
    deadline = (
        None if plan.time_budget is None else obs.now() + plan.time_budget
    )
    found: list[np.ndarray] = []
    sampled_sizes = ctx.bucket_sizes
    seen: set[int] = set()
    total = 0
    buckets = 0
    for ids in stream:
        buckets += 1
        if len(ids):
            # Usually no id repeats: the set test keeps that case in C.
            keys = dict.fromkeys(ids.tolist())
            fresh: Collection[int] = (
                keys
                if seen.isdisjoint(keys)
                else [i for i in keys if i not in seen]
            )
            if len(fresh) != len(ids):
                ids = np.fromiter(fresh, dtype=np.int64, count=len(fresh))
            seen.update(fresh)
        found.append(ids)
        total += len(ids)
        if sampled_sizes is not None:
            sampled_sizes.append(len(ids))
        if plan.n_candidates is not None and total >= plan.n_candidates:
            break
        if plan.max_buckets is not None and buckets >= plan.max_buckets:
            break
        if deadline is not None and obs.now() >= deadline:
            break
    ctx.n_buckets_probed = buckets
    ctx.n_candidates = total
    if not found:
        return _EMPTY_IDS
    return np.concatenate(found)


# -- the stages --------------------------------------------------------

class RetrieveStage(Stage):
    """Run the batch's vectorised retrieval source, when it has one.

    The ordered gather scores, orders and gathers every row's probed
    buckets here in one pass, cut at the candidate budget.  Stream
    sources are lazy probe generators: binding them costs nothing, and
    walking them is paid where the budget decisions are made, inside
    :class:`DedupBudgetStage`.
    """

    name = "retrieve"

    def run(
        self, contexts: list[ExecutionContext], state: PipelineState
    ) -> None:
        if state.gather is not None:
            state.candidates, state.counts = state.gather(contexts)


class DedupBudgetStage(Stage):
    """Drain each row's stream under the plan's stopping criteria.

    See :func:`drain_stream` for the accounting contract; this stage's
    span carries the true retrieval cost of stream sources (the
    generators actually run here).  The ordered gather has already
    applied the budget over one table, which holds every id once.
    """

    name = "dedup_budget"

    def __init__(self, plan: QueryPlan) -> None:
        self._plan = plan

    def run(
        self, contexts: list[ExecutionContext], state: PipelineState
    ) -> None:
        if state.streams is None:
            return
        rows = [
            drain_stream(stream, self._plan, ctx)
            for stream, ctx in zip(state.streams, contexts)
        ]
        state.counts = np.array([len(row) for row in rows], dtype=np.int64)
        state.candidates = (
            rows[0] if len(rows) == 1 else np.concatenate(rows or [_EMPTY_IDS])
        )


class EvaluateStage(Stage):
    """Score every row's candidates and keep the best ``keep`` of them.

    ``keep`` is the plan's ``evaluate_keep()``: ``k`` for plain plans,
    the rerank/fusion pool size when a later stage re-scores, and
    ``None`` to keep the whole scored set.  An evaluator with a block
    kernel (``evaluate_ragged``, as on
    :class:`~repro.search.engine.ExactEvaluator`) scores a multi-row
    batch in one distance pass; otherwise — and for a lone query —
    each row goes through ``evaluate``.  Either way every row is ranked
    by :meth:`~repro.search.engine.CandidatePipeline.top_k`, so a row
    gets the same answer alone as in any batch.
    """

    name = "evaluate"

    def __init__(self, evaluator: Evaluator, keep: int | None) -> None:
        self._evaluator = evaluator
        self._keep = keep

    def run(
        self, contexts: list[ExecutionContext], state: PipelineState
    ) -> None:
        keep = self._keep
        block = getattr(self._evaluator, "evaluate_ragged", None)
        if block is not None and len(contexts) > 1:
            ranked = block(state.queries, state.candidates, state.counts, keep)
        else:
            rows = _split_rows(state.candidates, state.counts)
            ranked = [
                self._evaluator.evaluate(
                    state.queries[row], ids, len(ids) if keep is None else keep
                )
                for row, ids in enumerate(rows)
            ]
        state.ids = [ids for ids, _ in ranked]
        state.scores = [scores for _, scores in ranked]


class RerankStage(Stage):
    """Re-score each row's surviving pool with a second, more faithful scorer.

    The re-ranker is any :class:`~repro.search.engine.Evaluator` —
    exact distances or ADC — resolved by the engine from the plan's
    :class:`RerankSpec`.  The whole pool is re-ranked (selection to
    ``k`` is :class:`TruncateStage`'s job, so a following
    :class:`FuseStage` still sees the full re-scored pool); ties break
    by id under the engine's shared top-k rule, because the re-ranker
    *is* an evaluator.
    """

    name = "rerank"

    def __init__(self, reranker: Evaluator, spec: RerankSpec) -> None:
        self._reranker = reranker
        self._spec = spec

    def run(
        self, contexts: list[ExecutionContext], state: PipelineState
    ) -> None:
        for row, ctx in enumerate(contexts):
            pool_ids = state.ids[row]
            ctx.stage_stats[self.name] = {
                "mode": self._spec.mode,
                "pool": int(len(pool_ids)),
            }
            state.ids[row], state.scores[row] = self._reranker.evaluate(
                state.queries[row], pool_ids, len(pool_ids)
            )


class FuseStage(Stage):
    """Linear score fusion of each row with a second engine's ranked list.

    Fetches the partner's pool (its own full pipeline, possibly
    cached), then combines both lists with :func:`linear_fusion`.  The
    resulting ``scores`` are fused rank scores in ``[0, 1]``, not
    distances.
    """

    name = "fuse"

    def __init__(
        self, partner: FusionPartner, spec: FusionSpec, plan: QueryPlan
    ) -> None:
        self._partner = partner
        self._spec = spec
        self._plan = plan

    def run(
        self, contexts: list[ExecutionContext], state: PipelineState
    ) -> None:
        for row, ctx in enumerate(contexts):
            other_ids, other_scores = self._partner.fusion_pool(
                state.queries[row], self._plan
            )
            ctx.stage_stats[self.name] = {
                "weight": self._spec.weight,
                "primary": int(len(state.ids[row])),
                "partner": int(len(other_ids)),
            }
            state.ids[row], state.scores[row] = linear_fusion(
                state.ids[row], state.scores[row], other_ids, other_scores,
                self._spec.weight,
            )


class TruncateStage(Stage):
    """Cut each ranked list to the plan's ``k`` (a no-op when already ≤ k).

    The span is shared only by the rows it cut: a row already within
    ``k`` — every row of a plain plan, whose evaluation kept ``k`` —
    is charged nothing, so a plain plan's batch row keeps
    ``total_seconds == retrieval_seconds + evaluation_seconds``, the
    decomposition :func:`repro.eval.latency.stage_latencies_from_results`
    reports.
    """

    name = "truncate"

    def __init__(self, k: int) -> None:
        self._k = k

    def execute(
        self, contexts: list[ExecutionContext], state: PipelineState
    ) -> None:
        k = self._k
        with obs.span(self.name) as span:
            cut = [row for row, ids in enumerate(state.ids) if len(ids) > k]
            for row in cut:
                state.ids[row] = state.ids[row][:k]
                state.scores[row] = state.scores[row][:k]
        for ctx in contexts:
            ctx.stage_seconds[self.name] = 0.0
        for row in cut:
            contexts[row].stage_seconds[self.name] = span.duration / len(cut)


# -- fusion arithmetic -------------------------------------------------

def linear_fusion(
    ids_a: np.ndarray,
    scores_a: np.ndarray,
    ids_b: np.ndarray,
    scores_b: np.ndarray,
    weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted min-max score fusion of two ranked lists, deterministic.

    Each list's scores are min-max normalised to ``[0, 1]`` (a constant
    list normalises to all zeros); a candidate missing from one list
    receives that list's *worst* normalised score (1.0).  The fused
    score is ``weight·norm_a + (1-weight)·norm_b``, ranked ascending
    with ties broken by id — the engine's shared tie rule.
    """
    ids_a = np.asarray(ids_a, dtype=np.int64)
    ids_b = np.asarray(ids_b, dtype=np.int64)
    if not len(ids_a) and not len(ids_b):
        return _EMPTY_IDS, _EMPTY_SCORES
    union = np.union1d(ids_a, ids_b)
    norm_a = np.ones(len(union), dtype=np.float64)
    norm_b = np.ones(len(union), dtype=np.float64)
    if len(ids_a):
        norm_a[np.searchsorted(union, ids_a)] = _minmax(scores_a)
    if len(ids_b):
        norm_b[np.searchsorted(union, ids_b)] = _minmax(scores_b)
    fused = weight * norm_a + (1.0 - weight) * norm_b
    order = np.lexsort((union, fused))
    return union[order], fused[order]


def _minmax(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if not len(scores):
        return _EMPTY_SCORES
    low = float(scores.min())
    span = float(scores.max()) - low
    if span <= 0.0:
        return np.zeros(len(scores), dtype=np.float64)
    return (scores - low) / span


# -- pipeline assembly -------------------------------------------------

def build_pipeline(
    plan: QueryPlan,
    evaluator: Evaluator,
    reranker: Evaluator | None = None,
    partner: FusionPartner | None = None,
) -> list[Stage]:
    """The declarative stage list one plan executes, in order.

    The caller (the engine) resolves ``reranker`` / ``partner`` from
    the plan before building; a plan that names a stage whose
    dependency is missing is an error here, not deep inside execution.
    """
    stages: list[Stage] = [
        RetrieveStage(),
        DedupBudgetStage(plan),
        EvaluateStage(evaluator, plan.evaluate_keep()),
    ]
    if plan.rerank is not None:
        if reranker is None:
            raise ValueError(
                "plan requests a rerank stage but no reranker was resolved"
            )
        stages.append(RerankStage(reranker, plan.rerank))
    if plan.fusion is not None:
        if partner is None:
            raise ValueError(
                "plan requests a fuse stage but no fusion partner was "
                "resolved"
            )
        stages.append(FuseStage(partner, plan.fusion, plan))
    stages.append(TruncateStage(plan.k))
    return stages
