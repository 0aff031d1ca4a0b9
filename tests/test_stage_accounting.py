"""Every execution route times the stages its plan executes.

The engine runs one stage pipeline on every route: a lone query (a
batch of one), a batch over per-query streams, a batch from the
vectorised ordered gather, thread-pool shards and shared-memory process
shards.  So every result's ``stats.stage_seconds`` names exactly the
plan's stages, and every route agrees on the answers — also on a
corpus of duplicate vectors, whose distances tie at the cut.
"""

import multiprocessing

import numpy as np
import pytest

from repro import obs
from repro.core.gqr import GQR
from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.search import HashIndex, ParallelBatchExecutor, RerankSpec

DATA = gaussian_mixture(600, 16, n_clusters=8, seed=41)
QUERIES = sample_queries(DATA, 24, seed=42)
K = 5
BUDGET = 80

RERANKS = {"plain": None, "rerank": RerankSpec("exact", pool=40)}


@pytest.fixture(scope="module")
def thread_executor():
    executor = ParallelBatchExecutor(n_workers=2, min_batch_size=8)
    yield executor
    executor.shutdown()


@pytest.fixture(scope="module")
def process_executor():
    executor = ParallelBatchExecutor(
        n_workers=2, min_batch_size=8, mode="process"
    )
    yield executor
    executor.shutdown()
    assert not multiprocessing.active_children()


def build(parallel=None):
    return HashIndex(
        ITQ(code_length=8, seed=0), DATA, prober=GQR(), parallel=parallel
    )


def batch_streams(index, plan):
    streams = [index.candidate_stream(q) for q in QUERIES]
    return index.engine.execute_batch_streams(QUERIES, plan, streams)


def run_routes(rerank, thread_executor, process_executor):
    """Each route's results for the same queries and plan."""
    serial = build()
    threaded = build(thread_executor)
    pooled = build(process_executor)
    plan = serial.plan(K, BUDGET, rerank=rerank)
    with obs.telemetry_session() as telemetry:
        routes = {
            "execute": [
                serial.search(q, k=K, n_candidates=BUDGET, rerank=rerank)
                for q in QUERIES
            ],
            "batch streams": batch_streams(serial, plan),
            "batch ordered": serial.search_batch(
                QUERIES, k=K, n_candidates=BUDGET, rerank=rerank
            ),
            "thread shards, streams": batch_streams(threaded, plan),
            "thread shards, ordered": threaded.search_batch(
                QUERIES, k=K, n_candidates=BUDGET, rerank=rerank
            ),
            "process shards": pooled.search_batch(
                QUERIES, k=K, n_candidates=BUDGET, rerank=rerank
            ),
        }
        shards = telemetry.registry.get("repro_parallel_shards_total")
        assert shards.labels(mode="thread").value > 0
        assert shards.labels(mode="process").value > 0
    return plan, routes


@pytest.mark.parametrize("name", sorted(RERANKS))
def test_every_route_times_every_plan_stage(
    name, thread_executor, process_executor
):
    plan, routes = run_routes(
        RERANKS[name], thread_executor, process_executor
    )
    want = set(plan.stage_names())
    for route, results in routes.items():
        assert len(results) == len(QUERIES), route
        for result in results:
            assert set(result.stats.stage_seconds) == want, route
            assert result.stats.retrieval_seconds == pytest.approx(
                result.stats.stage_seconds["retrieve"]
                + result.stats.stage_seconds["dedup_budget"]
            ), route


@pytest.mark.parametrize("name", sorted(RERANKS))
def test_every_route_returns_the_same_answers(
    name, thread_executor, process_executor
):
    _, routes = run_routes(RERANKS[name], thread_executor, process_executor)
    reference = routes.pop("execute")
    for route, results in routes.items():
        for got, want in zip(results, reference):
            assert np.array_equal(got.ids, want.ids), route
            assert np.array_equal(got.distances, want.distances), route
            assert got.n_candidates == want.n_candidates, route


#: 150 distinct vectors, each stored four times: ids ``i``, ``i + 150``,
#: ``i + 300`` and ``i + 450`` tie on every distance.
TWINS = np.tile(gaussian_mixture(150, 16, n_clusters=6, seed=43), (4, 1))


@pytest.mark.parametrize("n_tables", [1, 2])
def test_routes_agree_on_tied_distances(n_tables, thread_executor):
    """Batch rows keep the same tied ids as the same query searched alone.

    Two tables send batches down the streams route, one table down the
    ordered gather; ``k`` = 6 cuts through a group of four twins, and
    a budget of 200 candidates is large enough for argpartition's
    introselect to pick among ties differently in differently padded
    arrays.
    """
    hashers = [ITQ(code_length=8, seed=seed) for seed in range(n_tables)]
    for hasher in hashers:
        hasher.fit(TWINS)
    queries = sample_queries(TWINS, 24, seed=44)
    serial = HashIndex(hashers, TWINS, prober=GQR())
    threaded = HashIndex(
        hashers, TWINS, prober=GQR(), parallel=thread_executor
    )
    alone = [serial.search(q, k=6, n_candidates=200) for q in queries]
    for index in (serial, threaded):
        batch = index.search_batch(queries, k=6, n_candidates=200)
        for got, want in zip(batch, alone):
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.distances, want.distances)
    for result in alone:
        # Ties are broken by id: twins come out in ascending id order.
        for a, b in zip(result.ids[:-1], result.ids[1:]):
            if np.array_equal(TWINS[a], TWINS[b]):
                assert a < b
