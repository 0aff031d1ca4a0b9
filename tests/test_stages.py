"""Stage-pipeline behaviour: specs, rerank, fusion arithmetic, caching.

The equivalence suite (`test_pipeline_equivalence.py`) proves the
staged engine is bit-identical to the classic path for plain plans;
this file covers what the new stages *add* — rerank correctness and
tie-handling, ADC-vs-exact agreement, linear fusion math, cache-key
sensitivity to stage parameters — plus the IR report built on top.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import gaussian_mixture, sample_queries
from repro.hashing import ITQ
from repro.quantization.pq import ProductQuantizer
from repro.search import (
    ADCEvaluator,
    ExactEvaluator,
    FusionSpec,
    HashIndex,
    IndexFusionPartner,
    QueryEngine,
    QueryPlan,
    QueryResultCache,
    RerankSpec,
    linear_fusion,
)
from repro.search.engine import CandidatePipeline


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    return gaussian_mixture(800, 16, n_clusters=8, seed=3)


@pytest.fixture(scope="module")
def queries(data) -> np.ndarray:
    return sample_queries(data, 8, seed=4)


def block_stream(candidates: np.ndarray):
    """A deterministic two-bucket candidate stream."""
    half = len(candidates) // 2
    yield np.asarray(candidates[:half], dtype=np.int64)
    yield np.asarray(candidates[half:], dtype=np.int64)


class TestSpecs:
    def test_rerank_spec_validates_mode(self):
        with pytest.raises(ValueError, match="mode"):
            RerankSpec(mode="cosine")

    def test_rerank_spec_validates_pool(self):
        with pytest.raises(ValueError, match="pool"):
            RerankSpec(pool=0)

    def test_fusion_spec_validates_weight(self):
        with pytest.raises(ValueError, match="weight"):
            FusionSpec(weight=1.5)

    def test_fusion_spec_validates_pool(self):
        with pytest.raises(ValueError, match="pool"):
            FusionSpec(pool=-1)

    def test_plan_rejects_wrong_spec_types(self):
        with pytest.raises(TypeError):
            QueryPlan(k=5, n_candidates=10, rerank="exact")
        with pytest.raises(TypeError):
            QueryPlan(k=5, n_candidates=10, fusion=0.5)

    def test_plan_stage_names(self):
        plain = QueryPlan(k=5, n_candidates=10)
        assert plain.stage_names() == (
            "retrieve", "dedup_budget", "evaluate", "truncate"
        )
        full = QueryPlan(
            k=5, n_candidates=10,
            rerank=RerankSpec(), fusion=FusionSpec(),
        )
        assert full.stage_names() == (
            "retrieve", "dedup_budget", "evaluate", "rerank", "fuse",
            "truncate",
        )

    def test_evaluate_keep(self):
        assert QueryPlan(k=5, n_candidates=10).evaluate_keep() == 5
        assert QueryPlan(
            k=5, n_candidates=10, rerank=RerankSpec(pool=50)
        ).evaluate_keep() == 50
        assert QueryPlan(
            k=5, n_candidates=10, rerank=RerankSpec()
        ).evaluate_keep() is None
        assert QueryPlan(
            k=5, n_candidates=10, fusion=FusionSpec(pool=20)
        ).evaluate_keep() == 20
        assert QueryPlan(
            k=5, n_candidates=10, fusion=FusionSpec()
        ).evaluate_keep() == 5


class TestTopKTies:
    """Ties at the cut break by id, whatever argpartition keeps."""

    def test_tied_cut_keeps_the_smallest_ids(self):
        scores = np.ones(40)
        scores[39] = 0.0
        ids, kept = CandidatePipeline.top_k(np.arange(40), scores, 3)
        assert ids.tolist() == [39, 0, 1]
        assert kept.tolist() == [0.0, 1.0, 1.0]

    def test_all_tied_descending_ids(self):
        ids, _ = CandidatePipeline.top_k(np.arange(200)[::-1], np.ones(200), 3)
        assert ids.tolist() == [0, 1, 2]

    def test_integer_scores_tie_by_id(self):
        rng = np.random.default_rng(7)
        candidates = rng.permutation(500)
        scores = rng.integers(0, 4, size=500)
        ids, kept = CandidatePipeline.top_k(candidates, scores, 25)
        order = np.lexsort((candidates, scores))[:25]
        assert ids.tolist() == candidates[order].tolist()
        assert kept.tolist() == scores[order].tolist()


class TestRerank:
    def test_exact_rerank_equals_brute_force_on_pool(self, data, queries):
        """Reranked top-k == exact top-k restricted to the candidate set."""
        pq = ProductQuantizer(n_subspaces=4, seed=0).fit(data)
        engine = QueryEngine(
            ADCEvaluator(pq, pq.encode(data)), name="hash"
        )
        exact = ExactEvaluator(data, "euclidean")
        engine.rerankers["exact"] = exact
        candidates = np.arange(200, dtype=np.int64)
        plan = QueryPlan(k=10, n_candidates=400, rerank=RerankSpec())
        for query in queries:
            result = engine.execute(query, plan, block_stream(candidates))
            want_ids, want_dists = exact.evaluate(query, candidates, 10)
            np.testing.assert_array_equal(result.ids, want_ids)
            np.testing.assert_array_equal(result.distances, want_dists)

    def test_rerank_pool_caps_the_rescored_set(self, data, queries):
        """With pool=p, rerank sees only evaluation's best p survivors."""
        pq = ProductQuantizer(n_subspaces=4, seed=0).fit(data)
        adc = ADCEvaluator(pq, pq.encode(data))
        engine = QueryEngine(adc, name="hash")
        exact = ExactEvaluator(data, "euclidean")
        engine.rerankers["exact"] = exact
        candidates = np.arange(200, dtype=np.int64)
        plan = QueryPlan(k=10, n_candidates=400, rerank=RerankSpec(pool=30))
        query = queries[0]
        result = engine.execute(query, plan, block_stream(candidates))
        pool_ids, _ = adc.evaluate(query, candidates, 30)
        want_ids, want_dists = exact.evaluate(query, pool_ids, 10)
        np.testing.assert_array_equal(result.ids, want_ids)
        np.testing.assert_array_equal(result.distances, want_dists)

    def test_rerank_breaks_ties_by_id(self):
        """Duplicate vectors tie on exact distance; ids order them."""
        base = gaussian_mixture(40, 8, n_clusters=4, seed=5)
        dup = np.vstack([base, base[:10]])  # ids 40..49 duplicate 0..9
        index = HashIndex(ITQ(code_length=4, seed=0), dup)
        query = base[0]
        result = index.search(
            query, k=len(dup), n_candidates=len(dup) * 4,
            rerank=RerankSpec(),
        )
        positions = {int(i): p for p, i in enumerate(result.ids)}
        for original in range(10):
            twin = 40 + original
            if original in positions and twin in positions:
                assert positions[original] < positions[twin]

    def test_adc_rerank_scores_distance_to_reconstruction(self, data):
        """ADC(query, code) is exactly ‖query − decode(code)‖ for PQ."""
        pq = ProductQuantizer(n_subspaces=4, seed=1).fit(data)
        codes = pq.encode(data)
        adc = ADCEvaluator(pq, codes)
        query = data[3] + 0.01
        candidates = np.arange(100, dtype=np.int64)
        ids, scores = adc.evaluate(query, candidates, 100)
        reconstructed = pq.decode(codes[ids])
        want = np.linalg.norm(reconstructed - query, axis=1)
        np.testing.assert_allclose(scores, want, atol=1e-10)

    def test_adc_and_exact_rerank_agree_on_quantizer_fixed_points(self):
        """When candidates sit on their own codewords, ADC == exact, so
        both rerank modes return identical rankings."""
        rng = np.random.default_rng(0)
        centroids = rng.normal(size=(16, 8)) * 10.0
        data = centroids[rng.integers(0, 16, size=120)]
        pq = ProductQuantizer(n_subspaces=1, n_centroids=16, seed=0).fit(
            centroids
        )
        assert pq.quantization_error(data) == pytest.approx(0.0, abs=1e-12)
        index = HashIndex(
            ITQ(code_length=4, seed=0), data,
            rerank_quantizer=pq,
        )
        query = rng.normal(size=8)
        got_exact = index.search(
            query, k=10, n_candidates=480, rerank=RerankSpec(mode="exact")
        )
        got_adc = index.search(
            query, k=10, n_candidates=480, rerank=RerankSpec(mode="adc")
        )
        np.testing.assert_array_equal(got_exact.ids, got_adc.ids)
        np.testing.assert_allclose(
            got_exact.distances, got_adc.distances, atol=1e-8
        )

    def test_unknown_rerank_mode_fails_fast(self, data, queries):
        index = HashIndex(ITQ(code_length=4, seed=0), data)
        with pytest.raises(ValueError, match="adc"):
            index.search(
                queries[0], k=5, n_candidates=50,
                rerank=RerankSpec(mode="adc"),
            )

    def test_stage_stats_record_rerank_facts(self, data, queries):
        index = HashIndex(ITQ(code_length=4, seed=0), data)
        result = index.search(
            queries[0], k=5, n_candidates=50, rerank=RerankSpec(pool=20)
        )
        stats = result.stats.stage_stats["rerank"]
        assert stats["mode"] == "exact"
        assert stats["pool"] <= 20
        assert "rerank" in result.stats.stage_seconds


class TestLinearFusion:
    def test_hand_computed_fusion(self):
        ids_a = np.array([1, 2, 3], dtype=np.int64)
        scores_a = np.array([0.0, 1.0, 2.0])
        ids_b = np.array([2, 3, 4], dtype=np.int64)
        scores_b = np.array([4.0, 0.0, 2.0])
        ids, fused = linear_fusion(ids_a, scores_a, ids_b, scores_b, 0.5)
        # norm_a: 1→0, 2→0.5, 3→1, 4→1 (missing); norm_b: 2→1, 3→0,
        # 4→0.5, 1→1 (missing).  fused = 0.5·a + 0.5·b.
        want = {1: 0.5, 2: 0.75, 3: 0.5, 4: 0.75}
        got = dict(zip(ids.tolist(), fused.tolist()))
        assert got == pytest.approx(want)
        # Ascending by fused score, ties by id: 1, 3 (0.5) then 2, 4.
        assert ids.tolist() == [1, 3, 2, 4]

    def test_weight_extremes_recover_single_lists(self):
        ids_a = np.array([5, 6], dtype=np.int64)
        scores_a = np.array([1.0, 3.0])
        ids_b = np.array([6, 7], dtype=np.int64)
        scores_b = np.array([9.0, 2.0])
        ids_w1, fused_w1 = linear_fusion(
            ids_a, scores_a, ids_b, scores_b, 1.0
        )
        # weight=1: partner contributes nothing; a's members keep their
        # normalised order and b-only members sink to 1.0.
        assert ids_w1.tolist() == [5, 6, 7]
        assert fused_w1.tolist() == pytest.approx([0.0, 1.0, 1.0])

    def test_constant_scores_normalise_to_zero(self):
        ids = np.array([1, 2], dtype=np.int64)
        flat = np.array([7.0, 7.0])
        got_ids, got = linear_fusion(
            ids, flat, np.empty(0, dtype=np.int64), np.empty(0), 0.5
        )
        # constant list → all-zero norms; absent partner list → 1.0.
        assert got_ids.tolist() == [1, 2]
        assert got.tolist() == pytest.approx([0.5, 0.5])

    def test_empty_lists(self):
        empty_i = np.empty(0, dtype=np.int64)
        empty_s = np.empty(0)
        ids, fused = linear_fusion(empty_i, empty_s, empty_i, empty_s, 0.5)
        assert len(ids) == 0 and len(fused) == 0

    def test_fused_search_end_to_end(self, data, queries):
        primary = HashIndex(ITQ(code_length=4, seed=0), data)
        partner = HashIndex(ITQ(code_length=4, seed=9), data)
        primary.fuse_with(partner)
        result = primary.search(
            queries[0], k=10, n_candidates=100,
            fusion=FusionSpec(weight=0.5),
        )
        assert len(result.ids) == 10
        assert "fuse" in result.stats.stage_seconds
        facts = result.stats.stage_stats["fuse"]
        assert facts["weight"] == 0.5
        # Fused scores are normalised ranks, ascending in [0, 1].
        assert (np.diff(result.distances) >= 0).all()
        assert result.distances.min() >= 0.0
        assert result.distances.max() <= 1.0

    def test_fusion_without_partner_fails_fast(self, data, queries):
        index = HashIndex(ITQ(code_length=4, seed=0), data)
        with pytest.raises(ValueError, match="partner"):
            index.search(
                queries[0], k=5, n_candidates=50, fusion=FusionSpec()
            )


class TestCacheStageFingerprint:
    """Satellite 2: cache keys must hash the full serialized stage list.

    The pre-fix key was ``(token, generation, k, n_candidates,
    max_buckets, time_budget, metric, strategy, fingerprint)`` — blind
    to rerank/fusion config, so the two plans below collided and a
    reranked query could be served a candidate-only cached result.
    """

    def test_plans_differing_only_in_rerank_get_distinct_keys(self):
        cache = QueryResultCache(capacity=8)
        query = np.arange(4, dtype=np.float64)
        plain = QueryPlan(k=5, n_candidates=50)
        reranked = QueryPlan(
            k=5, n_candidates=50, rerank=RerankSpec(mode="exact")
        )
        # The legacy flat key fields are identical for the two plans —
        # this is exactly the pair the old scheme collapsed.
        legacy_fields = lambda p: (  # noqa: E731
            p.k, p.n_candidates, p.max_buckets, p.time_budget, p.metric,
            p.multi_table_strategy,
        )
        assert legacy_fields(plain) == legacy_fields(reranked)
        key_plain = cache.key_for("tok", 0, plain, query)
        key_reranked = cache.key_for("tok", 0, reranked, query)
        assert key_plain != key_reranked

    def test_every_stage_parameter_perturbs_the_key(self):
        cache = QueryResultCache(capacity=8)
        query = np.arange(4, dtype=np.float64)
        base = QueryPlan(
            k=5, n_candidates=50,
            rerank=RerankSpec(mode="exact", pool=30),
            fusion=FusionSpec(weight=0.5, pool=20),
        )
        variants = [
            QueryPlan(k=5, n_candidates=50,
                      rerank=RerankSpec(mode="adc", pool=30),
                      fusion=FusionSpec(weight=0.5, pool=20)),
            QueryPlan(k=5, n_candidates=50,
                      rerank=RerankSpec(mode="exact", pool=31),
                      fusion=FusionSpec(weight=0.5, pool=20)),
            QueryPlan(k=5, n_candidates=50,
                      rerank=RerankSpec(mode="exact", pool=30),
                      fusion=FusionSpec(weight=0.25, pool=20)),
            QueryPlan(k=5, n_candidates=50,
                      rerank=RerankSpec(mode="exact", pool=30),
                      fusion=FusionSpec(weight=0.5, pool=21)),
        ]
        base_key = cache.key_for("tok", 0, base, query)
        for variant in variants:
            assert cache.key_for("tok", 0, variant, query) != base_key

    def test_partner_identity_perturbs_the_key(self):
        cache = QueryResultCache(capacity=8)
        query = np.arange(4, dtype=np.float64)
        plan = QueryPlan(k=5, n_candidates=50, fusion=FusionSpec())
        key_a = cache.key_for(
            "tok", 0, plan, query, partner_identity=("index", "p1", 0, None)
        )
        key_b = cache.key_for(
            "tok", 0, plan, query, partner_identity=("index", "p2", 0, None)
        )
        assert key_a != key_b

    def test_cached_reranked_searches_round_trip(self, data, queries):
        index = HashIndex(
            ITQ(code_length=4, seed=0), data,
            cache=QueryResultCache(capacity=32),
        )
        query = queries[0]
        plain = index.search(query, k=5, n_candidates=50)
        reranked = index.search(
            query, k=5, n_candidates=50, rerank=RerankSpec()
        )
        plain_again = index.search(query, k=5, n_candidates=50)
        reranked_again = index.search(
            query, k=5, n_candidates=50, rerank=RerankSpec()
        )
        np.testing.assert_array_equal(plain.ids, plain_again.ids)
        np.testing.assert_array_equal(reranked.ids, reranked_again.ids)
        np.testing.assert_array_equal(
            plain.distances, plain_again.distances
        )
        np.testing.assert_array_equal(
            reranked.distances, reranked_again.distances
        )

    def test_partner_mutation_invalidates_fused_entries(self, data, queries):
        """A fused result must not be served stale after the partner
        index's answers change."""
        primary = HashIndex(
            ITQ(code_length=4, seed=0), data,
            cache=QueryResultCache(capacity=32),
        )
        partner = HashIndex(ITQ(code_length=4, seed=9), data)
        primary.fuse_with(partner)
        query = queries[0]
        plan_kwargs = dict(k=5, n_candidates=50, fusion=FusionSpec())
        first = primary.search(query, **plan_kwargs)
        partner.engine.bump_generation()
        second = primary.search(query, **plan_kwargs)
        np.testing.assert_array_equal(first.ids, second.ids)


class TestIndexFusionPartner:
    def test_identity_tracks_engine_generation(self, data):
        partner_index = HashIndex(ITQ(code_length=4, seed=0), data)
        adapter = IndexFusionPartner(partner_index)
        before = adapter.fusion_identity()
        partner_index.engine.bump_generation()
        after = adapter.fusion_identity()
        assert before != after

    def test_rejects_nonpositive_budget(self, data):
        partner_index = HashIndex(ITQ(code_length=4, seed=0), data)
        with pytest.raises(ValueError, match="n_candidates"):
            IndexFusionPartner(partner_index, n_candidates=0)

    def test_pool_depth_follows_fusion_spec(self, data, queries):
        partner_index = HashIndex(ITQ(code_length=4, seed=0), data)
        adapter = IndexFusionPartner(partner_index)
        plan = QueryPlan(
            k=5, n_candidates=50, fusion=FusionSpec(pool=17)
        )
        ids, scores = adapter.fusion_pool(queries[0], plan)
        assert len(ids) == 17
        assert len(scores) == 17
