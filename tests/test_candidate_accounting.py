"""Regression: candidates retrieved from several tables count once.

Multi-table retrieval can yield the same item id from more than one
table (or, for probers with overlapping probe sequences, more than one
bucket).  The drain must both deduplicate the gathered ids and count
them deduplicated — double counting inflated ``n_candidates`` (the
reported evaluation cost) and burned the candidate budget on items
already gathered, so the engine stopped before collecting the distinct
candidates the plan asked for.
"""

import numpy as np

from repro.core.gqr import GQR
from repro.data import gaussian_mixture
from repro.hashing import ITQ
from repro.search import HashIndex
from repro.search.engine import (
    ExactEvaluator,
    QueryEngine,
    QueryPlan,
)

#: Twelve 2-D items, enough for every id the hand-built streams yield.
ITEMS = np.arange(24, dtype=np.float64).reshape(12, 2)


def drain(buckets, n_candidates):
    """Run the engine over a hand-built stream; ``k`` keeps every id."""
    stream = iter(np.asarray(bucket, dtype=np.int64) for bucket in buckets)
    engine = QueryEngine(ExactEvaluator(ITEMS))
    plan = QueryPlan(k=len(ITEMS), n_candidates=n_candidates)
    return engine.execute(np.zeros(2), plan, stream)


class TestDrainDeduplication:
    def test_duplicates_across_buckets_counted_once(self):
        result = drain(([1, 3, 7], [3, 5], [2, 9], [7, 11]), 8)
        assert sorted(result.ids.tolist()) == [1, 2, 3, 5, 7, 9, 11]
        # pre-fix: 9 (duplicates double-counted)
        assert result.stats.n_candidates == 7

    def test_budget_buys_distinct_candidates(self):
        # Every bucket repeats id 0; the budget of 4 distinct candidates
        # must keep draining past the duplicates until it is met.
        result = drain(([0, 1], [0, 2], [0, 3], [0, 4]), 4)
        assert sorted(result.ids.tolist()) == [0, 1, 2, 3]
        assert result.stats.n_candidates == 4

    def test_within_bucket_duplicates_collapse(self):
        result = drain(([5, 5, 5, 8],), 10)
        assert sorted(result.ids.tolist()) == [5, 8]
        assert result.stats.n_candidates == 2


class TestTwoTableFixture:
    """Hand-built worst case: two *identical* tables.

    Every bucket is yielded by both tables, so round-robin retrieval
    sees each candidate exactly twice.  With a budget of the full
    dataset the engine must still reach every item — double counting
    would exhaust the budget halfway through and miss true neighbours.
    """

    def build(self, data):
        hashers = [ITQ(code_length=6, seed=0), ITQ(code_length=6, seed=0)]
        return HashIndex(hashers, data, prober=GQR())

    def test_counts_pinned_to_distinct_items(self):
        data = gaussian_mixture(200, 8, n_clusters=4, seed=9)
        index = self.build(data)
        result = index.search(data[0], k=5, n_candidates=len(data))
        assert result.n_candidates == len(data)

    def test_full_budget_recovers_exact_neighbours(self):
        data = gaussian_mixture(200, 8, n_clusters=4, seed=9)
        index = self.build(data)
        for query in data[:5]:
            result = index.search(query, k=5, n_candidates=len(data))
            exact = np.lexsort(
                (np.arange(len(data)),
                 np.linalg.norm(data - query, axis=1))
            )[:5]
            assert np.array_equal(result.ids, exact)
