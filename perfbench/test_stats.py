"""Tests of the benchmark's own helpers.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

import pytest
from stats import (
    Outcomes,
    backlog_growing,
    leftovers,
    min_samples_for,
    open_loop_latencies,
    percentile,
    percentile_supported,
    quartile_spread,
    ratio,
    samples_beyond,
    shm_segments,
    timing_summary,
    windowed_percentile,
)
from tracing import TimedLoop, Tracer, timed_task_factory

# -- percentile support ------------------------------------------------


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(99.0, 1000) == 10
    assert samples_beyond(99.0, 999) == 9
    assert samples_beyond(90.0, 100) == 10
    assert samples_beyond(50.0, 3) == 1


@pytest.mark.parametrize(
    ("pct", "n", "supported"),
    [(99.0, 999, False), (99.0, 1000, True), (90.0, 99, False),
     (90.0, 100, True), (99.9, 10_000, True), (99.9, 9_999, False)],
)
def test_percentile_needs_ten_samples_beyond(pct, n, supported):
    assert percentile_supported(pct, n) is supported


def test_min_samples_for_is_the_support_boundary():
    for pct in (50.0, 90.0, 95.0, 99.0):
        n = min_samples_for(pct)
        assert percentile_supported(pct, n)
        assert not percentile_supported(pct, n - 1)
    assert min_samples_for(99.0) == 1000


def test_timing_summary_refuses_an_unsupported_tail():
    with pytest.raises(ValueError, match="p99 needs 1000"):
        timing_summary([0.001] * 999, 99.0)
    summary = timing_summary([i / 1000 for i in range(1, 1001)], 99.0)
    assert summary["n"] == 1000
    assert summary["p50_ms"] == pytest.approx(500.5)
    assert summary["tail_ms"] == pytest.approx(990.01)


def test_percentile_interpolates_linearly():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([0.0, 10.0], 25.0) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_windowed_percentile_ignores_a_burst_in_one_window():
    calm = [0.001] * 3000
    burst = calm[:1000] + [0.050] * 40 + calm[1040:]
    assert percentile(burst, 99.0) == pytest.approx(0.050)
    assert windowed_percentile(burst, 99.0, 3) == pytest.approx(0.001)
    with pytest.raises(ValueError, match="over 4 windows needs 4000"):
        windowed_percentile(calm, 99.0, 4)


# -- open loop -----------------------------------------------------------


def test_open_loop_latency_counts_from_due_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.0]   # the sender stalled half a second once
    done = [0.1, 1.6, 2.1]
    latencies, lags = open_loop_latencies(due, sent, done)
    assert latencies == pytest.approx([0.1, 0.6, 0.1])
    assert lags == pytest.approx([0.0, 0.5, 0.0])


def test_open_loop_rejects_early_sends_and_misaligned_input():
    with pytest.raises(ValueError, match="before it was due"):
        open_loop_latencies([1.0], [0.5], [2.0])
    with pytest.raises(ValueError, match="align"):
        open_loop_latencies([1.0], [1.0, 2.0], [2.0])


def test_backlog_growing_tells_a_queue_from_a_steady_state():
    sent = [i * 0.01 for i in range(300)]
    steady = [s + 0.02 for s in sent]
    growing = [s + 0.02 + 0.5 * i / 300 for i, s in enumerate(sent)]
    assert not backlog_growing(sent, steady)
    assert backlog_growing(sent, growing)
    assert not backlog_growing([], [])


# -- failure accounting and ratio bases ----------------------------------


def test_outcomes_bases():
    outcomes = Outcomes()
    outcomes.attempted = 100
    outcomes.add("errors")
    outcomes.add("rejected", 3)
    outcomes.add("deadline_missed", 4)
    outcomes.add("wrong", 2)
    # The result line's count: defects only.
    assert outcomes.failed == 3
    # failed_frac: every kind, over attempted.
    assert outcomes.failed_frac == pytest.approx(0.10)
    assert outcomes.ok_frac == pytest.approx(0.90)


def test_outcomes_refuse_bad_bases():
    outcomes = Outcomes()
    with pytest.raises(ValueError, match="no operation"):
        _ = outcomes.failed_frac
    outcomes.attempted = 1
    outcomes.add("rejected", 2)
    with pytest.raises(ValueError, match="more failures"):
        _ = outcomes.failed_frac
    with pytest.raises(KeyError):
        outcomes.add("late")


def test_ratio_and_quartile_spread():
    assert ratio(1, 4) == 0.25
    assert ratio(3, 0) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# -- leftover processes and segments -------------------------------------


def test_leftovers_reports_a_live_child():
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(30,)
    )
    child.start()
    try:
        problems = leftovers(multiprocessing.active_children(), [])
        assert any("child process still alive" in p for p in problems)
    finally:
        child.terminate()
        child.join(timeout=10)
    assert not child.is_alive()
    assert leftovers(multiprocessing.active_children(), []) == []


def test_shm_segments_match_only_this_pid(tmp_path):
    for name in ("repro-42-1", "repro-42-2", "repro-420-1", "other-42-1"):
        (tmp_path / name).write_bytes(b"")
    found = shm_segments(42, str(tmp_path))
    assert [p.rsplit("/", 1)[1] for p in found] == ["repro-42-1", "repro-42-2"]
    assert "shared-memory segment left" in leftovers([], found)[0]


# -- tracer ----------------------------------------------------------------


class _Layered:
    def outer(self, inner_calls: int) -> int:
        time.sleep(0.01)
        for _ in range(inner_calls):
            self.inner()
        return inner_calls

    def inner(self) -> None:
        time.sleep(0.005)

    def numbers(self, n: int):
        for i in range(n):
            time.sleep(0.002)
            yield i


def test_tracer_self_times_reconcile_with_wall_time():
    obj = _Layered()
    tracer = Tracer()
    tracer.wrap(obj, "outer", "a.outer", "a")
    tracer.wrap(obj, "inner", "b.inner", "b", record=False)
    tracer.wrap_pulls(obj, "numbers", "c.pull", "c")
    start = time.perf_counter()
    assert obj.outer(3) == 3
    assert list(obj.numbers(4)) == [0, 1, 2, 3]
    wall = time.perf_counter() - start
    layers = tracer.layer_seconds()
    assert layers["b"] >= 0.015
    assert layers["a"] >= 0.01
    assert layers["c"] >= 0.008
    assert tracer.op_calls("b.inner") == 3
    # Four items plus the pull that ends the iteration.
    assert tracer.op_calls("c.pull") == 5
    main = tracer.main_state()
    covered = sum(main.layer_self.values())
    assert covered <= wall
    assert covered == pytest.approx(main.top_seconds)
    # One recorded span (outer); inner calls and pulls are aggregated.
    assert [span[2] for span in main.spans] == ["a.outer"]


def test_tracer_uninstall_restores_methods_and_suspension_skips_frames():
    obj = _Layered()
    tracer = Tracer()
    tracer.wrap(obj, "inner", "b.inner", "b")
    with tracer.suspended():
        obj.inner()
    assert tracer.op_calls("b.inner") == 0
    obj.inner()
    assert tracer.op_calls("b.inner") == 1
    tracer.uninstall()
    assert "inner" not in vars(obj)
    with pytest.raises(ValueError, match="already an instance attribute"):
        obj.inner = obj.inner
        tracer.wrap(obj, "inner", "b.inner", "b")


def test_timed_loop_covers_an_event_loop_run():
    tracer = Tracer()
    loop = TimedLoop(tracer)
    loop.set_task_factory(timed_task_factory(tracer, lambda _name: "bench"))

    async def client() -> None:
        for _ in range(10):
            await asyncio.sleep(0.002)
            spin = time.perf_counter() + 0.002
            while time.perf_counter() < spin:
                pass

    start = time.perf_counter()
    try:
        loop.run_until_complete(loop.create_task(client()))
    finally:
        loop.close()
    wall = time.perf_counter() - start
    layers = tracer.main_state().layer_self
    # Task steps book to the coroutine's layer, selector waits to idle,
    # and the rest of each iteration to the loop itself.
    assert layers["bench"] >= 0.02
    assert layers["idle"] > 0.0
    assert layers["loop"] > 0.0
    assert sum(layers.values()) >= 0.9 * wall
