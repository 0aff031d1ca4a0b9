"""Pure helpers of the benchmark: percentiles, ratios, leftover checks.

Nothing here imports :mod:`repro`; the tests in ``test_stats.py``
exercise every rule in isolation.
"""

from __future__ import annotations

import glob
import math
import os
import statistics
from collections.abc import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer make the tail a handful of anecdotes.
MIN_BEYOND = 10


def samples_beyond(percentile: float, n_samples: int) -> int:
    """How many of ``n_samples`` lie strictly above ``percentile``."""
    if not 0.0 < percentile < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    # Rounded first so 1000 * (1 - 0.99) counts as 10, not 9.999...
    return math.floor(round(n_samples * (100.0 - percentile) / 100.0, 9))


def percentile_supported(
    percentile: float, n_samples: int, min_beyond: int = MIN_BEYOND
) -> bool:
    """Whether a sample of ``n_samples`` supports ``percentile``."""
    return samples_beyond(percentile, n_samples) >= min_beyond


def min_samples_for(percentile: float, min_beyond: int = MIN_BEYOND) -> int:
    """The smallest sample count that supports ``percentile``."""
    n = min_beyond
    while not percentile_supported(percentile, n, min_beyond):
        n += 1
    return n


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def timing_summary(seconds: Sequence[float], tail: float) -> dict:
    """Median and ``tail`` percentile in ms, with the sample count.

    Raises when the sample does not support the tail percentile: the
    caller sized the run wrong, and a tail read off too few samples
    must not be published.
    """
    n = len(seconds)
    if not percentile_supported(tail, n):
        raise ValueError(
            f"p{tail:g} needs {min_samples_for(tail)} samples, got {n}"
        )
    return {
        "p50_ms": percentile(seconds, 50.0) * 1e3,
        "tail_ms": percentile(seconds, tail) * 1e3,
        "tail_pct": tail,
        "n": n,
    }


def windowed_percentile(
    values: Sequence[float], pct: float, windows: int
) -> float:
    """Median over ``windows`` consecutive slices of each slice's percentile.

    A burst of outside interference (a stolen CPU slice, a collection
    pause) lands in one slice and moves that slice's tail only.  Every
    slice must support ``pct`` on its own.
    """
    if windows < 1:
        raise ValueError("windows must be positive")
    size = len(values) // windows
    if not percentile_supported(pct, size):
        raise ValueError(
            f"p{pct:g} over {windows} windows needs "
            f"{windows * min_samples_for(pct)} samples, got {len(values)}"
        )
    return statistics.median(
        percentile(values[i * size : (i + 1) * size], pct)
        for i in range(windows)
    )


def open_loop_latencies(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Per-request latency from the due time, and generator lag.

    Latency counts from when a request was *due*, not when it was sent,
    so a stalled sender charges its stall to every request it delayed.
    Lag is how late the sender ran (never negative: an early send is a
    bug in the sender, reported as a failure by the caller).
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done must align")
    latencies = [d - t for t, d in zip(due, done)]
    lags = [s - t for t, s in zip(due, sent)]
    if any(lag < 0 for lag in lags):
        raise ValueError("a request was sent before it was due")
    return latencies, lags


def recall_at_k(found: Iterable[int], exact: Iterable[int], k: int) -> float:
    """|found ∩ exact| / k over the first ``k`` of each list."""
    found_k = list(found)[:k]
    exact_k = list(exact)[:k]
    if len(exact_k) < k:
        raise ValueError(f"exact list has fewer than {k} ids")
    return len(set(found_k) & set(exact_k)) / k


class Outcomes:
    """Per-workload operation accounting and its ratio bases.

    ``attempted`` counts every operation the benchmark issued.  The
    four failure kinds are disjoint per operation; ``failed_frac`` is
    their sum over ``attempted`` (a refused or late request misses the
    latency limit like an error does).  ``failed`` — the count the
    result line reports — is errors plus wrong answers only: refusals
    and deadline misses are the serving layer's designed response to
    overload and are measured, not treated as defects.
    """

    KINDS = ("errors", "rejected", "deadline_missed", "wrong")

    def __init__(self) -> None:
        self.attempted = 0
        self.counts = dict.fromkeys(self.KINDS, 0)
        self.checked = 0

    def add(self, kind: str, n: int = 1) -> None:
        if kind not in self.counts:
            raise KeyError(f"unknown outcome {kind!r}")
        self.counts[kind] += n

    @property
    def failed(self) -> int:
        return self.counts["errors"] + self.counts["wrong"]

    @property
    def failed_frac(self) -> float:
        if self.attempted < 1:
            raise ValueError("no operation attempted")
        total = sum(self.counts.values())
        if total > self.attempted:
            raise ValueError("more failures than attempts")
        return total / self.attempted

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed_frac


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 for an empty base."""
    return numerator / denominator if denominator else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


def backlog_growing(
    sent: Sequence[float], done: Sequence[float], windows: int = 3
) -> bool:
    """Whether the number of requests in flight grows across a step.

    Samples the in-flight count (sent, not yet done) at evenly spaced
    times over the sending span and compares the mean of the last
    ``1/windows`` with the first: a rate whose backlog keeps growing is
    not sustainable even when admission control hides it in refusals.
    """
    if len(sent) != len(done):
        raise ValueError("sent and done must align")
    if len(sent) < 2:
        return False
    start, end = min(sent), max(sent)
    if end <= start:
        return False
    points = windows * 10 + 1
    times = [start + (end - start) * i / (points - 1) for i in range(points)]
    inflight = [
        sum(1 for s, d in zip(sent, done) if s <= t < d) for t in times
    ]
    per = points // windows
    first = statistics.fmean(inflight[:per])
    last = statistics.fmean(inflight[-per:])
    return last > 2.0 * first + 4.0


# -- process hygiene ---------------------------------------------------

def shm_segments(pid: int, shm_dir: str = "/dev/shm") -> list[str]:
    """This process's ``repro-<pid>-*`` shared-memory segments."""
    return sorted(glob.glob(os.path.join(shm_dir, f"repro-{pid}-*")))


def leftovers(children: Sequence[object], segments: Sequence[str]) -> list[str]:
    """Human-readable reasons the run did not clean up, empty if clean."""
    problems = [f"child process still alive: {child}" for child in children]
    problems += [f"shared-memory segment left: {seg}" for seg in segments]
    return problems


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process in MB, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return 0.0
    return 0.0
