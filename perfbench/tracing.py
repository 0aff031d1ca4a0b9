"""Benchmark-side tracing: timed wrappers around calls into each layer.

The tracer never edits the program.  It replaces *instance* attributes
of objects the benchmark itself built (``index.search``,
``hasher.probe_info``, ``cache.lookup``, ...) with wrappers that push a
frame on a per-thread stack, so every wrapped call knows its parent.
On return a frame contributes

* its duration to its parent's child time,
* its self time (duration minus children) to its layer's total,
* one call and its duration to its operation's totals,

and, for coarse operations, one span record ``(id, parent, op, start,
end)`` kept in memory and written out when the run ends.  Fine-grained
operations (one pull of a probe generator, one bucket fetch) run
hundreds of thousands of times per second; they are aggregated, not
recorded one span each.

Self times reconcile by construction: on any thread, the layer self
times plus the time covered by no frame equal the thread's wall time.
The tracer's own bookkeeping around each frame is timed too and booked
to a ``trace`` layer, so it does not inflate the caller's self time.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import selectors
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Per-thread cap on recorded spans; beyond it spans are counted only.
MAX_SPANS = 200_000


class _ThreadState:
    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[list[float]] = []
        self.layer_self: defaultdict[str, float] = defaultdict(float)
        self.op_seconds: defaultdict[str, float] = defaultdict(float)
        self.op_calls: defaultdict[str, int] = defaultdict(int)
        self.top_seconds = 0.0
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.suspended = False


class Tracer:
    """Per-thread frame stacks, layer self times and span records."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _close_frame(
        self,
        state: _ThreadState,
        frame: list[float],
        op: str,
        layer: str,
        start: float,
        end: float,
        record: bool,
        entered: float | None = None,
    ) -> None:
        duration = end - start
        stack = state.stack
        if record:
            if len(state.spans) < MAX_SPANS:
                parent = int(stack[-1][1]) if stack else 0
                state.spans.append((int(frame[1]), parent, op, start, end))
            else:
                state.dropped += 1
        state.layer_self[layer] += duration - frame[0]
        state.op_seconds[op] += duration
        state.op_calls[op] += 1
        if entered is not None:
            # The tracer's own bookkeeping around the frame is booked to
            # the "trace" layer instead of inflating the parent's self time.
            overhead = (start - entered) + (time.perf_counter() - end)
            state.layer_self["trace"] += overhead
            duration += overhead
        if stack:
            stack[-1][0] += duration
        else:
            state.top_seconds += duration

    def call(
        self,
        op: str,
        layer: str,
        fn: Callable[..., Any],
        *args: Any,
        record: bool = True,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` inside one frame of ``op`` in ``layer``."""
        entered = time.perf_counter()
        state = self._state()
        if state.suspended:
            return fn(*args, **kwargs)
        frame = [0.0, float(next(self._ids)) if record else 0.0]
        state.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            state.stack.pop()
            self._close_frame(
                state, frame, op, layer, start, end, record, entered
            )

    def pulls(self, op: str, layer: str, iterator: Iterator[Any]) -> Iterator[Any]:
        """Re-yield ``iterator``, timing each pull as one unrecorded frame."""
        state = self._state()
        if state.suspended:
            yield from iterator
            return
        stack = state.stack
        clock = time.perf_counter
        try:
            while True:
                entered = clock()
                frame = [0.0, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    self._close_frame(
                        state, frame, op, layer, start, end, False, entered
                    )
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def account(self, op: str, layer: str, start: float, end: float) -> None:
        """Book an interval measured elsewhere as one leaf frame."""
        state = self._state()
        self._close_frame(state, [0.0, 0.0], op, layer, start, end, False)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Run the body untraced on this thread (checks between timed work)."""
        state = self._state()
        state.suspended = True
        try:
            yield
        finally:
            state.suspended = False

    # -- installation -------------------------------------------------

    def wrap(
        self,
        obj: object,
        attr: str,
        op: str,
        layer: str,
        record: bool = True,
        on_call: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Time every call of ``obj.attr`` as a frame of ``op``.

        ``on_call(args, result)`` runs after each call, outside the
        frame, to count what the call returned (e.g. non-empty fetches).
        """
        original = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(
                op, layer, original, *args, record=record, **kwargs
            )
            if on_call is not None and not self._state().suspended:
                on_call(args, result)
            return result

        self._install(obj, attr, traced)

    def wrap_pulls(
        self, obj: object, attr: str, op: str, layer: str
    ) -> None:
        """``obj.attr`` returns an iterator; time each pull of it."""
        original = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return self.pulls(op, layer, iter(original(*args, **kwargs)))

        self._install(obj, attr, traced)

    def _install(self, obj: object, attr: str, traced: Callable) -> None:
        if attr in vars(obj):
            raise ValueError(f"{obj!r}.{attr} is already an instance attribute")
        setattr(obj, attr, traced)
        self._installed.append((obj, attr))

    def uninstall(self) -> None:
        """Remove every wrapper; the objects' own methods show again."""
        while self._installed:
            obj, attr = self._installed.pop()
            delattr(obj, attr)

    # -- results ------------------------------------------------------

    def threads(self) -> list[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def main_state(self) -> _ThreadState:
        """The calling thread's state (created empty if it has none)."""
        return self._state()

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per layer, summed over every thread."""
        totals: defaultdict[str, float] = defaultdict(float)
        for state in self.threads():
            for layer, seconds in state.layer_self.items():
                totals[layer] += seconds
        return dict(totals)

    def op_seconds(self, op: str) -> float:
        return sum(s.op_seconds.get(op, 0.0) for s in self.threads())

    def op_calls(self, op: str) -> int:
        return sum(s.op_calls.get(op, 0) for s in self.threads())

    def write(self, path: Path, meta: dict) -> None:
        """Write the recorded spans (per thread) as one JSON document."""
        doc = {
            "meta": meta,
            "span_fields": ["id", "parent", "op", "start", "end"],
            "threads": [
                {
                    "name": state.name,
                    "dropped": state.dropped,
                    "spans": [
                        [sid, parent, op, round(start, 9), round(end, 9)]
                        for sid, parent, op, start, end in state.spans
                    ],
                }
                for state in self.threads()
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


class _Steps:
    """Awaitable that runs a coroutine one timed step at a time.

    Each ``send``/``throw`` into the wrapped coroutine — the run of a
    task between two suspensions — becomes one frame, so the work an
    event loop does inside tasks is covered by spans.
    """

    def __init__(self, tracer: Tracer, coro: Any, op: str, layer: str) -> None:
        self._tracer = tracer
        self._coro = coro
        self._op = op
        self._layer = layer

    def __await__(self) -> Iterator[Any]:
        value: Any = None
        error: BaseException | None = None
        call = self._tracer.call
        while True:
            try:
                if error is None:
                    yielded = call(self._op, self._layer, self._coro.send, value)
                else:
                    yielded = call(self._op, self._layer, self._coro.throw, error)
            except StopIteration as stop:
                return stop.value
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # reprolint: disable=RL005 -- thrown into the coroutine, which decides
                value, error = None, exc


def timed_task_factory(
    tracer: Tracer, layer_of: Callable[[str], str]
) -> Callable[..., asyncio.Task]:
    """A task factory (``loop.set_task_factory``) timing every task step.

    ``layer_of`` maps a coroutine's qualified name to its layer; the op
    is ``<layer>.<qualname>``.
    """

    async def drive(coro: Any, op: str, layer: str) -> Any:
        return await _Steps(tracer, coro, op, layer)

    def factory(
        loop: asyncio.AbstractEventLoop, coro: Any, **kwargs: Any
    ) -> asyncio.Task:
        name = getattr(coro, "__qualname__", type(coro).__name__)
        layer = layer_of(name)
        return asyncio.Task(
            drive(coro, f"{layer}.{name}", layer), loop=loop, **kwargs
        )

    return factory


class IdleTimingSelector(selectors.DefaultSelector):
    """The event loop's selector, booking each wait as ``idle`` time.

    Handed to :class:`asyncio.SelectorEventLoop` so an open-loop run's
    idle time (the loop waiting for timers or executor callbacks) is
    measured rather than left uncovered.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout: float | None = None) -> list:
        start = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self._tracer.account("loop.wait", "idle", start, time.perf_counter())


class TimedLoop(asyncio.SelectorEventLoop):
    """An event loop whose every iteration is one ``loop`` frame.

    Waits in the selector are booked as ``idle`` and task steps as the
    layer of their coroutine (:func:`timed_task_factory`), both as child
    frames; what remains of an iteration is the loop's own dispatch
    work (timers, ready callbacks, future completions, executor
    hand-offs), booked to ``loop`` rather than left uncovered.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(IdleTimingSelector(tracer))
        self._bench_tracer = tracer

    def _run_once(self) -> None:
        self._bench_tracer.call(
            "loop.iteration", "loop", super()._run_once, record=False
        )
