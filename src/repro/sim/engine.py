"""A small, fast discrete-event engine: one binary heap, one run loop.

The engine is callback-based: consumers schedule ``fn(*args)`` at an absolute
or relative simulated time. Ties are broken by an explicit priority, then by
scheduling order, which gives the deterministic "end-of-frame before
start-of-frame" semantics the radio model relies on for back-to-back
virtual-packet frames.

There are three ways onto the heap and one way off it:

* :meth:`Simulator.call_later` / :meth:`Simulator.call_at` return a
  :class:`TimerHandle` that can be cancelled and re-armed in place;
* :meth:`Simulator.schedule_call` allocates no handle, for callbacks that
  are never cancelled (ACK turnarounds, generators, the trial watchdog);
* :meth:`Simulator.schedule_fanout` pushes one frame's start/end pair (the
  medium's per-frame fan-out batches, whose receiver entries are
  build-time-specialized ``fn(tx)`` closures — see
  :meth:`repro.phy.medium.Medium.transmit`).

Seq-liveness rule (what makes cancel and re-arm O(1) on a plain heap): every
arm consumes the next sequence number and pushes one
``(time, priority, seq, handle, fn, args)`` entry, and an entry is live iff
``entry[2] == handle.seq``. ``cancel()`` moves the handle's seq to a negative
sentinel and ``reschedule()`` moves it to the next seq, so both simply orphan
the old entry; the run loop drops an orphan when it pops it. Nothing is ever
searched for or removed from the middle of the heap, and a stale entry lives
at most until its own fire time, so the heap holds no more than the arms of
the last longest-delay window. Handle-less entries carry ``None`` in the
handle slot and are always live.

Hot-path notes (every CMAP figure is millions of events, so this file is
deliberately tuned):

* ``heapq`` compares the entry tuples at C speed without calling back into
  Python; ``seq`` is unique, so comparison never reaches the trailing
  elements.
* The arm methods build and push their entries directly instead of sharing a
  helper, and ``run`` inlines the pop loop instead of calling ``step`` per
  event.
* A live-event counter makes :meth:`Simulator.pending_count` O(1): arms
  increment it, and exactly one of ``cancel`` or execution decrements it.
"""

from __future__ import annotations

import heapq
import itertools
from enum import IntEnum
from typing import Any, Callable, List, Optional, Tuple

_GUARD_MSG = (
    "same-instant event scheduled below FRAME_START priority "
    "after an inline fan-out delivery at this instant; this "
    "would break deterministic event ordering"
)


class Priority(IntEnum):
    """Tie-break order for events scheduled at the same instant.

    Lower runs first. Frame ends must be processed before frame starts at the
    same timestamp so a radio finalises one reception before the next
    back-to-back frame arrives.
    """

    FRAME_END = 0
    NORMAL = 1
    FRAME_START = 2
    LATE = 3


#: ``TimerHandle.seq`` values of a handle with no live heap entry. Real
#: sequence numbers are >= 0, so no entry ever matches either.
_CANCELLED = -1
_FIRED = -2


class TimerHandle:
    """A cancellable, re-armable timer returned by ``call_later``/``call_at``.

    ``seq`` names the one heap entry that may still fire this handle (the
    seq-liveness rule in the module docstring); it is negative once the
    timer has fired or been cancelled. Both :meth:`cancel` and
    :meth:`reschedule` are O(1) and neither allocates a handle:
    ``reschedule`` always re-arms in place and returns ``self``, whether
    the handle is pending, cancelled or already fired.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        sim: "Simulator",
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the timer from firing (no-op unless it is pending)."""
        if self.seq >= 0:
            self.seq = _CANCELLED
            self._sim._live -= 1

    @property
    def pending(self) -> bool:
        """True while armed and not yet fired or cancelled."""
        return self.seq >= 0

    @property
    def cancelled(self) -> bool:
        """True from ``cancel()`` of a pending timer until the next re-arm."""
        return self.seq == _CANCELLED

    def reschedule(self, delay: float) -> "TimerHandle":
        """Re-arm ``delay`` seconds from now, in place; returns ``self``.

        A pending arm is superseded (its heap entry is orphaned and never
        fires); a cancelled or fired handle is revived.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        sim = self._sim
        time = sim.now + delay
        if time == sim._inline_guard_time and self.priority < _PRIO_START:
            raise RuntimeError(_GUARD_MSG)
        if self.seq < 0:
            sim._live += 1
        self.time = time
        self.seq = seq = sim._next_seq()
        heapq.heappush(
            sim._heap, (time, self.priority, seq, self, self.fn, self.args)
        )
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {_CANCELLED: "cancelled", _FIRED: "fired"}.get(self.seq, "pending")
        return (
            f"TimerHandle(t={self.time:.9f}, prio={self.priority}, "
            f"{state}, fn={self.fn!r})"
        )


#: Heap entry layout: (time, priority, seq, handle-or-None, fn, args). The
#: handle slot is None for uncancellable schedule_call / fan-out entries.
_Entry = Tuple[float, int, int, Optional[TimerHandle], Callable[..., None], tuple]

#: Plain-int copies of the fan-out priorities (avoids enum attribute lookups
#: on the per-frame path; compare equal to their Priority counterparts).
_PRIO_START = int(Priority.FRAME_START)
_PRIO_END = int(Priority.FRAME_END)


class Simulator:
    """Event queue with a monotonically advancing clock.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.call_later(1.0, out.append, "a")
    >>> _ = sim.call_later(0.5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    """

    #: Slotted: ``sim.now`` (and the heap/counter fields) are read on every
    #: event and every receive-path callback; slot descriptors skip the
    #: instance-dict hash on each access.
    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_next_seq",
        "_events_processed",
        "_live",
        "_inline_guard_time",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        self._next_seq = self._seq.__next__
        self._events_processed = 0
        self._live = 0
        #: While sim-time equals this value, scheduling at the current
        #: instant with priority below FRAME_START raises: the medium has
        #: already delivered this instant's frame-start batch inline, and
        #: such an event would have run before it in the heap layout.
        self._inline_guard_time = -1.0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_later(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = Priority.NORMAL,
    ) -> TimerHandle:
        """Arm a timer for ``fn(*args)`` ``delay`` seconds from now.

        The entry gets the next ``(time, priority, seq)`` key; the returned
        :class:`TimerHandle` cancels it or re-arms it in place.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        if time == self._inline_guard_time and priority < _PRIO_START:
            raise RuntimeError(_GUARD_MSG)
        seq = self._next_seq()
        handle = TimerHandle(time, priority, seq, fn, args, self)
        heapq.heappush(self._heap, (time, priority, seq, handle, fn, args))
        self._live += 1
        return handle

    def call_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = Priority.NORMAL,
    ) -> TimerHandle:
        """Arm a timer at absolute simulated ``time`` (see :meth:`call_later`)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        if time == self._inline_guard_time and priority < _PRIO_START:
            raise RuntimeError(_GUARD_MSG)
        seq = self._next_seq()
        handle = TimerHandle(time, priority, seq, fn, args, self)
        heapq.heappush(self._heap, (time, priority, seq, handle, fn, args))
        self._live += 1
        return handle

    def schedule_call(
        self,
        delay: float,
        fn: Callable[..., None],
        args: tuple = (),
        priority: int = Priority.NORMAL,
    ) -> None:
        """Fast-path schedule with no cancellation handle.

        Identical ordering semantics to :meth:`call_later`, but no
        :class:`TimerHandle` is allocated, so the callback cannot be
        cancelled. Note ``args`` is one tuple, not varargs.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        if time == self._inline_guard_time and priority < _PRIO_START:
            raise RuntimeError(_GUARD_MSG)
        heapq.heappush(
            self._heap, (time, priority, self._next_seq(), None, fn, args)
        )
        self._live += 1

    def schedule_fanout(
        self,
        end_delay: float,
        start_fn: Optional[Callable[..., None]],
        start_args: tuple,
        end_fn: Callable[..., None],
        end_args: tuple,
    ) -> None:
        """Schedule one frame's two fan-out events in a single call.

        ``start_fn(*start_args)`` runs now at FRAME_START priority (skipped
        when ``start_fn`` is None — a frame with no receivers), and
        ``end_fn(*end_args)`` runs ``end_delay`` seconds later at FRAME_END
        priority. Sequence numbers are assigned start-then-end, exactly as
        two consecutive ``schedule_call`` calls would. Neither event is
        cancellable.
        """
        now = self.now
        next_seq = self._next_seq
        heap = self._heap
        push = heapq.heappush
        if start_fn is not None:
            push(heap, (now, _PRIO_START, next_seq(), None, start_fn, start_args))
            self._live += 2
        else:
            self._live += 1
        push(
            heap,
            (now + end_delay, _PRIO_END, next_seq(), None, end_fn, end_args),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event. Returns False when drained."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            handle = entry[3]
            if handle is not None:
                if handle.seq != entry[2]:
                    continue
                handle.seq = _FIRED
            self.now = entry[0]
            self._events_processed += 1
            self._live -= 1
            entry[4](*entry[5])
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, so measurement windows are
        well-defined.
        """
        heap = self._heap
        pop = heapq.heappop
        limit = float("inf") if until is None else until
        # The per-event counter increments are batched into a local and
        # written back on exit; callbacks that credit batched deliveries
        # add to the attribute directly, which commutes with the write-back.
        n = 0
        try:
            while heap and heap[0][0] <= limit:
                entry = pop(heap)
                handle = entry[3]
                if handle is not None:
                    if handle.seq != entry[2]:
                        continue
                    handle.seq = _FIRED
                self.now = entry[0]
                n += 1
                self._live -= 1
                entry[4](*entry[5])
        finally:
            self._events_processed += n
        if until is not None:
            self.now = max(self.now, until)

    def deliver_fanout_inline(self, start_fns: tuple, tx: Any) -> bool:
        """Deliver a frame-start batch inline when nothing pends at now.

        The per-frame fast path, calling each specialized receiver entry
        as ``fn(tx)``. Returns False when an entry is queued at the
        current instant — the caller must then round-trip the batch
        through the heap to preserve ordering. Before the first callback
        the ordering guard arms: until sim-time advances, any schedule at
        this instant with priority below FRAME_START raises instead of
        silently diverging from the heap layout (where it would have run
        before the batch). The raw heap depth — which grows by exactly one
        per arm and never shrinks outside the run loop — is snapshotted
        around the loop to detect scheduling from inside the delivered
        callbacks, and the batch credits one logical event per delivered
        callback, exactly as the heap-scheduled batch would.
        """
        heap = self._heap
        if heap and heap[0][0] <= self.now:
            return False
        self._inline_guard_time = self.now
        depth = len(heap)
        for fn in start_fns:
            fn(tx)
        if len(heap) != depth:
            raise RuntimeError(
                "a frame-start callback scheduled an event during inline "
                "fan-out delivery; this breaks deterministic event "
                "ordering — react from frame-end or MAC timers instead"
            )
        self._events_processed += len(start_fns)
        return True

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            handle = entry[3]
            if handle is None or handle.seq == entry[2]:
                return entry[0]
            heapq.heappop(heap)
        return None

    @property
    def events_processed(self) -> int:
        """Total logical events executed so far (for tests and profiling).

        Batched fan-out events (see :meth:`credit_events`) count once per
        delivered callback, so the number — and the events/sec the perf
        harness derives from it — is comparable across scheduling layouts.
        """
        return self._events_processed

    def credit_events(self, n: int) -> None:
        """Count ``n`` extra logical events inside a batched event.

        The medium delivers one frame edge to all receivers from a single
        heap event; crediting the batch keeps ``events_processed`` equal to
        the per-receiver-event layout it replaced.
        """
        self._events_processed += n

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    def close(self) -> None:
        """Cancel every pending timer and drop the heap (run teardown).

        Heap entries hold the run's callbacks — MAC bound methods, fan-out
        batches, churn and mobility steps over the network — and a
        :class:`TimerHandle` holds its simulator back, so a finished run's
        heap keeps its whole world in reference cycles. After ``close`` the
        engine holds nothing of it, and nothing pends.
        """
        for entry in self._heap:
            handle = entry[3]
            if handle is not None and handle.seq == entry[2]:
                handle.seq = _CANCELLED
        self._heap = []
        self._live = 0
