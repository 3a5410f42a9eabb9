"""Shared MAC machinery: packet model, queues, stats, radio callbacks.

A MAC owns one radio. Traffic reaches it either through :meth:`enqueue`
(pushed, e.g. CBR) or through a *pull source* (saturated senders ask for the
next packet on demand, which models the paper's "transmit as fast as they
can" workloads without unbounded queues). Received application payloads are
handed to a sink callback; duplicate suppression happens in the sink, since
"throughput" in the paper is *non-duplicate* packets per second (§5.1).

Timers: MACs do not juggle raw engine events. :class:`TimerRegistry`
(``self.timers``) names every timer (``"difs"``, ``("win", dst)``, ...),
arms it through the engine's :meth:`Simulator.call_later`,
reuses the underlying :class:`~repro.sim.engine.TimerHandle` across
re-arms, and is drained wholesale by the final :meth:`MacBase.stop` —
subclasses hook ``_on_start``/``_on_stop`` instead of overriding the
lifecycle methods, which removes the per-MAC cancel boilerplate the churn
paths used to duplicate. ``benchmarks/check_timer_api.py`` enforces in CI
that no MAC constructs raw engine events.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.frames import Frame, FrameKind
    from repro.phy.radio import Radio
    from repro.phy.reception import Reception
    from repro.sim.engine import Simulator, TimerHandle

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """An application-layer packet handed to a MAC for delivery."""

    dst: int
    size_bytes: int = 1400
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created: float = 0.0


#: Sink signature: (src, dst, packet_id, size_bytes, time_received).
SinkFn = Callable[[int, int, int, int, float], None]


@dataclass(slots=True)
class MacStats:
    """Counters every MAC maintains."""

    packets_offered: int = 0
    data_frames_sent: int = 0
    data_frames_received_ok: int = 0
    packets_delivered_up: int = 0
    packets_dropped: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    ack_timeouts: int = 0


class TimerRegistry:
    """Named timers for one MAC: arm/cancel by name, drain on stop.

    Each name (any hashable — hot per-destination timers use tuples like
    ``("win", dst)``) maps to one :class:`TimerHandle` that is reused
    across re-arms: arming a name that already holds a handle with the
    same callback reschedules it in place (no allocation, no dict
    store), and a cancelled name keeps its handle for revival on the next
    arm. ``cancel_all`` is the lifecycle drain :meth:`MacBase.stop`
    relies on, which is what lets the per-MAC stop overrides collapse.
    """

    __slots__ = ("_sim", "_timers")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._timers: Dict[Hashable, "TimerHandle"] = {}

    def arm(
        self,
        name: Hashable,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
    ) -> None:
        """Arm (or re-arm) the named timer ``delay`` seconds from now.

        An already-armed name is superseded: its previous arm never fires.
        Registry timers always run at NORMAL priority.
        """
        handle = self._timers.get(name)
        if handle is not None:
            # Identity check: MACs arm with bound callbacks folded into
            # slots at __init__, so the reuse fast path never needs the
            # (much slower) method `==`. A non-identical callback falls
            # through to cancel + fresh arm, which consumes the same one
            # seq as reschedule — the choice is invisible to event order.
            if handle.fn is fn and handle.args == args:
                handle.reschedule(delay)
                return
            handle.cancel()
        self._timers[name] = self._sim.call_later(delay, fn, *args)

    def cancel(self, name: Hashable) -> None:
        """Cancel the named timer (no-op when not armed).

        The handle is kept for reuse by the next :meth:`arm` of the name.
        """
        handle = self._timers.get(name)
        # `handle.seq >= 0` is TimerHandle.pending inlined; the property
        # call costs more than the whole rest of this method on the
        # ACK-cancel hot path.
        if handle is not None and handle.seq >= 0:
            handle.cancel()

    def cancel_all(self) -> None:
        """Cancel every armed timer (the stop-lifecycle drain)."""
        for handle in self._timers.values():
            handle.cancel()

    def is_armed(self, name: Hashable) -> bool:
        """True while the named timer is armed and not yet fired."""
        handle = self._timers.get(name)
        return handle is not None and handle.seq >= 0

    def fire_time(self, name: Hashable) -> Optional[float]:
        """Absolute fire time of the named timer, or None when not armed."""
        handle = self._timers.get(name)
        if handle is not None and handle.seq >= 0:
            return handle.time
        return None

    def pending_count(self) -> int:
        """Number of currently armed timers (test/debug aid)."""
        return sum(1 for h in self._timers.values() if h.pending)


class MacBase:
    """Base class wiring a MAC to its radio, queue, source, and sink."""

    #: Slotted: per-event MAC callbacks touch sim/radio/stats/_queue on
    #: every frame. ``__dict__`` stays available (here only, not repeated
    #: in subclasses) so tests and wrappers can still attach ad-hoc
    #: attributes; slotted names keep descriptor-speed access regardless.
    __slots__ = (
        "sim",
        "node_id",
        "radio",
        "rng",
        "stats",
        "tracer",
        "timers",
        "_queue",
        "_source",
        "_sink",
        "_started",
        "__dict__",
    )

    #: RNG consumption contract of this MAC class. ``"uniform"`` declares
    #: that every draw on ``self.rng`` is ``random()`` or
    #: ``uniform(lo, hi)`` (one double each), which lets the kernel layer
    #: serve the stream from a block-refilled buffer, bit-identically (see
    #: :mod:`repro.kernels.rngbuf`). ``"raw"`` (e.g. DCF's varying-bound
    #: ``integers`` backoff draws) keeps the scalar generator.
    RNG_DRAW_KIND = "raw"

    #: Frame kinds this MAC reads when they are addressed to another node
    #: (overheard), as a tuple; ``None`` reads every frame. The radio
    #: skips interference tracking and scoring for a synced frame that is
    #: neither addressed to this node, nor broadcast, nor of a listed kind,
    #: and never passes it to :meth:`on_frame_received` — so a MAC must list
    #: every kind whose overheard copies it acts on.
    READS_OVERHEARD: Optional[Tuple["FrameKind", ...]] = None

    #: The ``_cb_*`` slots of a class and its bases: the bound timer
    #: callbacks subclasses fold once at ``__init__``, dropped by close().
    _callback_slots: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._callback_slots = tuple(
            name
            for klass in cls.__mro__
            for name in vars(klass).get("__slots__", ())
            if name.startswith("_cb_")
        )

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        radio: "Radio",
        rng: np.random.Generator,
    ):
        self.sim = sim
        self.node_id = node_id
        self.radio = radio
        if self.RNG_DRAW_KIND == "uniform":
            from repro.kernels.backend import wrap_uniform_stream

            rng = wrap_uniform_stream(rng)
        self.rng = rng
        radio.mac = self
        radio.reads_overheard = self.READS_OVERHEARD
        self.stats = MacStats()
        # Structured tracing hook; Network installs a real Tracer on demand.
        from repro.tracing import NULL_TRACER

        self.tracer = NULL_TRACER
        self.timers = TimerRegistry(sim)
        self._queue: Deque[Packet] = deque()
        self._source = None  # pull source, see attach_source()
        self._sink: Optional[SinkFn] = None
        self._started = False

    # ------------------------------------------------------------------
    # Traffic plumbing
    # ------------------------------------------------------------------
    def attach_source(self, source) -> None:
        """Attach a pull source providing ``next_packet() -> Packet | None``."""
        self._source = source

    def attach_sink(self, sink: SinkFn) -> None:
        """Attach the callback invoked once per received data packet copy."""
        self._sink = sink

    def enqueue(self, packet: Packet) -> None:
        """Push a packet; wakes the MAC if it is idle."""
        packet.created = self.sim.now
        self._queue.append(packet)
        self.stats.packets_offered += 1
        if self._started:
            self.on_queue_refill()

    def next_packet(self) -> Optional[Packet]:
        """Pop the next packet to send (queue first, then the pull source)."""
        if self._queue:
            return self._queue.popleft()
        if self._source is not None and self._source.has_packet():
            pkt = self._source.next_packet()
            if pkt is not None:
                self.stats.packets_offered += 1
            return pkt
        return None

    def deliver_up(self, src: int, packet_id: int, size_bytes: int) -> None:
        """Hand a received data payload to the sink."""
        self.stats.packets_delivered_up += 1
        if self._sink is not None:
            self._sink(src, self.node_id, packet_id, size_bytes, self.sim.now)

    # ------------------------------------------------------------------
    # Lifecycle and radio callbacks (subclasses override)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin operation. Template method — subclasses hook ``_on_start``."""
        self._started = True
        self._on_start()

    def stop(self) -> None:
        """Cease operation (node churned out); idempotent.

        Template method: after the ``_on_stop`` hook resets subclass
        state, every named timer is drained via
        :meth:`TimerRegistry.cancel_all` — subclasses do not cancel
        timers themselves. Un-cancellable callbacks already in the heap
        (``schedule_call`` ACKs, relays) must check ``self._started``
        before transmitting.
        """
        self._started = False
        self._on_stop()
        self.timers.cancel_all()

    def close(self) -> None:
        """Release this MAC from a finished run (``Network.close``).

        Undoes what ties it into reference cycles: it detaches from its
        radio (the inverse of ``radio.mac = self`` above), drops its timer
        registry, whose handles call its own bound methods, and drops the
        bound callbacks folded into ``_cb_*`` slots. Not a churn path: the
        MAC cannot run again.
        """
        self._started = False
        self.radio.mac = None
        self.timers = None
        for name in self._callback_slots:
            setattr(self, name, None)

    def _on_start(self) -> None:
        """Subclass hook: arm initial timers, kick the first contention."""

    def _on_stop(self) -> None:
        """Subclass hook: reset protocol state (timers are drained after)."""

    def on_queue_refill(self) -> None:
        """Called when new traffic appears while running."""

    def on_frame_received(self, frame: "Frame", ok: bool, reception: "Reception") -> None:
        raise NotImplementedError

    def on_tx_complete(self, frame: "Frame") -> None:
        raise NotImplementedError

    def on_channel_busy(self) -> None:
        """Carrier-sense edge: medium went busy."""

    def on_channel_idle(self) -> None:
        """Carrier-sense edge: medium went idle."""
