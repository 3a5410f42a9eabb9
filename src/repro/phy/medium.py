"""The shared wireless medium.

The medium owns the set of in-flight transmissions and fans each one out to
every attached radio whose received power clears a negligible-energy cutoff.
Propagation delay at indoor scale (< 1 us over 100 m) is far below MAC
timescales, so frames arrive at all receivers at the instant transmission
starts; event priorities guarantee ends process before same-instant starts,
which back-to-back virtual-packet frames rely on.

Hot-path layout: per-transmitter fan-out tables are *columnar* — a
metadata column of ``(callback, rss_dbm, rss_mw)`` entries for
introspection, plus bare callback columns the delivery loops iterate.
Each callback is a closure minted by the receiver's
:meth:`repro.phy.radio.Radio.bind_start_entry` / ``bind_end_entry`` (or
the interference-only variants) — the radio's only receive path: the
table knows the receiver's config and the entry's static RSS when it is
built, so fade-sampler resolution and config/noise lookups are folded
into the closure instead of repeated per frame. Tables are
cached behind a *geometry version*: each is built lazily at that
transmitter's next frame and reused until the geometry changes. Any
:meth:`Medium.attach`, :meth:`Medium.detach`, :meth:`Medium.set_position`,
or radio-config reassignment (:meth:`Medium.on_radio_config_changed`)
bumps the version, so only transmitters that actually transmit after a
change pay an O(receivers) rebuild -- the selective per-transmitter
invalidation a time-varying world needs -- while a static world builds
each table exactly once, degenerating to the old freeze-at-first-transmit
fast path (same callbacks in the same receiver order, bit-identical
outputs).

Each frame schedules exactly two heap events: one delivering
``on_frame_start`` to every receiver in table order, one delivering every
``on_frame_end`` plus the transmitter's own completion. Batching is
order-preserving -- the per-receiver callbacks of one frame edge held
consecutive sequence numbers at a single ``(time, priority)`` point, so no
foreign event could ever interleave -- and the batch credits
``events_processed`` so the perf metric stays layout-comparable (see
:meth:`repro.sim.engine.Simulator.credit_events`).

Dynamic-world invariant: a frame captures its receiver table at transmit
time, so a node that moves or detaches mid-flight still sees that frame's
end edge (its arrival bookkeeping stays balanced); the new geometry applies
from the next transmission on -- the quasi-static channel assumption the
paper's measurement-driven maps rely on (section 3.4).

Neighborhood culling (large worlds): two optional RSS floors shrink the
fan-out tables from "every attached radio" to a physical neighborhood.
``delivery_floor_dbm`` splits included receivers into full entries (sync +
MAC delivery) and *interference-only* entries -- energy and carrier-sense
bookkeeping with none of the per-frame reception work; see
:meth:`repro.phy.radio.Radio.bind_interference_start_entry`.
``interference_floor_dbm`` drops receivers entirely, bounding per-frame
cost by neighborhood density instead of node count. Both default to None
(disabled), and a permissive floor below every link builds byte-identical
tables, so all static goldens are unchanged. Culling composes with the
geometry epochs: a move re-culls only tables the moved row actually
touches (see :meth:`Medium.set_position`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.phy.frames import Frame
from repro.phy.modulation import Phy80211a
from repro.phy.propagation import DynamicRssMatrix, Position, RssMatrix
from repro.sim.engine import Simulator
from repro.util.units import dbm_to_mw

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio


class Transmission:
    """One frame in flight (hand-rolled slots class; one per frame on air)."""

    __slots__ = ("frame", "tx_node", "start", "end", "seq", "uid")

    def __init__(
        self,
        frame: Frame,
        tx_node: int,
        start: float,
        end: float,
        seq: int = 0,
    ):
        self.frame = frame
        self.tx_node = tx_node
        self.start = start
        self.end = end
        #: Set by the medium for stats/debugging.
        self.seq = seq
        #: Copy of ``frame.uid`` (a real field -- saves a hop on the hot path).
        self.uid = frame.uid

    @property
    def airtime(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Transmission(uid={self.uid}, tx_node={self.tx_node}, "
            f"start={self.start:.9f}, end={self.end:.9f})"
        )


#: Per-transmitter fan-out metadata: two parallel tables over the same
#: receivers -- (start_callback, rss_dbm, rss_mw) entries and
#: (end_callback, rss_dbm) entries, in attach order. The callbacks are the
#: specialized single-argument closures the delivery loops call; the RSS
#: columns exist for diagnostics and tests.
StartEntry = Tuple[Callable, float, float]
EndEntry = Tuple[Callable, float]
Fanout = Tuple[Tuple[StartEntry, ...], Tuple[EndEntry, ...]]
#: The bare callback columns ``transmit`` iterates: (start_fns, end_fns).
FanoutFns = Tuple[Tuple[Callable, ...], Tuple[Callable, ...]]


class Medium:
    """Connects radios through an RSS matrix.

    Args:
        sim: the event engine.
        rss: precomputed pairwise received signal strengths. Pass a
            :class:`~repro.phy.propagation.DynamicRssMatrix` to allow
            :meth:`set_position` during a run.
        min_power_dbm: arrivals weaker than this are dropped entirely
            (~ 12 dB below the default noise floor -- negligible
            interference). Changing it (or ``rss`` contents out-of-band)
            does not retroactively touch tables already captured by frames
            in flight; new transmissions see the new values only after a
            geometry bump.
        delivery_floor_dbm: receivers whose RSS from a transmitter is below
            this get *interference-only* fan-out entries: their energy
            still counts toward aggregate interference and carrier sense,
            but they are never sync-attempted or delivered to (and no
            per-frame fading is sampled for them -- the deterministic
            path-loss RSS is used). None (default) disables the split; a
            floor below every link is byte-identical to None.
        interference_floor_dbm: receivers below this are culled from the
            fan-out table entirely -- their aggregate-noise contribution is
            the explicit approximation this floor trades for O(neighborhood)
            instead of O(N) per-frame cost. Must not exceed
            ``delivery_floor_dbm`` when both are set; None (default) falls
            back to ``min_power_dbm``.
    """

    #: Slotted for per-frame attribute speed in transmit()/_deliver_ends;
    #: ``__dict__`` stays available for ad-hoc instrumentation.
    __slots__ = (
        "sim",
        "rss",
        "min_power_dbm",
        "delivery_floor_dbm",
        "interference_floor_dbm",
        "phy",
        "_radios",
        "_tx_seq",
        "_fanout_fns",
        "_fanout_version",
        "_fanout_members",
        "_fanout_counts",
        "fanout_rebuilds",
        "_geometry_version",
        "_position_epochs",
        "_airtimes",
        "active",
        "total_transmissions",
        "tx_log",
        "__dict__",
    )

    def __init__(
        self,
        sim: Simulator,
        rss: RssMatrix,
        min_power_dbm: float = -105.0,
        phy: type = Phy80211a,
        delivery_floor_dbm: Optional[float] = None,
        interference_floor_dbm: Optional[float] = None,
    ):
        if (
            delivery_floor_dbm is not None
            and interference_floor_dbm is not None
            and interference_floor_dbm > delivery_floor_dbm
        ):
            raise ValueError(
                "interference_floor_dbm must not exceed delivery_floor_dbm "
                f"({interference_floor_dbm} > {delivery_floor_dbm})"
            )
        self.sim = sim
        self.rss = rss
        self.min_power_dbm = min_power_dbm
        self.delivery_floor_dbm = delivery_floor_dbm
        self.interference_floor_dbm = interference_floor_dbm
        self.phy = phy
        self._radios: Dict[int, "Radio"] = {}
        self._tx_seq = 0
        #: Per-transmitter callback columns (attach order), rebuilt lazily
        #: when stale. Only the bare callbacks are retained; the metadata
        #: view ((fn, rss_dbm, rss_mw) entries) is returned by
        #: :meth:`_build_tx_fanout` for tests/diagnostics, not stored.
        self._fanout_fns: Dict[int, FanoutFns] = {}
        #: Geometry version each cached table was built at.
        self._fanout_version: Dict[int, int] = {}
        #: Receiver ids each cached table includes (move re-cull test).
        self._fanout_members: Dict[int, frozenset] = {}
        #: (delivered, interference-only) sizes of each cached table,
        #: recorded at build time (census diagnostics).
        self._fanout_counts: Dict[int, Tuple[int, int]] = {}
        #: Total table (re)builds -- tests assert moves don't rebuild
        #: tables the moved row never touched.
        self.fanout_rebuilds = 0
        #: Bumped by attach/detach/set_position; tables built at an older
        #: version are rebuilt at that transmitter's next frame.
        self._geometry_version = 0
        #: Per-node position epochs (diagnostics + cache invalidation tests).
        self._position_epochs: Dict[int, int] = {}
        #: Airtime memo keyed by the values that determine it.
        self._airtimes: Dict[Tuple[int, int, int], float] = {}
        #: Currently in-flight transmissions, keyed by frame uid.
        self.active: Dict[int, Transmission] = {}
        #: Total frames ever put on the air (stats).
        self.total_transmissions = 0
        #: Optional (node, start, end) log of every transmission, used by
        #: the concurrency metrics; assign a list to enable.
        self.tx_log: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    # Geometry lifecycle
    # ------------------------------------------------------------------
    def attach(self, radio: "Radio") -> None:
        """Register a radio; it will hear all sufficiently strong frames."""
        if radio.node_id in self._radios:
            raise ValueError(f"radio for node {radio.node_id} already attached")
        self._radios[radio.node_id] = radio
        radio.medium = self
        radio.detached = False
        self._position_epochs.setdefault(radio.node_id, 0)
        self._geometry_version += 1  # every table may gain this receiver

    def detach(self, radio: "Radio") -> None:
        """Unregister a radio: it stops hearing (and sourcing) new frames.

        Frames already in flight captured their receiver tables at transmit
        time and still deliver both edges to the detached radio, keeping its
        arrival bookkeeping balanced; the radio's own in-flight frame (if
        any) completes too. Future transmissions exclude it, and its own
        ``transmit`` calls become drops (see :meth:`Radio.transmit`).
        """
        if self._radios.get(radio.node_id) is not radio:
            raise ValueError(f"radio for node {radio.node_id} is not attached")
        del self._radios[radio.node_id]
        self._fanout_fns.pop(radio.node_id, None)
        self._fanout_version.pop(radio.node_id, None)
        self._fanout_members.pop(radio.node_id, None)
        self._fanout_counts.pop(radio.node_id, None)
        radio.detached = True
        self._geometry_version += 1  # every table may lose this receiver

    def _inclusion_cutoff_dbm(self) -> float:
        """Weakest RSS a receiver may have and still appear in a table."""
        cutoff = self.min_power_dbm
        ifloor = self.interference_floor_dbm
        if ifloor is not None and ifloor > cutoff:
            cutoff = ifloor
        return cutoff

    def set_position(self, node_id: int, position: Position) -> int:
        """Move a node; returns its new position epoch.

        Requires the medium's RSS source to be a
        :class:`~repro.phy.propagation.DynamicRssMatrix`. The move applies
        to frames transmitted after this call; in-flight frames keep the
        gains they were launched with.

        Invalidation re-culls only the moved row: the mover's own table
        goes stale (all its gains changed), as does any table that included
        the moved node or would include it now. A cached table whose
        transmitter is out of range of the node both before and after the
        move is provably unchanged (the move only touched that node's RSS
        pairs), so it is revalidated in place -- with culling enabled,
        distant transmitters never pay a rebuild for a local move.
        """
        rss = self.rss
        if not isinstance(rss, DynamicRssMatrix):
            raise TypeError(
                "this medium was built over a static RssMatrix; construct it "
                "with a DynamicRssMatrix (or use Network.set_position, which "
                "upgrades the geometry copy-on-write) to move nodes"
            )
        epoch = rss.set_position(node_id, position)
        self._position_epochs[node_id] = epoch
        previous = self._geometry_version
        self._geometry_version += 1
        current = self._geometry_version
        cutoff = self._inclusion_cutoff_dbm()
        get_rss = rss.get
        members = self._fanout_members
        for tx_id, version in self._fanout_version.items():
            if version != previous or tx_id == node_id:
                continue  # already stale, or the mover's own table
            if node_id in members[tx_id]:
                continue  # its entry carries a stale gain: rebuild lazily
            new_rss = get_rss(tx_id, node_id)
            if new_rss is not None and new_rss >= cutoff:
                continue  # the node moved into range: rebuild lazily
            self._fanout_version[tx_id] = current  # untouched; keep it
        radio = self._radios.get(node_id)
        if radio is not None:
            radio.on_position_changed()
        return epoch

    def on_radio_config_changed(self, node_id: int) -> None:
        """A radio's config was reassigned: kill every specialized table.

        Fan-out entries compile threshold comparisons and fade samplers
        from the receiver's config at build time
        (:meth:`repro.phy.radio.Radio.bind_start_entry`), so a config swap
        invalidates exactly where fan-out tables already invalidate: the
        geometry version. Every table that might include the radio rebuilds
        lazily at its transmitter's next frame, the same contract as
        :meth:`attach`/:meth:`detach`.
        """
        self._geometry_version += 1

    @property
    def geometry_version(self) -> int:
        """Total geometry mutations (attach/detach/move/config) so far."""
        return self._geometry_version

    def position_epoch(self, node_id: int) -> int:
        """How many times ``node_id`` has moved (0 if never)."""
        return self._position_epochs.get(node_id, 0)

    def airtime(self, frame: Frame) -> float:
        """On-air duration of ``frame``."""
        rate = frame.rate
        key = (frame.size_bytes, rate.mbps, rate.bits_per_symbol)
        cached = self._airtimes.get(key)
        if cached is None:
            cached = self._airtimes[key] = self.phy.airtime(
                frame.size_bytes, rate
            )
        return cached

    def _build_tx_fanout(self, tx_id: int) -> Fanout:
        """(Re)compute one transmitter's above-cutoff receiver tables.

        Tables preserve attach order, so receiver callbacks run in exactly
        the order the per-frame all-radios loop produced. Each entry binds
        a closure specialized to the receiver's config and the entry's
        static RSS (see ``Radio.bind_*_entry``); the closures are rebuilt
        with the table, so a geometry or config change can never leave a
        stale specialization behind. With a delivery floor set, receivers
        below it get interference-only entries (same table, cheaper
        callbacks); receivers below the inclusion cutoff are culled
        entirely.
        """
        get_rss = self.rss.get
        cutoff = self._inclusion_cutoff_dbm()
        dfloor = self.delivery_floor_dbm
        starts: List[StartEntry] = []
        ends: List[EndEntry] = []
        members = set()
        noise_only = 0
        for node_id, rx_radio in self._radios.items():
            if node_id == tx_id:
                continue
            rss = get_rss(tx_id, node_id)
            if rss is None or rss < cutoff:
                continue
            members.add(node_id)
            rss_mw = dbm_to_mw(rss)
            if dfloor is not None and rss < dfloor:
                noise_only += 1
                start_fn = rx_radio.bind_interference_start_entry(rss, rss_mw)
                end_fn = rx_radio.bind_interference_end_entry()
            else:
                start_fn = rx_radio.bind_start_entry(tx_id, rss)
                end_fn = rx_radio.bind_end_entry()
            starts.append((start_fn, rss, rss_mw))
            ends.append((end_fn, rss))
        table = (tuple(starts), tuple(ends))
        self._fanout_fns[tx_id] = (
            tuple(entry[0] for entry in starts),
            tuple(entry[0] for entry in ends),
        )
        self._fanout_version[tx_id] = self._geometry_version
        self._fanout_members[tx_id] = frozenset(members)
        self._fanout_counts[tx_id] = (len(ends) - noise_only, noise_only)
        self.fanout_rebuilds += 1
        return table

    def transmit(self, radio: "Radio", frame: Frame) -> Transmission:
        """Put ``frame`` on the air from ``radio``; returns the transmission.

        Fan-out and the transmitter's own end-of-tx callback are scheduled
        here; receiver-side physics live in :class:`repro.phy.radio.Radio`.
        """
        sim = self.sim
        now = sim.now
        # Inlined airtime memo (identical key and fill as self.airtime).
        rate = frame.rate
        key = (frame.size_bytes, rate.mbps, rate.bits_per_symbol)
        airtime = self._airtimes.get(key)
        if airtime is None:
            airtime = self._airtimes[key] = self.phy.airtime(
                frame.size_bytes, rate
            )
        tx = Transmission(frame, radio.node_id, now, now + airtime, self._tx_seq)
        self._tx_seq += 1
        self.total_transmissions += 1
        self.active[tx.uid] = tx
        if self.tx_log is not None:
            self.tx_log.append((radio.node_id, now, now + airtime))

        tx_id = radio.node_id
        if self._fanout_version.get(tx_id) != self._geometry_version:
            self._build_tx_fanout(tx_id)
        start_fns, end_fns = self._fanout_fns[tx_id]
        start_fn = None
        if start_fns:
            # When no event is pending at this instant, nothing could have
            # run between this transmit and its start batch: the engine
            # delivers the starts inline instead of round-tripping through
            # the heap (~92% of frames). Safe because start callbacks never
            # schedule events, create frames, or touch state outside their
            # own radio/MAC — the engine's armed guard and heap-depth check
            # enforce the scheduling part loudly (see
            # Simulator.deliver_fanout_inline).
            if not sim.deliver_fanout_inline(start_fns, tx):
                start_fn = self._deliver_starts
        sim.schedule_fanout(
            airtime,
            start_fn,
            (tx, start_fns),
            self._deliver_ends,
            (radio, tx, end_fns),
        )
        return tx

    def _deliver_starts(
        self, tx: Transmission, start_fns: Tuple[Callable, ...]
    ) -> None:
        for on_start in start_fns:
            on_start(tx)
        self.sim.credit_events(len(start_fns) - 1)

    def _deliver_ends(
        self, radio: "Radio", tx: Transmission, end_fns: Tuple[Callable, ...]
    ) -> None:
        for on_end in end_fns:
            on_end(tx)
        self.active.pop(tx.uid, None)
        radio.on_own_tx_end(tx)
        self.sim.credit_events(len(end_fns))

    def close(self) -> None:
        """Drop every radio, fan-out table and in-flight frame (teardown).

        A table's callbacks close over their receiving radio, which points
        back here, so the tables are what ties a finished run's radios and
        medium into reference cycles. The fan-out census reads empty
        afterwards.
        """
        self._radios = {}
        self._fanout_fns = {}
        self._fanout_version = {}
        self._fanout_members = {}
        self._fanout_counts = {}
        self.active = {}

    def active_transmissions(self) -> List[Transmission]:
        """Snapshot of in-flight transmissions (tests, stats)."""
        return list(self.active.values())

    def radio(self, node_id: int) -> "Radio":
        return self._radios[node_id]

    def attached_ids(self) -> List[int]:
        """Node ids currently attached (attach order)."""
        return list(self._radios)

    def fanout_census(self) -> Dict[int, Tuple[int, int]]:
        """Per cached transmitter: (delivered, interference-only) counts.

        Reports last-*built* tables: only transmitters that have ever
        transmitted appear, and a table built before a late geometry change
        is included as-is (possibly stale until that transmitter's next
        frame rebuilds it). A diagnostic for culling effectiveness — scale
        sweeps report its mean against N - 1 — not an exact live view.
        """
        return dict(self._fanout_counts)
