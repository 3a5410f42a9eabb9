"""The CMAP link layer (paper §2–§4).

Sender loop (Fig. 6)::

    while data to send and N_outstanding < N_window:
        while defer table does not permit:
            wait until end of current transmission + t_deferwait
        transmit virtual packet
        wait up to t_ackwait for an ACK
        wait a backoff duration in [0, CW]

Receiver: promiscuously decodes headers/trailers to maintain the ongoing
list and attribute collisions; sends a cumulative ACK (after the software-MAC
turnaround latency, §4.1) when a virtual packet's trailer arrives; grows its
interferer list from loss rates conditioned on concurrent foreign bursts;
broadcasts the list periodically.

Implementation notes:

* The re-check after a defer waits ``t_deferwait`` scaled by a small random
  jitter. The prototype gets equivalent jitter for free from Click timer and
  bus latency variance; without it, two symmetric deferrers in a simulator
  wake at the same instant forever.
* ACKs arriving outside the ``t_ackwait`` window are still processed — the
  window bounds waiting, not bookkeeping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.arq import ArqSender, ReceiverWindow, VpktRecord
from repro.core.backoff import LossBackoff
from repro.core.conflict_map import DeferTable, InterfererList, OngoingList
from repro.core.params import CmapParams
from repro.mac.base import MacBase, Packet
from repro.phy.frames import (
    BROADCAST,
    CmapAckFrame,
    DataFrame,
    Frame,
    FrameKind,
    InterfererListFrame,
    MAC_OVERHEAD_BYTES,
    VpktHeaderFrame,
    VpktTrailerFrame,
)
from repro.phy.modulation import Phy80211a, RATES, Rate
from repro.tracing import TraceKind


class _State(Enum):
    IDLE = "idle"
    DEFER = "defer"  # waiting for an ongoing conflicting burst to finish
    BURST = "burst"  # header/data/trailer frames leaving back-to-back
    WAIT_ACK = "wait_ack"
    GAP = "gap"  # post-virtual-packet backoff wait
    BLOCKED = "blocked"  # send window full, window timeout pending


@dataclass
class CmapStats:
    """CMAP-specific counters (on top of the generic MacStats)."""

    vpkts_sent: int = 0
    vpkts_acked: int = 0
    ack_wait_expired: int = 0
    defer_decisions: int = 0
    go_decisions: int = 0
    window_timeouts: int = 0
    ilists_sent: int = 0
    ilists_heard: int = 0
    ilist_skipped_busy: int = 0
    acks_dropped_busy: int = 0
    late_acks: int = 0
    rate_downshifts: int = 0
    #: vpkt ids emitted per destination (denominator for Fig. 16/19).
    vpkts_sent_to: Dict[int, int] = field(default_factory=dict)


class CmapMac(MacBase):
    """One node's CMAP instance (sender and receiver roles combined).

    Timers go through the named registry (``self.timers``): the sender
    state machine's mutually-exclusive waits are ``"defer"``, ``"launch"``,
    ``"ackwait"`` and ``"gap"``; per-destination window timeouts are
    ``("win", dst)``; the periodic broadcast and map sweep are ``"ilist"``
    and ``"sweep"``. The registry reuses handles across re-arms, and the
    base ``stop()`` drains everything — no per-timer cancel bookkeeping.
    """

    __slots__ = (
        "params",
        "cstats",
        "_arq",
        "_staged",
        "_dst_order",
        "backoff",
        "_state",
        "_burst_frames",
        "_burst_dst",
        "_burst_rate",
        "_held_launch",
        "ongoing",
        "defer_table",
        "interferer_list",
        "_foreign_bursts",
        "anypath",
        "_forwarders",
        "_rx",
        "_t_ackwait",
        "_t_deferwait",
        "_jitter_lo",
        "_jitter_hi",
        "_sweep_period",
        "_cb_defer",
        "_cb_launch",
        "_cb_ackwait",
        "_cb_gap",
        "_cb_ilist",
        "_cb_sweep",
        "_cb_window",
    )

    #: Every draw on this MAC's stream is random()/uniform(lo, hi) — the
    #: jitter/tau/latency draws below plus LossBackoff.draw_wait — so the
    #: kernel layer may block-buffer it (MacBase wires the wrap).
    RNG_DRAW_KIND = "uniform"

    #: The conflict map is built from overheard headers, trailers and
    #: interferer lists (§3.1); overheard data frames and ACKs are ignored.
    READS_OVERHEARD = (
        FrameKind.VPKT_HEADER,
        FrameKind.VPKT_TRAILER,
        FrameKind.INTERFERER_LIST,
    )

    def __init__(self, sim, node_id, radio, rng, params: Optional[CmapParams] = None):
        super().__init__(sim, node_id, radio, rng)
        self.params = params or CmapParams()
        self.cstats = CmapStats()
        if self.params.replicate_ht_in_data:
            # §5.6: data frames carry the header's burst end as well.
            radio.reads_overheard = self.READS_OVERHEARD + (FrameKind.DATA,)

        # --- sender state ---
        self._arq: Dict[int, ArqSender] = {}
        self._staged: Dict[int, Deque[Packet]] = {}
        self._dst_order: Deque[int] = deque()
        self.backoff = LossBackoff(
            self.params.cw_start, self.params.cw_max, self.params.l_backoff
        )
        self._state = _State.IDLE
        self._burst_frames: Deque[Frame] = deque()
        self._burst_dst: Optional[int] = None
        self._burst_rate: Optional[Rate] = None
        #: A burst whose launch found our own ACK on the air.
        self._held_launch: Optional[VpktRecord] = None

        # Hot-path folds: per-decision reads of dataclass fields cost an
        # attribute chain each; these never change after construction.
        p = self.params
        self._t_ackwait = p.t_ackwait
        self._t_deferwait = p.t_deferwait
        self._jitter_lo, self._jitter_hi = p.deferwait_jitter
        self._sweep_period = p.map_sweep_period
        # Bound once so registry re-arms hit the handle-reuse path.
        self._cb_defer = self._defer_expired
        self._cb_launch = self._launch_burst
        self._cb_ackwait = self._ack_wait_expired
        self._cb_gap = self._gap_expired
        self._cb_ilist = self._ilist_tick
        self._cb_sweep = self._sweep_maps
        self._cb_window = self._window_timeout

        # --- conflict map state ---
        self.ongoing = OngoingList()
        self.defer_table = DeferTable(
            entry_timeout=self.params.defer_entry_timeout,
            rate_aware=self.params.rate_aware_map,
        )
        self.interferer_list = InterfererList(
            l_interf=self.params.l_interf,
            min_samples=self.params.interf_min_samples,
            window_s=self.params.interf_window_s,
            entry_timeout=self.params.ilist_entry_timeout,
            rate_aware=self.params.rate_aware_map,
        )
        #: Recently heard foreign burst intervals: (src, start, end).
        self._foreign_bursts: Deque[Tuple[int, float, float]] = deque()

        # --- §3.6 anypath state ---
        from repro.core.anypath import AnypathTable

        self.anypath = AnypathTable(
            node_id, entry_timeout=self.params.defer_entry_timeout
        )
        self._forwarders: Tuple[int, ...] = ()

        # --- receiver state ---
        self._rx: Dict[int, ReceiverWindow] = {}

    def set_forwarders(self, forwarders) -> None:
        """Install the §3.6 forwarder set used by anypath broadcasts."""
        self._forwarders = tuple(forwarders)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def _on_start(self) -> None:
        offset = float(self.rng.uniform(0.0, self.params.ilist_period))
        self.timers.arm("ilist", offset, self._cb_ilist)
        # Batched map sweep: deterministic node-keyed stagger (no RNG draw —
        # the uniform stream is a bit-identity contract) so a dense network
        # does not sweep in lockstep at integer multiples of the period.
        stagger = (self.node_id % 16) * (self._sweep_period / 16.0)
        self.timers.arm("sweep", self._sweep_period + stagger, self._cb_sweep)
        self._wake()

    def _on_stop(self) -> None:
        """Churn out: base stop drains the timer registry after this."""
        self._state = _State.IDLE
        self._held_launch = None

    def on_queue_refill(self) -> None:
        if self._state is _State.IDLE:
            self._wake()

    @property
    def state(self) -> _State:
        return self._state

    # ==================================================================
    # Traffic staging (per-destination)
    # ==================================================================
    def _refill_staging(self) -> None:
        """Pull base-queue/source packets into per-destination staging.

        With per-destination queues (§3.2 extension) we stage deeper so that
        packets behind a deferred head-of-line destination are visible to the
        round-robin; the bound keeps saturated sources from flooding memory.
        """
        cap = self.params.nvpkt
        if self.params.per_destination_queues:
            cap *= 8
        while True:
            total_staged = sum(len(q) for q in self._staged.values())
            if total_staged >= cap:
                break
            pkt = self.next_packet()
            if pkt is None:
                break
            if pkt.dst not in self._staged:
                self._staged[pkt.dst] = deque()
                self._dst_order.append(pkt.dst)
            self._staged[pkt.dst].append(pkt)

    def _arq_for(self, dst: int) -> ArqSender:
        if dst not in self._arq:
            self._arq[dst] = ArqSender(
                dst,
                self.params.nvpkt,
                self.params.nwindow,
                self.params.ack_window_span(),
                reliable=(dst != BROADCAST),
            )
        return self._arq[dst]

    def _sendable_dsts(self) -> List[int]:
        """Destinations with work: staged fresh packets or pending retx."""
        dsts: List[int] = []
        for dst in self._dst_order:
            if self._staged.get(dst) or self._arq_for(dst).has_retx_pending():
                dsts.append(dst)
        for dst, arq in self._arq.items():
            if dst not in dsts and arq.has_retx_pending():
                dsts.append(dst)
        return dsts

    # ==================================================================
    # The Fig. 6 sender loop
    # ==================================================================
    def _wake(self) -> None:
        """Try to make progress; only valid from IDLE."""
        if not self._started or self._state is not _State.IDLE:
            return
        if self.radio.is_transmitting:
            return  # a control frame is leaving; on_tx_complete re-wakes
        self._refill_staging()
        dsts = self._sendable_dsts()
        if not dsts:
            return
        candidates = dsts if self.params.per_destination_queues else dsts[:1]

        earliest_retry: Optional[float] = None
        for dst in candidates:
            arq = self._arq_for(dst)
            if arq.window_full():
                self._ensure_window_timer(dst)
                continue
            verdict, rate = self._decide(dst)
            if verdict is None:
                self._start_burst(dst, rate)
                return
            if earliest_retry is None or verdict < earliest_retry:
                earliest_retry = verdict

        if earliest_retry is not None:
            self.cstats.defer_decisions += 1
            self.tracer.emit(self.sim.now, self.node_id, TraceKind.DEFER,
                             earliest_retry)
            jitter_lo, jitter_hi = self._jitter_lo, self._jitter_hi
            # Bit-identical decomposition of rng.uniform(lo, hi).
            wait = self._t_deferwait * float(
                jitter_lo + (jitter_hi - jitter_lo) * self.rng.random()
            )
            self._state = _State.DEFER
            delay = max(0.0, earliest_retry - self.sim.now) + wait
            self.timers.arm("defer", delay, self._cb_defer)

    def _decide(self, dst: int) -> Tuple[Optional[float], "Rate"]:
        """Transmission decision plus the rate to use.

        Normally returns ``(defer_until_or_None, data_rate)``. With the
        §3.5 adaptation extension, a blocked decision falls back to the
        highest lower rate the rate-aware map does not block, when that
        beats the expected value of waiting out the conflict.
        """
        p = self.params
        verdict = self._transmission_decision(dst, p.data_rate.mbps)
        if verdict is None or not (p.rate_aware_map and p.adapt_rate_on_defer):
            return verdict, p.data_rate
        floor_mbps = p.data_rate.mbps * p.downshift_min_fraction
        for mbps in sorted(RATES, reverse=True):
            if mbps >= p.data_rate.mbps or mbps < floor_mbps:
                continue
            if self._transmission_decision(dst, mbps) is None:
                self.cstats.rate_downshifts += 1
                self.tracer.emit(self.sim.now, self.node_id,
                                 TraceKind.RATE_DOWNSHIFT, mbps)
                return None, RATES[mbps]
        return verdict, p.data_rate

    def _transmission_decision(
        self, dst: int, my_rate_mbps: Optional[int] = None
    ) -> Optional[float]:
        """§3.2: None means transmit now; else the time to re-check at.

        Checks that the destination is neither sending nor receiving, then
        matches every ongoing transmission against the defer patterns.
        """
        now = self.sim.now
        my_rate = (
            my_rate_mbps if my_rate_mbps is not None else self.params.data_rate.mbps
        )
        if dst == BROADCAST and self._forwarders:
            if self.params.anypath_broadcast:
                return self._anypath_decision(now)
            # §3.6 first form: a broadcast is a collection of unicast
            # transmissions — defer if *any* forwarder's decision defers.
            latest: Optional[float] = None
            for v in self._forwarders:
                verdict = self._transmission_decision(v, my_rate)
                if verdict is not None and (latest is None or verdict > latest):
                    latest = verdict
            return latest
        latest_conflict_end: Optional[float] = None
        if dst != BROADCAST:
            busy = self.ongoing.busy_with(dst, now)
            if busy is not None:
                latest_conflict_end = busy.end_time
        for entry in self.ongoing.active(now):
            if self.defer_table.should_defer(
                now, dst, entry.src, entry.dst, my_rate, entry.rate_mbps
            ):
                if latest_conflict_end is None or entry.end_time > latest_conflict_end:
                    latest_conflict_end = entry.end_time
        return latest_conflict_end

    def _anypath_decision(self, now: float) -> Optional[float]:
        """§3.6: transmit when P(>= 1 forwarder receives) clears the bar."""
        ongoing = self.ongoing.active(now)
        srcs = [e.src for e in ongoing]
        if self.anypath.should_transmit(
            self._forwarders, srcs, now, self.params.anypath_threshold
        ):
            return None
        return max((e.end_time for e in ongoing), default=now)

    def _defer_expired(self) -> None:
        self._state = _State.IDLE
        self._wake()

    # ------------------------------------------------------------------
    # Virtual packet transmission
    # ------------------------------------------------------------------
    def _start_burst(self, dst: int, rate: Optional["Rate"] = None) -> None:
        self.cstats.go_decisions += 1
        self._burst_rate = rate or self.params.data_rate
        self.tracer.emit(self.sim.now, self.node_id, TraceKind.GO, dst,
                         self._burst_rate.mbps)
        arq = self._arq_for(dst)
        staged = self._staged.get(dst, deque())
        fresh: List[Packet] = []
        for _ in range(min(arq.fresh_slots(), len(staged))):
            fresh.append(staged.popleft())
        record = arq.build_vpkt(fresh, self.sim.now)
        self._burst_dst = dst
        self._state = _State.BURST
        self.cstats.vpkts_sent += 1
        self.cstats.vpkts_sent_to[dst] = self.cstats.vpkts_sent_to.get(dst, 0) + 1
        # Sender-side MAC->PHY turnaround (§4.1) before the header airs.
        delay = self.params.latency.tx_turnaround(self.rng)
        self.timers.arm("launch", delay, self._cb_launch, record)

    def _launch_burst(self, record: VpktRecord) -> None:
        if self.radio.is_transmitting:
            # Our own ACK is still on the air (its turnaround ended inside
            # ours): the burst follows it, from on_tx_complete.
            self._held_launch = record
            return
        self._burst_frames = deque(self._frames_for(record))
        self._send_next_burst_frame()

    def _frames_for(self, record: VpktRecord) -> List[Frame]:
        p = self.params
        data_rate = self._burst_rate or p.data_rate
        payloads = record.packets
        payload_bytes = payloads[0].packet.size_bytes if payloads else 1400
        data_air = Phy80211a.airtime(
            payload_bytes + MAC_OVERHEAD_BYTES, data_rate
        )
        ht_air = p.header_trailer_airtime()
        #: Remaining burst time as of the end of the header frame (§3.2).
        burst_duration = len(payloads) * data_air + ht_air
        frames: List[Frame] = [
            VpktHeaderFrame(
                src=self.node_id,
                dst=record.dst,
                size_bytes=0,  # overwritten in __post_init__
                rate=p.control_rate,
                vpkt_id=record.vpkt_id,
                burst_duration=burst_duration,
                num_packets=len(payloads),
                first_seq=payloads[0].seq,
            )
        ]
        burst_end = (
            self.sim.now + 2 * ht_air + len(payloads) * data_air
        )
        for sp in payloads:
            frame = DataFrame(
                src=self.node_id,
                dst=record.dst,
                size_bytes=sp.packet.size_bytes + MAC_OVERHEAD_BYTES,
                rate=data_rate,
                seq=sp.seq,
                packet_id=sp.packet.packet_id,
                vpkt_id=record.vpkt_id,
            )
            if p.replicate_ht_in_data:
                frame.size_bytes += 24  # §5.6: replicate header/trailer info
                frame.burst_end = burst_end
            frames.append(frame)
        frames.append(
            VpktTrailerFrame(
                src=self.node_id,
                dst=record.dst,
                size_bytes=0,
                rate=p.control_rate,
                vpkt_id=record.vpkt_id,
                num_packets=len(payloads),
                first_seq=payloads[0].seq,
            )
        )
        self.stats.data_frames_sent += len(payloads)
        return frames

    def _send_next_burst_frame(self) -> None:
        if self._burst_frames:
            self.radio.transmit(self._burst_frames.popleft())
            return
        if self._burst_dst == BROADCAST:
            # §3.6: broadcast virtual packets are unacknowledged.
            self._after_vpkt()
            return
        # Burst finished: wait up to t_ackwait for the ACK.
        self._state = _State.WAIT_ACK
        self.timers.arm("ackwait", self._t_ackwait, self._cb_ackwait)

    def on_tx_complete(self, frame: Frame) -> None:
        if not self._started:
            return  # stopped (churned out) while the frame was in flight
        if self._state is _State.BURST and frame.kind in (
            FrameKind.VPKT_HEADER,
            FrameKind.DATA,
            FrameKind.VPKT_TRAILER,
        ):
            self._send_next_burst_frame()
            return
        # Control frame (ACK / interferer list) finished: launch a burst it
        # held up, or resume if idle.
        held = self._held_launch
        if held is not None:
            self._held_launch = None
            self._launch_burst(held)
        elif self._state is _State.IDLE:
            self._wake()

    def _ack_wait_expired(self) -> None:
        self.cstats.ack_wait_expired += 1
        self.stats.ack_timeouts += 1
        self.tracer.emit(self.sim.now, self.node_id, TraceKind.ACK_TIMEOUT,
                         self._burst_dst)
        self._after_vpkt()

    def _after_vpkt(self) -> None:
        """Fig. 6: the backoff wait between consecutive virtual packets."""
        gap = self.backoff.draw_wait(self.rng)
        if gap > 0.0:
            self._state = _State.GAP
            self.timers.arm("gap", gap, self._cb_gap)
        else:
            self._state = _State.IDLE
            self._wake()

    def _gap_expired(self) -> None:
        self._state = _State.IDLE
        self._wake()

    # ------------------------------------------------------------------
    # Window timeout (§3.3)
    # ------------------------------------------------------------------
    def _ensure_window_timer(self, dst: int) -> None:
        if self.timers.is_armed(("win", dst)):
            return
        payload = 1400
        staged = self._staged.get(dst)
        if staged:
            payload = staged[0].size_bytes
        tau_min, tau_max = self.params.window_timeout_bounds(payload_bytes=payload)
        tau = float(tau_min + (tau_max - tau_min) * self.rng.random())
        self.timers.arm(("win", dst), tau, self._cb_window, dst)
        self._state = _State.BLOCKED if self._state is _State.IDLE else self._state

    def _window_timeout(self, dst: int) -> None:
        arq = self._arq_for(dst)
        requeued = arq.flush_window()
        self.cstats.window_timeouts += 1
        self.tracer.emit(self.sim.now, self.node_id, TraceKind.WINDOW_TIMEOUT,
                         dst, requeued)
        self.stats.retransmissions += requeued
        if self._state is _State.BLOCKED:
            self._state = _State.IDLE
        self._wake()

    def _cancel_window_timer(self, dst: int) -> None:
        self.timers.cancel(("win", dst))
        if self._state is _State.BLOCKED:
            self._state = _State.IDLE

    # ==================================================================
    # Receive path
    # ==================================================================
    def on_frame_received(self, frame: Frame, ok: bool, reception) -> None:
        if not ok:
            return
        kind = frame.kind
        if kind is FrameKind.VPKT_HEADER:
            self._on_header(frame)
        elif kind is FrameKind.DATA:
            self._on_data(frame)
        elif kind is FrameKind.VPKT_TRAILER:
            self._on_trailer(frame)
        elif kind is FrameKind.CMAP_ACK:
            if frame.dst == self.node_id:
                self._on_ack(frame)
        elif kind is FrameKind.INTERFERER_LIST:
            self._on_interferer_list(frame)

    # ------------------------------------------------------------------
    def _rx_for(self, src: int) -> ReceiverWindow:
        if src not in self._rx:
            self._rx[src] = ReceiverWindow(
                src, self.params.ack_window_span(), self.params.nwindow
            )
        return self._rx[src]

    def _on_header(self, frame: VpktHeaderFrame) -> None:
        now = self.sim.now
        end = now + frame.burst_duration
        self.ongoing.note_header(frame.src, frame.dst, end, frame.rate.mbps)
        self._note_foreign_burst(frame.src, now, end)
        if frame.dst in (self.node_id, BROADCAST):
            rx = self._rx_for(frame.src)
            rx.on_header(frame.vpkt_id, frame.first_seq, frame.num_packets, now, end)

    def _on_data(self, frame: DataFrame) -> None:
        if frame.dst in (self.node_id, BROADCAST):
            rx = self._rx_for(frame.src)
            rx.on_data(frame.vpkt_id, frame.seq, self.sim.now)
            self.stats.data_frames_received_ok += 1
            self.deliver_up(
                frame.src, frame.packet_id, frame.size_bytes - MAC_OVERHEAD_BYTES
            )
        elif self.params.replicate_ht_in_data:
            burst_end = getattr(frame, "burst_end", 0.0)
            if burst_end > self.sim.now:
                self.ongoing.note_header(
                    frame.src, frame.dst, burst_end, frame.rate.mbps
                )
                self._note_foreign_burst(frame.src, self.sim.now, burst_end)

    def _on_trailer(self, frame: VpktTrailerFrame) -> None:
        now = self.sim.now
        p = self.params
        self.ongoing.note_trailer(frame.src, frame.dst, now)
        est_duration = p.vpkt_airtime(frame.num_packets)
        self._note_foreign_burst(frame.src, now - est_duration, now)
        if frame.dst not in (self.node_id, BROADCAST):
            return
        rx = self._rx_for(frame.src)
        record = rx.on_trailer(frame.vpkt_id, frame.first_seq, frame.num_packets, now)
        expected = record.num_packets or 0
        lost = max(0, expected - len(record.received_seqs))
        start = record.start if record.start is not None else now - est_duration
        self._attribute_losses(frame.src, start, now, lost, expected, frame.rate.mbps)
        if frame.dst == self.node_id:
            delay = self.params.latency.ack_turnaround(self.rng)
            self.sim.schedule_call(delay, self._send_ack, (frame.src,))

    def _attribute_losses(
        self, src: int, start: float, end: float,
        lost: int, expected: int, src_rate: int,
    ) -> None:
        """Charge this virtual packet's losses to overlapping foreign bursts.

        The overlap test uses the transmission-time information carried in
        headers/trailers, exactly as §3.1 prescribes. Every overlapping
        foreign source gets the observation — both losses and non-losses, so
        the conditional loss rate is unbiased.
        """
        if expected <= 0:
            return
        now = self.sim.now
        while self._foreign_bursts and self._foreign_bursts[0][2] < now - 1.0:
            self._foreign_bursts.popleft()
        overlapping = {
            x
            for (x, s, e) in self._foreign_bursts
            if x not in (src, self.node_id) and s < end and e > start
        }
        for x in overlapping:
            self.interferer_list.record_vpkt(
                now, src, x, lost, expected,
                source_rate_mbps=src_rate,
            )

    def _note_foreign_burst(self, src: int, start: float, end: float) -> None:
        if src != self.node_id:
            self._foreign_bursts.append((src, start, end))

    # ------------------------------------------------------------------
    # ACK transmission (receiver) and processing (sender)
    # ------------------------------------------------------------------
    def _send_ack(self, data_src: int) -> None:
        if not self._started:
            return  # stopped (churned out) during the ACK turnaround
        if self.radio.is_transmitting:
            self.cstats.acks_dropped_busy += 1
            return
        rx = self._rx_for(data_src)
        max_seq, received, loss_rate = rx.ack_payload()
        piggyback: Tuple = ()
        if self.params.piggyback_ilist:
            piggyback = tuple(self.interferer_list.entries(self.sim.now))
        ack = CmapAckFrame(
            src=self.node_id,
            dst=data_src,
            size_bytes=0,
            rate=self.params.control_rate,
            max_seq=max_seq,
            received_seqs=received,
            window_span=self.params.ack_window_span(),
            loss_rate=loss_rate,
            piggyback_interferers=piggyback,
        )
        self.stats.acks_sent += 1
        self.tracer.emit(self.sim.now, self.node_id, TraceKind.ACK_SENT,
                         data_src, round(ack.loss_rate, 3))
        self.radio.transmit(ack)

    def _on_ack(self, ack: CmapAckFrame) -> None:
        self.stats.acks_received += 1
        self.tracer.emit(self.sim.now, self.node_id, TraceKind.ACK_RECEIVED,
                         ack.src, round(ack.loss_rate, 3))
        arq = self._arq_for(ack.src)
        acked, requeued = arq.process_ack(
            ack.max_seq, ack.received_seqs, ack.window_span
        )
        self.stats.retransmissions += 0  # requeues counted when resent
        cw_before = self.backoff.cw
        self.backoff.update(ack.loss_rate)
        if self.backoff.cw != cw_before:
            self.tracer.emit(self.sim.now, self.node_id,
                             TraceKind.BACKOFF_CHANGE, self.backoff.cw)
        if ack.piggyback_interferers:
            self.defer_table.update_from_interferer_list(
                self.node_id, ack.src, ack.piggyback_interferers, self.sim.now
            )
        if not arq.window_full():
            self._cancel_window_timer(ack.src)
        if self._state is _State.WAIT_ACK and ack.src == self._burst_dst:
            self.cstats.vpkts_acked += 1
            self.timers.cancel("ackwait")
            self._after_vpkt()
        else:
            self.cstats.late_acks += 1
            if self._state is _State.IDLE:
                self._wake()

    # ------------------------------------------------------------------
    # Interferer-list dissemination (§3.1)
    # ------------------------------------------------------------------
    def _ilist_tick(self) -> None:
        period = self.params.ilist_period
        jitter = float(self.rng.uniform(0.0, 0.1 * period))
        self.timers.arm("ilist", period + jitter, self._cb_ilist)
        # Aging (section 3.4 adaptation): drop loss statistics for pairs not
        # observed within the staleness horizon, so a conflict that geometry
        # changes dissolved cannot linger as stale evidence, and re-forms
        # from fresh measurements only. Behaviour-neutral in a static world:
        # pruned pairs had zero in-window samples, which every consumer
        # already treated as absent.
        self.interferer_list.prune(self.sim.now, self.params.map_staleness_horizon)
        if self.params.ilist_report_rates:
            entries = self.interferer_list.rated_entries(self.sim.now)
        else:
            entries = self.interferer_list.entries(self.sim.now)
        if not entries:
            return
        if self.radio.is_transmitting or self._state in (
            _State.BURST,
            _State.WAIT_ACK,
        ):
            self.cstats.ilist_skipped_busy += 1
            return
        frame = InterfererListFrame(
            src=self.node_id,
            dst=BROADCAST,
            size_bytes=0,
            rate=self.params.control_rate,
            entries=tuple(entries),
        )
        frame.origin = self.node_id  # type: ignore[attr-defined]
        self.cstats.ilists_sent += 1
        self.tracer.emit(self.sim.now, self.node_id, TraceKind.ILIST_BROADCAST,
                         len(entries))
        self.radio.transmit(frame)

    def _on_interferer_list(self, frame: InterfererListFrame) -> None:
        self.cstats.ilists_heard += 1
        origin = getattr(frame, "origin", frame.src)
        # Rated lists (§3.6) may carry sub-threshold pairs for the anypath
        # table; only real conflicts belong in the defer table.
        conflicts = [
            e for e in frame.entries if e.loss_rate > self.params.l_interf
        ]
        added = self.defer_table.update_from_interferer_list(
            self.node_id, origin, conflicts, self.sim.now
        )
        self.anypath.update_from_rated_list(origin, frame.entries, self.sim.now)
        if added:
            self.tracer.emit(self.sim.now, self.node_id,
                             TraceKind.DEFER_TABLE_UPDATE, origin, added)
        if self.params.two_hop_ilist and origin == frame.src:
            relay = InterfererListFrame(
                src=self.node_id,
                dst=BROADCAST,
                size_bytes=0,
                rate=self.params.control_rate,
                entries=frame.entries,
            )
            relay.origin = origin  # type: ignore[attr-defined]
            delay = float(self.rng.uniform(1e-3, 10e-3))
            # Fire-and-forget (several relays may be in flight at once, so a
            # named timer would wrongly supersede); guarded by _started.
            self.sim.schedule_call(delay, self._transmit_relay, (relay,))

    def _transmit_relay(self, relay: InterfererListFrame) -> None:
        if not self._started or self.radio.is_transmitting or self._state is _State.BURST:
            return
        self.radio.transmit(relay)

    # ------------------------------------------------------------------
    # Batched conflict-map sweep
    # ------------------------------------------------------------------
    def _sweep_maps(self) -> None:
        """Reclaim expired ongoing-list/defer-table entries in one batch.

        Replaces the per-event scans (every overheard trailer swept the
        ongoing list; every defer decision swept the defer table). Decision
        paths skip expired entries inline, so when the deletion happens is
        behaviour-neutral — this timer only bounds memory, and draws no
        randomness so the RNG streams stay bit-identical.
        """
        self.timers.arm("sweep", self._sweep_period, self._cb_sweep)
        now = self.sim.now
        self.ongoing.sweep(now)
        self.defer_table.sweep(now)

    # ==================================================================
    # Introspection helpers (experiments, tests)
    # ==================================================================
    def receiver_window(self, src: int) -> ReceiverWindow:
        return self._rx_for(src)

    def header_or_trailer_rate(self, src: int, vpkts_sent: int) -> float:
        """Fig. 16/19 statistic: P(header or trailer received) per vpkt."""
        if vpkts_sent <= 0:
            return 0.0
        either = len(self._rx_for(src).either_header_or_trailer())
        return min(1.0, either / vpkts_sent)

    def header_rate(self, src: int, vpkts_sent: int) -> float:
        if vpkts_sent <= 0:
            return 0.0
        return min(1.0, len(self._rx_for(src).vpkts_header_ok) / vpkts_sent)
