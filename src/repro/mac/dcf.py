"""802.11 DCF — the paper's baseline MAC, with CS and ACK switches.

Implements the distributed coordination function at the fidelity the paper's
comparison needs: DIFS/SIFS timing, slotted binary-exponential backoff with
freezing, stop-and-wait link-layer ACKs, retry limit, and post-transmission
backoff. The two switches produce the paper's three baselines:

* ``carrier_sense=True,  acks=True``  — "CS, acks" (the status quo);
* ``carrier_sense=False, acks=True``  — "CS off, acks";
* ``carrier_sense=False, acks=False`` — "CS off, no acks" (blast mode,
  used in §5.2/§5.4 to measure raw concurrency).

With carrier sense disabled, backoff durations are pure waits (nothing can
freeze them, as the hardware is not listening before talking).

Hot-path notes: timing/switch params are folded into slotted instance
fields at build time (``data_rate`` deliberately excepted — the autorate
MAC mutates it live), timers go through the named registry, and the per-timer callbacks are bound once at build so
re-arming a timer allocates nothing.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.kernels import backend
from repro.kernels.cdraws import NextUint32
from repro.mac.base import MacBase, Packet
from repro.phy.frames import (
    BROADCAST,
    DcfAckFrame,
    DcfDataFrame,
    Frame,
    FrameKind,
    MAC_OVERHEAD_BYTES,
)
from repro.phy.modulation import Phy80211a, Rate, RATE_6M


@dataclass
class DcfParams:
    """DCF configuration (802.11a defaults)."""

    carrier_sense: bool = True
    acks: bool = True
    data_rate: Rate = RATE_6M
    ack_rate: Rate = RATE_6M
    cw_min: int = 15
    cw_max: int = 1023
    retry_limit: int = 7
    slot: float = Phy80211a.SLOT_TIME
    sifs: float = Phy80211a.SIFS
    difs: float = Phy80211a.DIFS
    #: Extra slack beyond SIFS + ACK airtime before declaring ACK loss.
    ack_timeout_slack: float = 25e-6

    def ack_timeout(self) -> float:
        ack_air = Phy80211a.airtime(14, self.ack_rate)
        return self.sifs + ack_air + self.ack_timeout_slack


class _State(Enum):
    IDLE = "idle"
    CONTEND = "contend"  # waiting for DIFS / counting down backoff
    TX = "tx"
    WAIT_ACK = "wait_ack"


class DcfMac(MacBase):
    """One node's DCF instance."""

    __slots__ = (
        "params",
        "_state",
        "_cw",
        "_retries",
        "_current",
        "_current_frame",
        "_seq",
        "_backoff_slots",
        "_need_post_backoff",
        "_ack_timeout",
        "_cs",
        "_acks",
        "_slot",
        "_sifs",
        "_difs",
        "_cw_min",
        "_cw_max",
        "_retry_limit",
        "_ack_rate",
        "_draw_backoff",
        "_next_u32",
        "_u32_state",
        "_cb_difs",
        "_cb_slot",
        "_cb_tx",
        "_cb_ack",
    )

    #: DCF acts only on frames addressed to it (or broadcast).
    READS_OVERHEARD = ()

    def __init__(self, sim, node_id, radio, rng, params: Optional[DcfParams] = None):
        super().__init__(sim, node_id, radio, rng)
        self.params = params or DcfParams()
        self._state = _State.IDLE
        self._cw = self.params.cw_min
        self._retries = 0
        self._current: Optional[Packet] = None
        self._current_frame: Optional[DcfDataFrame] = None
        self._seq = 0
        self._backoff_slots: Optional[int] = None
        #: Post-TX backoff applies even after success (standard DCF).
        self._need_post_backoff = False
        #: ack_timeout() is a pure function of the (fixed) params; computing
        #: the ACK airtime once per MAC instead of once per data frame.
        self._ack_timeout = self.params.ack_timeout()
        # Build-time folding of the per-event params reads. data_rate is
        # NOT folded: the autorate wrapper retunes it mid-run.
        p = self.params
        self._cs = p.carrier_sense
        self._acks = p.acks
        self._slot = p.slot
        self._sifs = p.sifs
        self._difs = p.difs
        self._cw_min = p.cw_min
        self._cw_max = p.cw_max
        self._retry_limit = p.retry_limit
        self._ack_rate = p.ack_rate
        # The backoff draw: numpy's own bounded-integer rejection for
        # integers(0, cw + 1), run over the stream's next_uint32 (the words
        # integers itself reads), so the stream stays bit-identical.
        # Inside reference_kernels() (or for a window too wide for 32
        # bits) the Generator method draws instead.
        self._draw_backoff = self.rng.integers
        self._next_u32 = self._u32_state = None
        if not backend.reference and max(p.cw_min, p.cw_max) < 0xFFFFFFFF:
            # The state pointer lives as long as self.rng's bit generator.
            # from_buffer reads the pointer the way ctypes.cast would, but
            # cast leaves the source pointer in a reference cycle.
            iface = self.rng.bit_generator.ctypes
            self._next_u32 = NextUint32(
                ctypes.c_void_p.from_buffer(iface.next_uint32).value
            )
            self._u32_state = iface.state_address
        # Timer callbacks bound once so registry re-arms hit the
        # handle-reuse fast path (and allocate no bound methods).
        self._cb_difs = self._difs_elapsed
        self._cb_slot = self._next_slot
        self._cb_tx = self._transmit_current
        self._cb_ack = self._ack_timed_out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        self._maybe_begin()

    def _on_stop(self) -> None:
        self._state = _State.IDLE

    def on_queue_refill(self) -> None:
        self._maybe_begin()

    def _maybe_begin(self) -> None:
        if self._state is not _State.IDLE or not self._started:
            return
        if self._current is None:
            self._current = self.next_packet()
        if self._current is None:
            return
        self._state = _State.CONTEND
        if self._backoff_slots is None:
            if self._need_post_backoff or self._retries > 0:
                cw = self._cw
                next_u32 = self._next_u32
                if next_u32 is None:
                    self._backoff_slots = int(self._draw_backoff(0, cw + 1))
                elif cw == 0:
                    self._backoff_slots = 0
                else:
                    # Lemire: scale a 32-bit word by the window; reject
                    # the few low words that would bias it.
                    n = cw + 1
                    m = next_u32(self._u32_state) * n
                    if m & 0xFFFFFFFF < n:
                        floor = (0xFFFFFFFF - cw) % n
                        while m & 0xFFFFFFFF < floor:
                            m = next_u32(self._u32_state) * n
                    self._backoff_slots = m >> 32
            else:
                self._backoff_slots = 0
        if self._cs:
            self._start_difs_when_idle()
        else:
            # No listening: DIFS and backoff are pure time.
            delay = self._difs + self._backoff_slots * self._slot
            self._backoff_slots = 0
            self.timers.arm("slot", delay, self._cb_tx)

    # ------------------------------------------------------------------
    # Carrier-sensed contention
    # ------------------------------------------------------------------
    def _start_difs_when_idle(self) -> None:
        self._cancel_contention()
        if self.radio.is_channel_busy():
            return  # on_channel_idle will restart us
        self.timers.arm("difs", self._difs, self._cb_difs)

    def _difs_elapsed(self) -> None:
        self._next_slot()

    def _next_slot(self) -> None:
        if self._backoff_slots is None or self._backoff_slots <= 0:
            self._backoff_slots = None
            self._transmit_current()
            return
        self._backoff_slots -= 1
        self.timers.arm("slot", self._slot, self._cb_slot)

    def on_channel_busy(self) -> None:
        if self._state is _State.CONTEND and self._cs:
            # Freeze: cancel DIFS/slot timers, keep remaining slot count.
            self._cancel_contention()

    def on_channel_idle(self) -> None:
        if self._state is _State.CONTEND and self._cs:
            self._start_difs_when_idle()

    def _cancel_contention(self) -> None:
        self.timers.cancel("difs")
        self.timers.cancel("slot")

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _transmit_current(self) -> None:
        if not self._started:
            return  # stopped (churned out) between scheduling and firing
        if self._current is None:  # pragma: no cover - defensive
            self._state = _State.IDLE
            return
        if self.radio.is_transmitting:  # pragma: no cover - defensive
            self.timers.arm("slot", self._slot, self._cb_tx)
            return
        pkt = self._current
        frame = DcfDataFrame(
            src=self.node_id,
            dst=pkt.dst,
            size_bytes=pkt.size_bytes + MAC_OVERHEAD_BYTES,
            rate=self.params.data_rate,
            seq=self._seq,
            packet_id=pkt.packet_id,
            retry=self._retries > 0,
        )
        self._current_frame = frame
        self._state = _State.TX
        self.stats.data_frames_sent += 1
        if self._retries > 0:
            self.stats.retransmissions += 1
        self.radio.transmit(frame)

    def on_tx_complete(self, frame: Frame) -> None:
        if not self._started:
            # Stopped (churned out) while this frame was in flight: its end
            # edge still arrives by design, but must not arm new timers.
            return
        if frame.kind is FrameKind.DCF_ACK:
            return  # receiver side finished sending an ACK
        if frame is not self._current_frame:
            return
        wants_ack = self._acks and not frame.is_broadcast
        if wants_ack:
            self._state = _State.WAIT_ACK
            self.timers.arm("ack", self._ack_timeout, self._cb_ack)
        else:
            self._packet_done(success=True)

    # ------------------------------------------------------------------
    # ACK handling
    # ------------------------------------------------------------------
    def _ack_timed_out(self) -> None:
        self.stats.ack_timeouts += 1
        self._retries += 1
        if self._retries > self._retry_limit:
            self.stats.packets_dropped += 1
            self._packet_done(success=False)
            return
        self._cw = min(2 * self._cw + 1, self._cw_max)
        self._backoff_slots = None
        self._state = _State.IDLE
        self._maybe_begin()

    def _packet_done(self, success: bool) -> None:
        self._current = None
        self._current_frame = None
        self._seq += 1
        self._retries = 0
        self._cw = self._cw_min
        self._backoff_slots = None
        self._need_post_backoff = True
        self._state = _State.IDLE
        self._maybe_begin()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_frame_received(self, frame: Frame, ok: bool, reception) -> None:
        if not ok:
            return
        if frame.kind is FrameKind.DCF_DATA:
            if frame.dst in (self.node_id, BROADCAST):
                self.stats.data_frames_received_ok += 1
                self.deliver_up(
                    frame.src, frame.packet_id, frame.size_bytes - MAC_OVERHEAD_BYTES
                )
                if self._acks and frame.dst == self.node_id:
                    self._send_ack(frame)
        elif frame.kind is FrameKind.DCF_ACK:
            if frame.dst == self.node_id:
                self._handle_ack(frame)

    def _send_ack(self, data_frame: DcfDataFrame) -> None:
        ack = DcfAckFrame(
            src=self.node_id,
            dst=data_frame.src,
            size_bytes=14,
            rate=self._ack_rate,
            acked_seq=data_frame.seq,
            acked_uid=data_frame.uid,
        )
        self.stats.acks_sent += 1
        self.sim.schedule_call(self._sifs, self._transmit_ack, (ack,))

    def _transmit_ack(self, ack: DcfAckFrame) -> None:
        if not self._started or self.radio.is_transmitting:
            # Stopped (churned out) or extremely rare receiver-busy; drop.
            return
        self.radio.transmit(ack)

    def _handle_ack(self, ack: DcfAckFrame) -> None:
        if (
            self._state is _State.WAIT_ACK
            and self._current_frame is not None
            and ack.acked_uid == self._current_frame.uid
        ):
            self.stats.acks_received += 1
            self.timers.cancel("ack")
            self._packet_done(success=True)
