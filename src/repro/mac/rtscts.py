"""802.11 DCF with RTS/CTS virtual carrier sense (MACA [7], §6).

The paper's related-work discussion argues RTS/CTS addresses *hidden*
terminals — the CTS warns interferers near the receiver — but makes the
*exposed*-terminal problem strictly worse: an exposed sender that overhears
an RTS or CTS sets its NAV and stays silent for the whole announced exchange
even though its own transmission would have succeeded. This MAC exists to
reproduce that argument quantitatively (the ``rtscts_exposed`` and
``rtscts_hidden`` rows of :data:`repro.experiments.claims.CLAIMS`).

Implementation: standard DCF contention from :class:`repro.mac.dcf.DcfMac`
(which this class extends), with the data exchange replaced by
RTS -> CTS -> DATA -> ACK. Overhearing nodes honour the duration fields of
RTS and CTS frames through a network-allocation vector (NAV); the channel
counts as busy while the NAV is set. RTS collisions are cheap (38-byte
frames), which is the mechanism's selling point for hidden terminals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mac.dcf import DcfMac, DcfParams, _State
from repro.phy.frames import Frame, FrameKind, MAC_OVERHEAD_BYTES
from repro.phy.modulation import Phy80211a

#: 802.11 control frame sizes.
RTS_BYTES = 20
CTS_BYTES = 14


@dataclass
class RtsFrame(Frame):
    """Request-to-send: reserves the channel for ``duration`` seconds."""

    duration: float = 0.0

    def __post_init__(self) -> None:
        self.kind = FrameKind.DCF_DATA  # carried below; discriminate on type
        self.size_bytes = RTS_BYTES


@dataclass
class CtsFrame(Frame):
    """Clear-to-send: the receiver's half of the reservation."""

    duration: float = 0.0
    rts_uid: int = 0

    def __post_init__(self) -> None:
        self.kind = FrameKind.DCF_DATA
        self.size_bytes = CTS_BYTES


@dataclass
class RtsCtsParams(DcfParams):
    """DCF parameters plus the RTS/CTS-specific timeout slack."""

    cts_timeout_slack: float = 25e-6

    def cts_timeout(self) -> float:
        cts_air = Phy80211a.airtime(CTS_BYTES, self.ack_rate)
        return self.sifs + cts_air + self.cts_timeout_slack


class RtsCtsMac(DcfMac):
    """DCF with the four-way RTS/CTS/DATA/ACK exchange and a NAV."""

    __slots__ = (
        "nav_until",
        "_awaiting_cts_for",
        "_pending_data_frame",
        "_cts_timeout",
        "_cb_nav_recheck",
        "_cb_cts_to",
        "stats_rts_sent",
        "stats_cts_timeouts",
        "stats_nav_set",
    )

    #: Overheard RTS/CTS set the NAV; both carry ``DCF_DATA``.
    READS_OVERHEARD = (FrameKind.DCF_DATA,)

    def __init__(self, sim, node_id, radio, rng, params: Optional[RtsCtsParams] = None):
        super().__init__(sim, node_id, radio, rng, params or RtsCtsParams())
        #: Network-allocation vector: virtual carrier busy until this time.
        self.nav_until: float = 0.0
        self._awaiting_cts_for: Optional[RtsFrame] = None
        self._pending_data_frame = None
        #: Like DCF's _ack_timeout: a pure function of the fixed params.
        self._cts_timeout = self.params.cts_timeout()
        self._cb_nav_recheck = self._start_difs_when_idle
        self._cb_cts_to = self._cts_timed_out
        self.stats_rts_sent = 0
        self.stats_cts_timeouts = 0
        self.stats_nav_set = 0

    def _on_stop(self) -> None:
        super()._on_stop()
        self._awaiting_cts_for = None

    # ------------------------------------------------------------------
    # Virtual carrier sense
    # ------------------------------------------------------------------
    def _channel_blocked(self) -> bool:
        return self.radio.is_channel_busy() or self.sim.now < self.nav_until

    def _start_difs_when_idle(self) -> None:
        self._cancel_contention()
        if self._channel_blocked():
            if self.sim.now < self.nav_until:
                # Re-check when the NAV expires (physical CS edges will not
                # fire for a virtual reservation).
                self.timers.arm(
                    "difs", self.nav_until - self.sim.now, self._cb_nav_recheck
                )
            return
        self.timers.arm("difs", self._difs, self._cb_difs)

    def _set_nav(self, until: float) -> None:
        if until > self.nav_until:
            self.nav_until = until
            self.stats_nav_set += 1

    # ------------------------------------------------------------------
    # Transmit path: RTS first
    # ------------------------------------------------------------------
    def _transmit_current(self) -> None:
        if self._current is None:  # pragma: no cover - defensive
            self._state = _State.IDLE
            return
        if self.radio.is_transmitting:
            # Our own CTS or ACK is still on the air (a SIFS turnaround for
            # the peer's exchange outlasted our countdown): retry a slot
            # later, as DCF does.
            self.timers.arm("slot", self._slot, self._cb_tx)
            return
        if self._current.dst < 0:
            # Broadcasts skip the handshake (no single CTS responder).
            super()._transmit_current()
            return
        p = self.params
        data_air = Phy80211a.airtime(
            self._current.size_bytes + MAC_OVERHEAD_BYTES, p.data_rate
        )
        cts_air = Phy80211a.airtime(CTS_BYTES, p.ack_rate)
        ack_air = Phy80211a.airtime(14, p.ack_rate)
        # Duration field: everything after the RTS itself.
        duration = 3 * p.sifs + cts_air + data_air + ack_air
        rts = RtsFrame(
            src=self.node_id,
            dst=self._current.dst,
            size_bytes=RTS_BYTES,
            rate=p.ack_rate,
            duration=duration,
        )
        self._awaiting_cts_for = rts
        self._state = _State.TX
        self.stats_rts_sent += 1
        self.radio.transmit(rts)

    def on_tx_complete(self, frame: Frame) -> None:
        if not self._started:
            return  # stopped (churned out) while the frame was in flight
        if isinstance(frame, RtsFrame):
            self.timers.arm("cts", self._cts_timeout, self._cb_cts_to)
            return
        if isinstance(frame, CtsFrame):
            return  # receiver side; the sender's data will follow
        super().on_tx_complete(frame)

    def _cts_timed_out(self) -> None:
        """No CTS: treat like a missing ACK (retry with a wider window)."""
        self._awaiting_cts_for = None
        self.stats_cts_timeouts += 1
        self._ack_timed_out()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_frame_received(self, frame: Frame, ok: bool, reception) -> None:
        if isinstance(frame, RtsFrame):
            if not ok:
                return
            if frame.dst == self.node_id:
                self._reply_cts(frame)
            else:
                # Overhearing an RTS reserves the channel for the exchange.
                self._set_nav(self.sim.now + frame.duration)
            return
        if isinstance(frame, CtsFrame):
            if not ok:
                return
            if frame.dst == self.node_id:
                self._cts_received(frame)
            else:
                self._set_nav(self.sim.now + frame.duration)
            return
        super().on_frame_received(frame, ok, reception)

    def _reply_cts(self, rts: RtsFrame) -> None:
        cts_air = Phy80211a.airtime(CTS_BYTES, self._ack_rate)
        cts = CtsFrame(
            src=self.node_id,
            dst=rts.src,
            size_bytes=CTS_BYTES,
            rate=self._ack_rate,
            duration=max(0.0, rts.duration - self._sifs - cts_air),
            rts_uid=rts.uid,
        )
        # Fire-and-forget (never cancelled): the handle-free fast path, with
        # _transmit_control's _started check covering churn-out races.
        self.sim.schedule_call(self._sifs, self._transmit_control, (cts,))

    def _transmit_control(self, frame: Frame) -> None:
        if self._started and not self.radio.is_transmitting:
            self.radio.transmit(frame)

    def _cts_received(self, cts: CtsFrame) -> None:
        if self._awaiting_cts_for is None or cts.rts_uid != self._awaiting_cts_for.uid:
            return
        self._awaiting_cts_for = None
        self.timers.cancel("cts")
        # Channel is reserved: send the data frame after SIFS.
        self.sim.schedule_call(self._sifs, self._transmit_reserved_data)

    def _transmit_reserved_data(self) -> None:
        if not self._started or self._current is None or self.radio.is_transmitting:
            return
        super()._transmit_current()


def rtscts_factory(params: Optional[RtsCtsParams] = None):
    """Factory matching :func:`repro.network.dcf_factory`'s shape."""

    def make(sim, node_id, radio, rng) -> RtsCtsMac:
        return RtsCtsMac(sim, node_id, radio, rng, params or RtsCtsParams())

    return make
