"""Frame types exchanged over the simulated medium.

CMAP's prototype (paper §4.1, Fig. 9) transmits a *virtual packet*: one small
header frame, ``N_vpkt`` data frames, and one small trailer frame,
back-to-back. Header/trailer carry (src, dst, transmission time, sequence
number, CRC) per Fig. 3 — 24 bytes. The baselines use conventional 802.11
data/ACK frames.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import FrozenSet, Tuple

from repro.phy.modulation import RATE_6M, Rate

#: Destination id for broadcast frames.
BROADCAST = -1

#: Fig. 3: 6 (src) + 6 (dst) + 4 (tx time) + 4 (seq) + 4 (CRC) bytes.
CMAP_HEADER_TRAILER_BYTES = 24

#: 802.11 MAC header (24) + FCS (4) added to every data payload.
MAC_OVERHEAD_BYTES = 28

#: 802.11 ACK frame size.
DCF_ACK_BYTES = 14

#: CMAP cumulative ACK: addresses/seq (14) + 32 B bitmap + loss rate (2).
CMAP_ACK_BYTES = 48

_uid_counter = itertools.count(1)


class FrameKind(Enum):
    """Discriminates frame handling in MACs and stats."""

    DATA = "data"
    VPKT_HEADER = "vpkt_header"
    VPKT_TRAILER = "vpkt_trailer"
    CMAP_ACK = "cmap_ack"
    INTERFERER_LIST = "interferer_list"
    DCF_DATA = "dcf_data"
    DCF_ACK = "dcf_ack"


@dataclass(slots=True)
class Frame:
    """Base class for everything that goes on the air.

    ``size_bytes`` is the PSDU size (payload + MAC overhead); airtime is
    computed from it by the PHY. ``uid`` identifies the emission (retries of
    the same packet get fresh uids).
    """

    src: int
    dst: int
    size_bytes: int
    rate: Rate = RATE_6M
    kind: FrameKind = FrameKind.DATA
    uid: int = field(default_factory=lambda: next(_uid_counter))

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST


@dataclass(slots=True)
class DataFrame(Frame):
    """One CMAP data packet inside a virtual packet.

    ``seq`` is the link-layer sequence number in the sender->receiver stream;
    ``packet_id`` identifies the application packet (for duplicate-free
    throughput accounting); ``vpkt_id`` ties it to its virtual packet.
    """

    seq: int = 0
    packet_id: int = 0
    vpkt_id: int = 0
    #: End of the whole virtual packet, replicated from the header when
    #: ``CmapParams.replicate_ht_in_data`` is set (§5.6); 0.0 otherwise.
    burst_end: float = 0.0

    def __post_init__(self) -> None:
        self.kind = FrameKind.DATA


@dataclass(slots=True)
class VpktHeaderFrame(Frame):
    """Virtual-packet header: announces an imminent burst.

    ``burst_duration`` is the remaining on-air time of the whole virtual
    packet as of the *end* of this header frame — overhearing nodes use it to
    decide how long to defer (paper §3.2).
    """

    vpkt_id: int = 0
    burst_duration: float = 0.0
    num_packets: int = 0
    first_seq: int = 0

    def __post_init__(self) -> None:
        self.kind = FrameKind.VPKT_HEADER
        self.size_bytes = CMAP_HEADER_TRAILER_BYTES + MAC_OVERHEAD_BYTES


@dataclass(slots=True)
class VpktTrailerFrame(Frame):
    """Virtual-packet trailer: marks the end of a burst.

    Carries the same identification as the header so that a receiver that
    lost the header can still attribute the burst (Fig. 5's salvage insight).
    """

    vpkt_id: int = 0
    num_packets: int = 0
    first_seq: int = 0

    def __post_init__(self) -> None:
        self.kind = FrameKind.VPKT_TRAILER
        self.size_bytes = CMAP_HEADER_TRAILER_BYTES + MAC_OVERHEAD_BYTES


@dataclass(slots=True)
class CmapAckFrame(Frame):
    """Cumulative windowed ACK (paper §3.3).

    ``received_seqs`` reports which sequence numbers in the trailing window
    ``[max_seq - window_span + 1, max_seq]`` were received; ``loss_rate`` is
    the receiver's loss estimate over its previous window of packets, which
    drives the sender's backoff (§3.4).
    """

    vpkt_id: int = 0
    max_seq: int = -1
    received_seqs: FrozenSet[int] = frozenset()
    window_span: int = 256
    loss_rate: float = 0.0
    piggyback_interferers: Tuple = ()

    def __post_init__(self) -> None:
        self.kind = FrameKind.CMAP_ACK
        self.size_bytes = CMAP_ACK_BYTES + MAC_OVERHEAD_BYTES


@dataclass
class InterfererListFrame(Frame):
    """Periodic broadcast of a receiver's interferer list (paper §3.1).

    ``entries`` is a tuple of (source, interferer[, source_rate_mbps,
    interferer_rate_mbps]) tuples; rates are present only when the optional
    rate-aware conflict map (§3.5) is enabled.
    """

    entries: Tuple = ()

    def __post_init__(self) -> None:
        self.kind = FrameKind.INTERFERER_LIST
        self.size_bytes = (
            CMAP_HEADER_TRAILER_BYTES + 12 * len(self.entries) + MAC_OVERHEAD_BYTES
        )


@dataclass(slots=True)
class DcfDataFrame(Frame):
    """A conventional 802.11 data frame (baseline MACs)."""

    seq: int = 0
    packet_id: int = 0
    retry: bool = False

    def __post_init__(self) -> None:
        self.kind = FrameKind.DCF_DATA


@dataclass(slots=True)
class DcfAckFrame(Frame):
    """A conventional 802.11 ACK."""

    acked_seq: int = 0
    acked_uid: int = 0

    def __post_init__(self) -> None:
        self.kind = FrameKind.DCF_ACK
        self.size_bytes = DCF_ACK_BYTES
