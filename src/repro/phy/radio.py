"""Half-duplex radio with sync-at-start capture and carrier sense.

Reception model:

* A radio idle (not transmitting, not mid-reception) at a frame's start
  *syncs* to it if the frame's RSS clears the sensitivity floor and its SINR
  against the currently-summed interference clears the capture threshold
  (preamble detection).
* Frames that cannot be synced — arrivals during TX, during another
  reception, or too weak — contribute interference to whatever reception is
  in progress.
* At frame end the reception is scored (see :mod:`repro.phy.reception`) and
  delivered to the MAC with an ``ok`` flag; corrupt frames go to a MAC that
  reads them too, mirroring monitor-mode 802.11 hardware (the CMAP prototype
  runs all nodes promiscuous, paper §4).
* A MAC reads every frame addressed to its node or broadcast, and of the
  frames it overhears only the kinds it declares (:attr:`reads_overheard`,
  set when it attaches; ``None`` reads everything). A synced frame nobody
  reads is *unscored*: it still holds the radio in RX (capture,
  message-in-message and carrier sense are unchanged) and its delivery coin
  is still drawn, but its interference changes are not recorded, it is not
  scored and no MAC is called (``RadioStats.delivered_unscored``).

Carrier sense is preamble-style (paper footnote 1): the channel is busy iff
some in-flight frame's RSS is at or above ``cs_threshold_dbm`` or the radio
itself is transmitting. Busy/idle edges are reported to the MAC for DCF
backoff freezing.

Aggregate interference is the left-to-right sum over the arrival dict. The
one query a busy radio repeats — everything but the currently-synced
frame's uid — is kept as an *incremental insertion-order fold*: appending
an arrival may extend it as ``cached + rss_mw`` (identical terms, identical
order — the fold a fresh re-sum would produce). A removal invalidates the
fold and the next query re-runs the full insertion-order loop; nothing is
ever subtracted, so float rounding — and the golden-float experiment
outputs — cannot drift. The *total* (no exclusion) is not cached: only an
idle radio's sync attempt asks for it, and that either syncs (later
queries use the exclusion form) or is followed by a removal, so a total
fold measured 0–4 % hits (DESIGN.md "Performance").

The receive path is the four closures the ``bind_*_entry`` factories below
mint for the medium's fan-out tables, one per table entry and edge. The
pair's fade sampler (a zero-fade sampler on a static channel) and this
radio's config and noise are resolved once at table-build time;
reassigning :attr:`Radio.config` invalidates every table containing the
radio, so a closure can never outlive the config it was compiled from.
Fades and coins draw on one stream, bound by
:func:`~repro.kernels.backend.bind_stream`: buffered on an RNG-free channel,
else through numpy's C functions (bit-identical to the Generator methods).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import log10 as _log10
from typing import Callable, Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.kernels.backend import bind_stream
from repro.phy.fading import FadingModel
from repro.phy.frames import BROADCAST, Frame
from repro.phy.modulation import ErrorModel, NistErrorModel
from repro.phy.reception import Reception
from repro.util.units import dbm_to_mw

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.medium import Medium, Transmission
    from repro.sim.engine import Simulator


class RadioState(Enum):
    IDLE = "idle"
    RX = "rx"
    TX = "tx"


def _no_fade() -> float:
    """The static channel's fade sampler (what ``NoFading`` binds)."""
    return 0.0


@dataclass
class RadioConfig:
    """Physical parameters of one radio (defaults model the AR5212 testbed)."""

    tx_power_dbm: float = 18.0
    noise_dbm: float = -93.0
    #: Weakest frame the radio will attempt to sync to.
    sensitivity_dbm: float = -90.0
    #: Preamble-detect carrier-sense threshold. Real receivers detect (and
    #: defer to) preambles several dB below the level at which they can
    #: decode a full-length data frame; that gap — carrier-sense range
    #: exceeding interference range — is exactly the over-conservatism the
    #: paper's exposed terminals exploit.
    cs_threshold_dbm: float = -95.0
    #: Minimum SINR at frame start required to sync (preamble capture).
    capture_sinr_db: float = 4.0
    #: Message-in-message capture: a new frame whose preamble SINR (counting
    #: the currently-synced frame as interference) clears
    #: ``capture_sinr_db + mim_extra_db`` restarts reception onto the new
    #: frame. Commodity Atheros hardware does this and the capture
    #: literature the paper builds on ([18, 20]) documents it; without it an
    #: exposed sender could never receive its (strong) ACKs through a
    #: neighbour's (weak) burst.
    mim_capture: bool = True
    mim_extra_db: float = 4.0
    #: Per-frame small-scale fading model (None = static channel). This is
    #: what produces intermediate-quality links and the long tail of weak
    #: ones in the testbed census (§5.1).
    fading: Optional[FadingModel] = None
    error_model: ErrorModel = field(default_factory=NistErrorModel)


@dataclass
class RadioStats:
    """Counters a radio accumulates over a run."""

    tx_frames: int = 0
    tx_airtime: float = 0.0
    delivered_ok: int = 0
    delivered_corrupt: int = 0
    #: Completed receptions no MAC reads: coin drawn, nothing scored.
    delivered_unscored: int = 0
    sync_missed_weak: int = 0
    sync_missed_capture: int = 0
    sync_missed_busy_rx: int = 0
    sync_missed_busy_tx: int = 0
    rx_aborted_by_tx: int = 0
    rx_mim_captures: int = 0
    #: Transmit attempts made after the radio was detached (churn): dropped.
    tx_dropped_detached: int = 0
    #: Energy-only arrivals delivered below the medium's delivery floor.
    interference_only_arrivals: int = 0


class Radio:
    """One node's radio front-end."""

    #: Slotted for hot-path attribute speed (every arrival touches the
    #: fold/state fields several times). ``__dict__`` stays available so
    #: tests can still monkeypatch bound methods (e.g. ``radio.transmit``).
    __slots__ = (
        "sim",
        "node_id",
        "rng",
        "medium",
        "mac",
        "reads_overheard",
        "detached",
        "stats",
        "_config",
        "_noise_mw",
        "_state",
        "_current_tx",
        "_sync",
        "_arrivals",
        "_sensed",
        "_excl_uid",
        "_excl_total",
        "_excl_valid",
        "_fade_samplers",
        "_sampler_model",
        "_draw_arg",
        "_coin",
        "__dict__",
    )

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        config: RadioConfig,
        rng: np.random.Generator,
    ):
        self.sim = sim
        self.node_id = node_id
        # The coin is _coin(_draw_arg); fade samplers draw on _draw_arg too.
        self.rng, self._draw_arg = bind_stream(rng, config.fading)
        self._coin = type(self._draw_arg).random
        self.medium: Optional["Medium"] = None
        self.mac = None  # set by the MAC when it attaches
        #: Frame kinds the MAC reads when addressed to another node, as a
        #: tuple (enum members hash in Python; a tuple scan does not), or
        #: None for every frame. Set by the MAC when it attaches.
        self.reads_overheard = None
        #: Set by Medium.detach (churn): future transmits become drops while
        #: in-flight frames still deliver their edges here.
        self.detached = False
        self.stats = RadioStats()

        self._config = config
        self._noise_mw = dbm_to_mw(config.noise_dbm)
        self._state = RadioState.IDLE
        self._current_tx: Optional["Transmission"] = None
        self._sync: Optional[Reception] = None
        #: In-flight arrivals above the medium cutoff: uid -> rss_mw.
        self._arrivals: Dict[int, float] = {}
        #: uids of arrivals at/above the carrier-sense threshold.
        self._sensed: set = set()
        #: Incremental insertion-order fold over the arrival set: the
        #: left-to-right sum of ``_arrivals.values()`` minus the single uid
        #: the hot path excludes (the synced frame). Appends extend a valid
        #: fold; removals invalidate it (the next query re-sums).
        self._excl_uid: Optional[int] = None
        self._excl_total = 0.0
        self._excl_valid = False
        #: tx_node -> pair-specialised fade sampler (see FadingModel); the
        #: model the samplers came from, so a swapped model resets them.
        self._fade_samplers: Dict[int, Callable] = {}
        self._sampler_model: Optional[FadingModel] = None

    # ------------------------------------------------------------------
    # Config lifecycle
    # ------------------------------------------------------------------
    @property
    def config(self) -> RadioConfig:
        return self._config

    @config.setter
    def config(self, config: RadioConfig) -> None:
        """Swap the radio's config and invalidate derived state.

        Fan-out tables bind threshold comparisons and fade samplers from
        the config at build time (see ``bind_*_entry``), so a runtime swap
        — e.g. :class:`repro.mac.cs_tuning.CsTuningMac` hill-climbing
        ``cs_threshold_dbm`` — must invalidate every table that includes
        this radio. The medium's geometry version is the single
        invalidation point fan-out tables already honour. Like a position
        move (determinism rule 5), the swap applies to frames transmitted
        *after* it: a frame captures its receiver callbacks at
        ``transmit()``, so its edges are evaluated under the config the
        frame left the antenna with, even if the swap lands at the same
        instant.
        """
        self._config = config
        self._noise_mw = dbm_to_mw(config.noise_dbm)
        # Re-bind the stream for the new channel model: a swap to
        # RNG-consuming fading detaches the buffer (exactly the consumed
        # draws are replayed, so the draws continue bit-identically); a swap
        # to an RNG-free channel starts buffering from the current state.
        self.rng, self._draw_arg = bind_stream(self.rng, config.fading)
        self._coin = type(self._draw_arg).random
        medium = self.medium
        if medium is not None:
            medium.on_radio_config_changed(self.node_id)

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        return self._state

    @property
    def is_transmitting(self) -> bool:
        return self._state is RadioState.TX

    def is_channel_busy(self) -> bool:
        """Preamble-detect carrier sense: TX in progress or a sensed frame."""
        return self._state is RadioState.TX or bool(self._sensed)

    def interference_mw(self, excluding_uid: Optional[int] = None) -> float:
        """Aggregate received power from in-flight frames, in milliwatts.

        The total (``excluding_uid is None``) is the insertion-order sum
        of the arrival set. An exclusion is served from the incremental
        fold when it is valid for that uid; a miss re-sums in insertion
        order — the identical loop the uncached implementation ran — so
        the returned value is always bit-identical to a fresh computation.
        """
        arrivals = self._arrivals
        if not arrivals:
            return 0.0
        if excluding_uid is None:
            total = 0.0
            for rss_mw in arrivals.values():
                total += rss_mw
            return total
        if self._excl_valid and excluding_uid == self._excl_uid:
            return self._excl_total
        total = 0.0
        for uid, rss_mw in arrivals.items():
            if uid != excluding_uid:
                total += rss_mw
        self._excl_uid = excluding_uid
        self._excl_total = total
        self._excl_valid = True
        return total

    # ------------------------------------------------------------------
    # Geometry (dynamic world)
    # ------------------------------------------------------------------
    def set_position(self, position) -> int:
        """Move this radio's node; returns the new position epoch.

        Delegates to :meth:`repro.phy.medium.Medium.set_position`, which
        bumps the geometry version (invalidating fan-out tables) and calls
        back into :meth:`on_position_changed`.
        """
        if self.medium is None:
            raise RuntimeError("radio not attached to a medium")
        return self.medium.set_position(self.node_id, position)

    def on_position_changed(self) -> None:
        """Medium callback after this node moved: flush gain-derived caches.

        In-flight arrivals keep the RSS they were launched with (the frame
        left the antenna under the old geometry), so the re-summed
        interference is value-identical; invalidating the fold simply
        guarantees nothing keyed to the old geometry outlives the move.
        Pair fade samplers are keyed by node identity, not position (like
        shadowing), and survive.
        """
        self._excl_valid = False

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> Optional["Transmission"]:
        """Start transmitting ``frame``; half-duplex, so any reception dies.

        A detached radio (its node left the network) drops the frame and
        returns ``None`` -- un-cancellable callbacks scheduled before the
        departure (SIFS-delayed ACKs, relays) land here harmlessly.
        """
        if self.medium is None:
            raise RuntimeError("radio not attached to a medium")
        if self.detached:
            self.stats.tx_dropped_detached += 1
            return None
        if self._state is RadioState.TX:
            raise RuntimeError(
                f"node {self.node_id} asked to transmit while already transmitting"
            )
        if self._sync is not None:
            # Turning the transmitter on destroys the reception in progress.
            self._sync = None
            self.stats.rx_aborted_by_tx += 1
        self._state = RadioState.TX
        tx = self.medium.transmit(self, frame)
        self._current_tx = tx
        self.stats.tx_frames += 1
        self.stats.tx_airtime += tx.airtime
        return tx

    def on_own_tx_end(self, tx: "Transmission") -> None:
        """Medium callback: our frame finished leaving the antenna."""
        self._current_tx = None
        self._state = RadioState.RX if self._sync is not None else RadioState.IDLE
        if self.mac is not None:
            self.mac.on_tx_complete(tx.frame)

    # ------------------------------------------------------------------
    # Receive path: the fan-out entries
    # ------------------------------------------------------------------
    # The medium calls these factories while (re)building a transmitter's
    # fan-out table; the closures they return are the whole receive path.
    # The fade sampler and config/noise lookups are bound at build time, and
    # the closures die with the table (geometry or config change), so they
    # never see a config they were not compiled from. Each keeps its edge's
    # name (on_frame_start, ...): tests and census tooling classify by it.

    def _sampler_for(self, tx_node: int) -> Callable:
        """The pair's fade sampler, cached across table rebuilds.

        Resolution draws no RNG (samplers bind the stream's draw functions;
        the quenched LOS/NLOS class has its own hash-seeded stream).
        """
        fading = self._config.fading
        if fading is None:
            return _no_fade
        if fading is not self._sampler_model:
            self._fade_samplers = {}
            self._sampler_model = fading
        sampler = self._fade_samplers.get(tx_node)
        if sampler is None:
            sampler = self._fade_samplers[tx_node] = fading.pair_sampler(
                tx_node, self.node_id, self._draw_arg
            )
        return sampler

    def bind_start_entry(
        self, tx_node: int, base_rss_dbm: float
    ) -> Callable[["Transmission"], None]:
        """Full-delivery frame-start callback for one entry.

        Every edge draws its fade first, then compares the faded RSS
        against the live thresholds. A static channel binds
        :func:`_no_fade`: ``base + 0.0`` is ``base``, the conversion is
        :func:`dbm_to_mw`'s expression, and no RNG is drawn.
        """
        cfg = self._config
        sampler = self._sampler_for(tx_node)
        cs_db = cfg.cs_threshold_dbm
        sens_db = cfg.sensitivity_dbm
        mim_capture = cfg.mim_capture
        capture_db = cfg.capture_sinr_db
        mim_db = cfg.capture_sinr_db + cfg.mim_extra_db
        noise_mw = self._noise_mw
        arrivals = self._arrivals
        sensed = self._sensed
        stats = self.stats
        sim = self.sim
        addressed = (self.node_id, BROADCAST)
        TX = RadioState.TX
        RX = RadioState.RX

        def on_frame_start(tx: "Transmission") -> None:
            rss_dbm = base_rss_dbm + sampler()
            rss_mw = 10.0 ** (rss_dbm / 10.0)  # == dbm_to_mw(rss_dbm)
            state = self._state
            sync = self._sync
            was_busy = state is TX or bool(sensed)
            syncable = rss_dbm >= sens_db
            # Inlined interference_mw(): the insertion-order total, for the
            # two branches that score the new frame's preamble (an idle
            # sync attempt, or message-in-message over the current sync).
            prior = None
            if state is not TX and syncable and (sync is None or mim_capture):
                prior = 0.0
                for mw in arrivals.values():
                    prior += mw
            uid = tx.uid
            # The new uid lands last in insertion order, so extending a
            # valid fold by rss_mw is exactly the fresh re-sum.
            arrivals[uid] = rss_mw
            if self._excl_valid and uid != self._excl_uid:
                self._excl_total += rss_mw
            if rss_dbm >= cs_db:
                sensed.add(uid)
            if state is TX:
                # Deaf while transmitting; the frame still joins the arrival
                # set, and the channel was already busy (own TX).
                stats.sync_missed_busy_tx += 1
                return
            if sync is not None:
                if prior is not None:
                    # Message-in-message: everything else on the air,
                    # including the current sync, counts against the
                    # newcomer's preamble (inlined linear_to_db).
                    ratio = rss_mw / (prior + noise_mw)
                    sinr = 10.0 * _log10(ratio) if ratio > 0.0 else -400.0
                    if sinr >= mim_db:
                        stats.rx_mim_captures += 1
                        rec = self._sync = Reception(
                            tx, rss_dbm, sim.now, tx.end, prior, rss_mw
                        )
                        reads = self.reads_overheard
                        if reads is not None:
                            frame = tx.frame
                            if frame.kind not in reads and frame.dst not in addressed:
                                rec.scored = False
                        return
                if sync.scored:
                    suid = sync.transmission.uid
                    sync.interference_changed(
                        sim.now,
                        self._excl_total
                        if self._excl_valid and self._excl_uid == suid
                        else self.interference_mw(suid),
                    )
                stats.sync_missed_busy_rx += 1
            elif not syncable:
                stats.sync_missed_weak += 1
            else:
                ratio = rss_mw / (prior + noise_mw)
                sinr = 10.0 * _log10(ratio) if ratio > 0.0 else -400.0
                if sinr < capture_db:
                    stats.sync_missed_capture += 1
                else:
                    rec = self._sync = Reception(
                        tx, rss_dbm, sim.now, tx.end, prior, rss_mw
                    )
                    reads = self.reads_overheard
                    if reads is not None:
                        frame = tx.frame
                        if frame.kind not in reads and frame.dst not in addressed:
                            rec.scored = False
                    self._state = RX
            if not was_busy and sensed and self.mac is not None:
                self.mac.on_channel_busy()

        return on_frame_start

    def bind_interference_start_entry(
        self, rss_dbm: float, rss_mw: float
    ) -> Callable[["Transmission"], None]:
        """Energy-only frame-start callback for one entry.

        Below the delivery floor a frame is never synced and never faded:
        its path-loss RSS only joins interference and carrier sense.
        """
        senses = rss_dbm >= self._config.cs_threshold_dbm
        arrivals = self._arrivals
        sensed = self._sensed
        stats = self.stats
        sim = self.sim
        TX = RadioState.TX

        def on_interference_start(tx: "Transmission") -> None:
            uid = tx.uid
            state = self._state
            was_busy = state is TX or bool(sensed)
            arrivals[uid] = rss_mw
            if self._excl_valid and uid != self._excl_uid:
                self._excl_total += rss_mw
            if senses:
                sensed.add(uid)
            stats.interference_only_arrivals += 1
            sync = self._sync
            if sync is not None and state is not TX and sync.scored:
                suid = sync.transmission.uid
                sync.interference_changed(
                    sim.now,
                    self._excl_total
                    if self._excl_valid and self._excl_uid == suid
                    else self.interference_mw(suid),
                )
            if not was_busy and sensed and self.mac is not None:
                self.mac.on_channel_busy()

        return on_interference_start

    def bind_end_entry(self) -> Callable[["Transmission"], None]:
        """Full-delivery frame-end callback for one entry."""
        arrivals = self._arrivals
        sensed = self._sensed
        sim = self.sim
        TX = RadioState.TX

        def on_frame_end(tx: "Transmission") -> None:
            uid = tx.uid
            # A removal kills the fold.
            if arrivals.pop(uid, None) is not None:
                self._excl_valid = False
            was_busy = self._state is TX or bool(sensed)
            sensed.discard(uid)
            sync = self._sync
            if sync is not None:
                if sync.transmission is tx:
                    self._finalize_reception()
                elif sync.scored:
                    # Inlined interference_mw(suid): the removal above
                    # invalidated the fold, so this is always the full
                    # insertion-order re-sum (and it re-arms the slot).
                    suid = sync.transmission.uid
                    total = 0.0
                    for auid, mw in arrivals.items():
                        if auid != suid:
                            total += mw
                    self._excl_uid = suid
                    self._excl_total = total
                    self._excl_valid = True
                    sync.interference_changed(sim.now, total)
            if (
                was_busy
                and self.mac is not None
                and not (sensed or self._state is TX)
            ):
                self.mac.on_channel_idle()

        return on_frame_end

    def bind_interference_end_entry(self) -> Callable[["Transmission"], None]:
        """Energy-only frame-end callback for one entry."""
        arrivals = self._arrivals
        sensed = self._sensed
        sim = self.sim
        TX = RadioState.TX

        def on_interference_end(tx: "Transmission") -> None:
            uid = tx.uid
            if arrivals.pop(uid, None) is not None:
                self._excl_valid = False
            was_busy = self._state is TX or bool(sensed)
            sensed.discard(uid)
            sync = self._sync
            if sync is not None and sync.scored:
                # Never synced to an energy-only frame, so the edge only
                # updates the in-progress reception (post-removal re-sum;
                # see bind_end_entry).
                suid = sync.transmission.uid
                total = 0.0
                for auid, mw in arrivals.items():
                    if auid != suid:
                        total += mw
                self._excl_uid = suid
                self._excl_total = total
                self._excl_valid = True
                sync.interference_changed(sim.now, total)
            if (
                was_busy
                and self.mac is not None
                and not (sensed or self._state is TX)
            ):
                self.mac.on_channel_idle()

        return on_interference_end

    def _finalize_reception(self) -> None:
        reception = self._sync
        self._sync = None
        if self._state is not RadioState.TX:
            self._state = RadioState.IDLE
        if not reception.scored:
            # Nothing reads the outcome, but the coin is still drawn so the
            # stream stays in step (determinism rule 3).
            self._coin(self._draw_arg)
            self.stats.delivered_unscored += 1
            return
        prob = reception.success_probability(
            self._config.error_model, self._noise_mw
        )
        ok = bool(self._coin(self._draw_arg) < prob)
        if ok:
            self.stats.delivered_ok += 1
        else:
            self.stats.delivered_corrupt += 1
        if self.mac is not None:
            self.mac.on_frame_received(reception.transmission.frame, ok, reception)
