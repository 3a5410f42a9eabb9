"""Network assembly and run orchestration.

``Network`` wires a :class:`~repro.net.testbed.Testbed` (positions + channel)
to radios, MACs, traffic, and a shared delivery sink, then runs the event
engine for a fixed duration with a warmup period excluded from measurement —
mirroring the paper's method of measuring the last 60 s of each 100 s run
(§5.1).

Only the nodes an experiment names are instantiated: idle testbed nodes
neither transmit nor affect the channel, so leaving them out changes nothing
but saves event fan-out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import perf
from repro.core.cmap_mac import CmapMac
from repro.core.params import CmapParams, LatencyProfile
from repro.mac.autorate import ArfParams, arf_factory
from repro.mac.base import MacBase
from repro.mac.cs_tuning import CsTuningParams, cs_tuning_factory
from repro.mac.dcf import DcfMac, DcfParams
from repro.mac.ecsma import EcsmaParams, ecsma_factory
from repro.mac.iamac import IaMacParams, iamac_factory
from repro.mac.rtscts import RtsCtsParams, rtscts_factory
from repro.net.testbed import Testbed
from repro.node import Node
from repro.phy.medium import Medium
from repro.phy.modulation import RATES
from repro.phy.propagation import DynamicRssMatrix, Position
from repro.phy.radio import Radio, RadioConfig
from repro.sim.engine import Simulator
from repro.traffic.generators import SaturatedSource, SinkRegistry

MacFactory = Callable[[Simulator, int, Radio, np.random.Generator], MacBase]


def cmap_factory(params: Optional[CmapParams] = None) -> MacFactory:
    """A factory producing CMAP MACs with shared parameters."""

    def make(sim, node_id, radio, rng) -> CmapMac:
        return CmapMac(sim, node_id, radio, rng, params or CmapParams())

    return make


def dcf_factory(
    carrier_sense: bool = True,
    acks: bool = True,
    params: Optional[DcfParams] = None,
) -> MacFactory:
    """A factory producing 802.11 DCF MACs.

    ``carrier_sense``/``acks`` override the corresponding fields when no
    explicit ``params`` is given, matching the paper's three baselines.
    """

    def make(sim, node_id, radio, rng) -> DcfMac:
        p = params or DcfParams(carrier_sense=carrier_sense, acks=acks)
        return DcfMac(sim, node_id, radio, rng, p)

    return make


# ----------------------------------------------------------------------
# String-keyed MAC builder registry
# ----------------------------------------------------------------------
#: protocol name -> builder(**params) -> MacFactory. String keys keep trial
#: specs picklable (for process-pool executors) and CLI-addressable.
MAC_BUILDERS: Dict[str, Callable[..., MacFactory]] = {}


def register_mac_builder(name: str):
    """Decorator registering a ``builder(**params) -> MacFactory``."""

    def deco(builder: Callable[..., MacFactory]) -> Callable[..., MacFactory]:
        MAC_BUILDERS[name] = builder
        return builder

    return deco


def _convert_rates(params: dict) -> dict:
    """Allow rate knobs to be given as plain Mb/s ints (JSON-friendly)."""
    out = dict(params)
    for key in ("data_rate", "control_rate", "ack_rate"):
        if isinstance(out.get(key), int):
            out[key] = RATES[out[key]]
    return out


#: ``CmapParams.latency`` by its profile's name (JSON-friendly).
_LATENCY_PROFILES = {
    "paper_soft_mac": LatencyProfile.paper_soft_mac,
    "hardware": LatencyProfile.hardware,
}


@register_mac_builder("cmap")
def build_cmap_mac(**params) -> MacFactory:
    params = _convert_rates(params)
    latency = params.get("latency")
    if isinstance(latency, str):
        if latency not in _LATENCY_PROFILES:
            raise KeyError(
                f"unknown latency profile {latency!r}; pick from "
                f"{sorted(_LATENCY_PROFILES)}"
            )
        params["latency"] = _LATENCY_PROFILES[latency]()
    return cmap_factory(CmapParams(**params))


@register_mac_builder("dcf")
def build_dcf_mac(**params) -> MacFactory:
    return dcf_factory(params=DcfParams(**_convert_rates(params)))


@register_mac_builder("rtscts")
def build_rtscts_mac(**params) -> MacFactory:
    return rtscts_factory(RtsCtsParams(**_convert_rates(params)))


@register_mac_builder("ecsma")
def build_ecsma_mac(**params) -> MacFactory:
    return ecsma_factory(EcsmaParams(**_convert_rates(params)))


@register_mac_builder("iamac")
def build_iamac_mac(**params) -> MacFactory:
    return iamac_factory(IaMacParams(**_convert_rates(params)))


@register_mac_builder("autorate")
def build_autorate_mac(**params) -> MacFactory:
    return arf_factory(ArfParams(**_convert_rates(params)))


@register_mac_builder("cs_tuning")
def build_cs_tuning_mac(**params) -> MacFactory:
    return cs_tuning_factory(CsTuningParams(**_convert_rates(params)))


def build_mac_factory(protocol: str, params: Optional[dict] = None) -> MacFactory:
    """Resolve a registered protocol name + params into a MacFactory."""
    if protocol not in MAC_BUILDERS:
        raise KeyError(
            f"unknown MAC protocol {protocol!r}; registered: "
            f"{sorted(MAC_BUILDERS)}"
        )
    return MAC_BUILDERS[protocol](**(params or {}))


@dataclass
class RunResult:
    """Everything an experiment needs from one finished run."""

    sink: SinkRegistry
    measured_duration: float
    nodes: Dict[int, Node]
    medium: Medium
    warmup: float
    duration: float

    # ------------------------------------------------------------------
    def flow_mbps(self, src: int, dst: int) -> float:
        return self.sink.throughput_bps(src, dst, self.measured_duration) / 1e6

    def aggregate_mbps(self) -> float:
        return self.sink.aggregate_throughput_bps(self.measured_duration) / 1e6

    def concurrency_fraction(self, senders: Sequence[int]) -> float:
        """Fraction of measured time when ≥ 2 of ``senders`` were on the air.

        Needs the medium's tx log (``Network(track_tx=True)``).
        """
        log = self.medium.tx_log
        if log is None:
            raise RuntimeError("run without track_tx=True has no tx log")
        window_start, window_end = self.warmup, self.duration
        events: List[Tuple[float, int]] = []
        sender_set = set(senders)
        for node, start, end in log:
            if node not in sender_set:
                continue
            s = max(start, window_start)
            e = min(end, window_end)
            if s < e:
                events.append((s, +1))
                events.append((e, -1))
        if not events:
            return 0.0
        events.sort()
        overlap = 0.0
        active = 0
        last_t = window_start
        for t, delta in events:
            if active >= 2:
                overlap += t - last_t
            active += delta
            last_t = t
        span = window_end - window_start
        return overlap / span if span > 0 else 0.0

    def airtime_fraction(self, sender: int) -> float:
        """Fraction of the measured window ``sender`` spent transmitting."""
        log = self.medium.tx_log
        if log is None:
            raise RuntimeError("run without track_tx=True has no tx log")
        busy = 0.0
        for node, start, end in log:
            if node != sender:
                continue
            s = max(start, self.warmup)
            e = min(end, self.duration)
            busy += max(0.0, e - s)
        span = self.duration - self.warmup
        return busy / span if span > 0 else 0.0


class Network:
    """One simulation run being assembled."""

    def __init__(
        self,
        testbed: Testbed,
        run_seed: int = 0,
        radio_config: Optional[RadioConfig] = None,
        track_tx: bool = False,
        tracer=None,
        delivery_floor_dbm: Optional[float] = None,
        interference_floor_dbm: Optional[float] = None,
    ):
        self.testbed = testbed
        self.sim = Simulator()
        self.rngs = testbed.rngs.fork("run", run_seed)
        self.medium = Medium(
            self.sim,
            testbed.rss,
            delivery_floor_dbm=delivery_floor_dbm,
            interference_floor_dbm=interference_floor_dbm,
        )
        if track_tx:
            self.medium.tx_log = []
        self.tracer = tracer
        self.sink = SinkRegistry()
        self.nodes: Dict[int, Node] = {}
        #: Nodes remove_node took out (churn), kept for close().
        self._departed: List[Node] = []
        #: True while run() is executing; nodes added then start immediately.
        self._running = False
        self._radio_config = radio_config or RadioConfig(
            tx_power_dbm=testbed.config.tx_power_dbm,
            noise_dbm=testbed.config.noise_dbm,
            fading=testbed.fading,
            error_model=testbed.error_model,
        )

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, mac_factory: MacFactory) -> Node:
        """Instantiate radio + MAC for one testbed node.

        Legal mid-run (churn): a node added while the simulation is running
        starts immediately and hears every frame transmitted from then on.
        A node that previously left may rejoin; it gets fresh radio/MAC
        state but continues its per-node RNG streams, so churn patterns are
        reproducible run to run.
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already added")
        if node_id not in self.testbed.positions:
            raise KeyError(f"node {node_id} not in testbed")
        radio = Radio(
            self.sim,
            node_id,
            self._radio_config,
            self.rngs.stream("radio", node_id),
        )
        self.medium.attach(radio)
        mac = mac_factory(
            self.sim, node_id, radio, self.rngs.stream("mac", node_id)
        )
        mac.attach_sink(self.sink.sink_for(node_id))
        if self.tracer is not None:
            mac.tracer = self.tracer
        node = Node(node_id, self.position_of(node_id), radio, mac)
        self.nodes[node_id] = node
        if self._running:
            node.start()
        return node

    def remove_node(self, node_id: int) -> Node:
        """Take a node out of the network (churn): stop its MAC, detach its
        radio. Frames it already has in flight complete; sink statistics for
        traffic it delivered are retained. Returns the removed node."""
        if node_id not in self.nodes:
            raise KeyError(f"node {node_id} not in network")
        node = self.nodes.pop(node_id)
        node.mac.stop()
        self.medium.detach(node.radio)
        self._departed.append(node)
        return node

    # ------------------------------------------------------------------
    # Geometry (dynamic world)
    # ------------------------------------------------------------------
    def _ensure_dynamic_geometry(self) -> DynamicRssMatrix:
        """Upgrade the medium's RSS source to a mutable copy (first move).

        The testbed's matrix is shared across trials (and, under the pool
        backend, shipped to workers once), so it is never mutated; the
        upgrade recomputes the same model at the same positions, which is
        value-identical, and static runs that never move a node keep using
        the shared matrix untouched.
        """
        rss = self.medium.rss
        if isinstance(rss, DynamicRssMatrix):
            return rss
        dyn = DynamicRssMatrix(
            self.testbed.propagation,
            self.testbed.positions,
            self.testbed.rss.tx_power_dbm,
        )
        self.medium.rss = dyn
        return dyn

    def set_position(self, node_id: int, position: Position) -> int:
        """Move a node (instantiated or not); returns its position epoch.

        Copy-on-write: the first move swaps in a
        :class:`~repro.phy.propagation.DynamicRssMatrix`; the medium then
        selectively invalidates per-transmitter fan-out tables.
        """
        self._ensure_dynamic_geometry()
        epoch = self.medium.set_position(node_id, position)
        node = self.nodes.get(node_id)
        if node is not None:
            node.position = position
        return epoch

    def position_of(self, node_id: int) -> Position:
        """Current position: the dynamic geometry's if one exists."""
        rss = self.medium.rss
        if isinstance(rss, DynamicRssMatrix):
            return rss.position(node_id)
        return self.testbed.positions[node_id]

    def add_saturated_flow(self, src: int, dst: int, payload_bytes: int = 1400) -> None:
        """Give ``src`` an always-full queue of packets for ``dst``."""
        source = SaturatedSource(dst, payload_bytes)
        mac = self.nodes[src].mac
        mac.attach_source(source)
        self.nodes[src].source = source
        if self._running:
            mac.on_queue_refill()  # a churn-joined sender must wake itself

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: float, warmup: float = 0.0) -> RunResult:
        """Run for ``duration`` simulated seconds; measure after ``warmup``."""
        if warmup >= duration:
            raise ValueError("warmup must be shorter than the run")
        self.sink.measure_from = warmup
        self.sink.measure_until = duration
        self._running = True
        for node in list(self.nodes.values()):
            node.start()
        recorder = perf.active_recorder()
        try:
            if recorder is None:
                self.sim.run(until=duration)
            else:
                events_before = self.sim.events_processed
                t0 = time.perf_counter()
                self.sim.run(until=duration)
                recorder.add(
                    self.sim.events_processed - events_before,
                    time.perf_counter() - t0,
                )
        finally:
            self._running = False
        return RunResult(
            sink=self.sink,
            measured_duration=duration - warmup,
            nodes=self.nodes,
            medium=self.medium,
            warmup=warmup,
            duration=duration,
        )

    def close(self) -> None:
        """Free this run's world by refcounting, not the cyclic GC.

        Radios, MACs, their bound callbacks and timers, the fan-out
        closures and the engine's heap point at one another, so a finished
        run is a web of reference cycles. ``close`` cuts them: every MAC —
        including those of nodes that left mid-run — detaches from its
        radio and drops its timers and callbacks, the medium drops its
        radios, tables and in-flight frames, and the engine cancels what
        pends and drops its heap. The heap also held the churn and
        mobility steps, so the mobility controller goes with it; the sink
        holds no cycle. Read every result first: the network cannot run
        again. :func:`repro.experiments.executor.run_trial` calls it after
        its metrics, and when the trial raises.
        """
        for node in (*self.nodes.values(), *self._departed):
            node.mac.close()
        self.medium.close()
        self.sim.close()
