"""Declarative experiment specifications.

The experiment layer is split into three pieces:

* **what to run** — :class:`TrialSpec`: one simulation run described by plain
  data (nodes, flows, a registry-keyed MAC, seed, duration, metrics). Every
  spec is picklable and survives the JSON wire format, so any backend can
  run it: in-process, a process pool, or the sweep service's workers.
* **what it produced** — :class:`TrialResult`: per-flow throughputs plus any
  declared metric values, all JSON-serializable so results can be persisted
  and resumed.
* **what it means** — :class:`ExperimentSpec`: a named list of trials plus a
  pure ``reduce`` step that folds ordered trial results into the figure
  dataclass the paper's tables are rendered from.

``repro.experiments.executor`` consumes these; ``repro.experiments.runners``
builds one :class:`ExperimentSpec` per paper figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network import MAC_BUILDERS, MacFactory, build_mac_factory
from repro.util.rng import stable_hash

Flow = Tuple[int, int]

#: Types a wire-format param value may take. JSON round-trips these exactly
#: (ints stay ints, floats stay floats), which is what keeps a deserialized
#: spec fingerprint-identical to the original — the contract the service's
#: HTTP submit path depends on.
_WIRE_SCALARS = (str, int, float, bool, type(None))


def _params_to_wire(params: Tuple[Tuple[str, Any], ...], what: str) -> list:
    out = []
    for key, value in params:
        if not isinstance(value, _WIRE_SCALARS):
            raise ValueError(
                f"{what} param {key!r}={value!r} is not JSON-scalar; the "
                f"wire format carries str/int/float/bool/None values only"
            )
        out.append([key, value])
    return out


def _params_from_wire(obj) -> Tuple[Tuple[str, Any], ...]:
    return tuple((str(k), v) for k, v in obj)


@dataclass(frozen=True)
class MacSpec:
    """A MAC protocol referenced by registry name + constructor params.

    ``params`` values are passed to the registered builder
    (:data:`repro.network.MAC_BUILDERS`); rate knobs (``data_rate``/
    ``control_rate``/``ack_rate``) may be plain Mb/s ints and CMAP's
    ``latency`` a profile name. A spec is plain data: it pickles, crosses
    the wire and fingerprints by value, so it runs on every backend.
    """

    protocol: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, protocol: str, **params) -> "MacSpec":
        return cls(protocol, tuple(sorted(params.items())))

    def build(self) -> MacFactory:
        return build_mac_factory(self.protocol, dict(self.params))

    def to_wire(self) -> dict:
        return {
            "protocol": self.protocol,
            "params": _params_to_wire(self.params, f"MAC {self.protocol!r}"),
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "MacSpec":
        return cls(str(obj["protocol"]), _params_from_wire(obj.get("params", ())))


@dataclass(frozen=True)
class MobilitySpec:
    """A mobility model referenced by registry name + params, as plain data.

    ``nodes`` are the walkers; every other node stays put. ``params`` go to
    the registered builder (see :data:`repro.net.mobility.MOBILITY_MODELS`),
    which also receives the testbed's floor plan. Registry keys keep trial
    specs picklable, exactly like :class:`MacSpec`.
    """

    model: str
    nodes: Tuple[int, ...]
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, model: str, nodes, **params) -> "MobilitySpec":
        return cls(model, tuple(nodes), tuple(sorted(params.items())))

    def build(self, floor):
        from repro.net.mobility import build_mobility_model

        return build_mobility_model(self.model, floor, dict(self.params))

    def to_wire(self) -> dict:
        return {
            "model": self.model,
            "nodes": list(self.nodes),
            "params": _params_to_wire(self.params, f"mobility {self.model!r}"),
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "MobilitySpec":
        return cls(
            str(obj["model"]),
            tuple(int(n) for n in obj["nodes"]),
            _params_from_wire(obj.get("params", ())),
        )


#: One churn event: (sim time, "join" | "leave", node id). A node whose
#: *first* event is "join" is left out of the initial network and enters at
#: that time (with its flows); "leave" stops and detaches it. Events are
#: plain data so specs pickle and fingerprint.
ChurnEvent = Tuple[float, str, int]


def coerce_mac(mac) -> MacSpec:
    """Accept a MacSpec or a registered protocol name."""
    if isinstance(mac, MacSpec):
        return mac
    if isinstance(mac, str):
        if mac not in MAC_BUILDERS:
            raise KeyError(f"unknown MAC protocol {mac!r}")
        return MacSpec.of(mac)
    raise TypeError(
        f"cannot interpret {mac!r} as a MAC spec; give a MacSpec or one of "
        f"{sorted(MAC_BUILDERS)}"
    )


@dataclass(frozen=True)
class TrialSpec:
    """One independent simulation run, described declaratively.

    Fields mirror what the hand-rolled runners used to assemble imperatively:
    which testbed nodes to instantiate (in order), which saturated flows to
    attach, which MAC to build, the run seed, and the run length. ``measure``
    lists the (src, dst) pairs whose throughput the reducer needs when they
    differ from ``flows`` (e.g. broadcast fan-out measured per receiver).
    ``metrics`` names extra per-trial measurements from the executor's
    metric registry; they are computed inside the worker so results stay
    plain data.
    """

    trial_id: str
    nodes: Tuple[int, ...]
    flows: Tuple[Flow, ...]
    mac: MacSpec
    run_seed: int
    duration: float
    warmup: float
    measure: Optional[Tuple[Flow, ...]] = None
    track_tx: bool = False
    metrics: Tuple[str, ...] = ()
    payload_bytes: int = 1400
    #: Optional time-varying world: walkers + their model (None = static).
    mobility: Optional[MobilitySpec] = None
    #: Scheduled join/leave events (empty = fixed membership).
    churn: Tuple[ChurnEvent, ...] = ()
    #: Neighborhood culling floors (see :class:`repro.phy.medium.Medium`):
    #: receivers below the delivery floor get interference-only fan-out
    #: entries; below the interference floor they are culled entirely.
    #: None (default) keeps the exhaustive fan-out -- bit-identical to
    #: every pre-culling trial.
    delivery_floor_dbm: Optional[float] = None
    interference_floor_dbm: Optional[float] = None
    #: Conflict knowledge installed before the flows start (§6): None
    #: learns online; ``"offline"`` preloads the idealised offline map
    #: into every CMAP node's defer table and freezes it; ``"warm_start"``
    #: preloads it and lets the entries age out as online learning takes
    #: over (:func:`repro.core.offline_map.preload_offline_map`).
    preload: Optional[str] = None

    @property
    def measured_flows(self) -> Tuple[Flow, ...]:
        return self.flows if self.measure is None else self.measure

    @property
    def senders(self) -> Tuple[int, ...]:
        return tuple(s for s, _ in self.flows)

    def fingerprint(self) -> str:
        """A process-stable digest of everything that shapes the result.

        Persistence keys cached trial results by (trial_id, fingerprint) so a
        resumed run never reuses a result produced under different settings.
        """
        parts = [
            self.nodes,
            self.flows,
            self.measured_flows,
            self.mac.protocol,
            self.mac.params,
            self.run_seed,
            self.duration,
            self.warmup,
            self.track_tx,
            self.metrics,
            self.payload_bytes,
            repr(self.mobility),
            self.churn,
        ]
        # Appended only when set, so every spec without them keeps the
        # fingerprint it had before these fields existed (stores written by
        # earlier versions stay resumable).
        if self.delivery_floor_dbm is not None or self.interference_floor_dbm is not None:
            parts.append(("floors", self.delivery_floor_dbm, self.interference_floor_dbm))
        if self.preload is not None:
            parts.append(("preload", self.preload))
        return format(stable_hash(*parts), "016x")

    # ------------------------------------------------------------------
    # Wire format (JSON over HTTP)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """A JSON-ready dict that :meth:`from_wire` restores exactly.

        The round trip is lossless by contract: the restored spec compares
        equal to the original and produces the same :meth:`fingerprint`, so
        a sweep submitted over the wire hits the same ResultStore cache
        entries as one built in-process. Optional fields are omitted at
        their defaults, which keeps old payloads parseable as fields grow.
        """
        wire = {
            "trial_id": self.trial_id,
            "nodes": list(self.nodes),
            "flows": [list(f) for f in self.flows],
            "mac": self.mac.to_wire(),
            "run_seed": self.run_seed,
            "duration": self.duration,
            "warmup": self.warmup,
        }
        if self.measure is not None:
            wire["measure"] = [list(f) for f in self.measure]
        if self.track_tx:
            wire["track_tx"] = True
        if self.metrics:
            wire["metrics"] = list(self.metrics)
        if self.payload_bytes != 1400:
            wire["payload_bytes"] = self.payload_bytes
        if self.mobility is not None:
            wire["mobility"] = self.mobility.to_wire()
        if self.churn:
            wire["churn"] = [[t, op, node] for t, op, node in self.churn]
        if self.delivery_floor_dbm is not None:
            wire["delivery_floor_dbm"] = self.delivery_floor_dbm
        if self.interference_floor_dbm is not None:
            wire["interference_floor_dbm"] = self.interference_floor_dbm
        if self.preload is not None:
            wire["preload"] = self.preload
        return wire

    @classmethod
    def from_wire(cls, obj: dict) -> "TrialSpec":
        measure = obj.get("measure")
        mobility = obj.get("mobility")
        return cls(
            trial_id=str(obj["trial_id"]),
            nodes=tuple(int(n) for n in obj["nodes"]),
            flows=tuple((int(s), int(d)) for s, d in obj["flows"]),
            mac=MacSpec.from_wire(obj["mac"]),
            run_seed=obj["run_seed"],
            duration=obj["duration"],
            warmup=obj["warmup"],
            measure=(tuple((int(s), int(d)) for s, d in measure)
                     if measure is not None else None),
            track_tx=bool(obj.get("track_tx", False)),
            metrics=tuple(str(m) for m in obj.get("metrics", ())),
            payload_bytes=obj.get("payload_bytes", 1400),
            mobility=(MobilitySpec.from_wire(mobility)
                      if mobility is not None else None),
            churn=tuple((t, str(op), int(node))
                        for t, op, node in obj.get("churn", ())),
            delivery_floor_dbm=obj.get("delivery_floor_dbm"),
            interference_floor_dbm=obj.get("interference_floor_dbm"),
            preload=obj.get("preload"),
        )


@dataclass
class TrialResult:
    """Plain-data outcome of one trial: flow throughputs + metric values."""

    trial_id: str
    flow_mbps: Dict[Flow, float]
    metrics: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""

    def mbps(self, src: int, dst: int) -> float:
        return self.flow_mbps[(src, dst)]

    # ------------------------------------------------------------------
    # JSON round-trip (for ResultStore persistence)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "fingerprint": self.fingerprint,
            "flow_mbps": [[s, d, v] for (s, d), v in self.flow_mbps.items()],
            "metrics": self.metrics,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrialResult":
        return cls(
            trial_id=obj["trial_id"],
            flow_mbps={(s, d): v for s, d, v in obj["flow_mbps"]},
            metrics=obj.get("metrics", {}),
            fingerprint=obj.get("fingerprint", ""),
        )


@dataclass
class ExperimentSpec:
    """A named set of trials plus the pure reduction to a figure result.

    ``reduce`` receives the :class:`TrialResult` list in ``trials`` order —
    executor backends may run trials in any order or skip cached ones, but
    the reduction always sees them positionally aligned with the spec.
    """

    name: str
    trials: List[TrialSpec]
    reduce: Callable[[List[TrialResult]], Any]

    def __post_init__(self):
        seen: set = set()
        for t in self.trials:
            if t.trial_id in seen:
                raise ValueError(f"duplicate trial id {t.trial_id!r}")
            seen.add(t.trial_id)


def experiment_to_wire(spec: ExperimentSpec) -> dict:
    """Serialize an experiment's name + trials for the HTTP submit path.

    The ``reduce`` callable does not cross the wire — the service works at
    trial granularity (every TrialResult lands in the run-table as it
    completes) and figure-level reductions stay a client-side concern.
    """
    return {"name": spec.name, "trials": [t.to_wire() for t in spec.trials]}


def experiment_from_wire(obj: dict) -> ExperimentSpec:
    """Restore a wire experiment; its reduction is the identity (the raw
    ordered :class:`TrialResult` list)."""
    trials = [TrialSpec.from_wire(t) for t in obj["trials"]]
    return ExperimentSpec(str(obj["name"]), trials, lambda results: results)
