"""Deterministic node mobility for the time-varying world.

CMAP's central claim is that measurement-driven conflict maps *adapt* as the
channel changes (paper section 3.4); exercising that requires nodes that
actually move. This module provides RNG-stream-driven mobility models and a
:class:`MobilityController` that plays them as ordinary engine events, so a
mobile run is exactly as deterministic as a static one: every trajectory is
a pure function of (testbed seed, run seed, node id), independent of
execution backend.

Models are registered by name (like MAC builders) so experiment specs can
reference them as plain data and pickle through the process-pool executor:

* ``"static"`` -- no movement (the degenerate model; zero events).
* ``"random_waypoint"`` -- the classic office-floor walk: pick a uniform
  waypoint, walk to it at a (possibly random) pedestrian speed with position
  updates every ``step_interval`` seconds, pause, repeat.
* ``"region_hop"`` -- teleport between the section 5.6 floor regions every
  ``period`` seconds: coarse, cheap geometry changes that flip conflict
  relationships wholesale (the hardest case for map adaptation).

Determinism rules (see DESIGN.md "Dynamic world"):

1. every draw comes from the per-node stream ``rngs.stream("mobility", n)``;
2. the controller schedules nodes in sorted-id order at start;
3. a position update is one NORMAL-priority event calling
   ``Network.set_position`` -- it never touches another node's streams.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.net.topology import FloorPlan
from repro.phy.propagation import Position

if TYPE_CHECKING:  # pragma: no cover
    from repro.network import Network

#: One trajectory step: (seconds since the previous step, new position).
Step = Tuple[float, Position]


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    # lo + (hi - lo) * random() is what Generator.uniform computes
    # internally -- same stream, same bits (see DESIGN.md determinism rules).
    return float(lo + (hi - lo) * rng.random())


class MobilityModel:
    """Interface: stateless trajectory generator.

    ``leg(pos, rng)`` returns the next movement leg from ``pos`` as a tuple
    of :data:`Step`\\ s; an empty tuple means the node never moves again.
    Models keep no per-node state -- everything a leg needs is (current
    position, the node's RNG stream), which is what makes trajectories
    reproducible per node.
    """

    name = "abstract"

    def leg(self, pos: Position, rng: np.random.Generator) -> Tuple[Step, ...]:
        raise NotImplementedError


class StaticModel(MobilityModel):
    """No movement; attaching it is equivalent to attaching nothing."""

    name = "static"

    def leg(self, pos: Position, rng: np.random.Generator) -> Tuple[Step, ...]:
        return ()


class RandomWaypoint(MobilityModel):
    """Random-waypoint walk bounded by the office floor.

    Args:
        floor: the floor plan bounding the walk.
        speed_mps: walking speed; a scalar, or (lo, hi) drawn per leg.
        pause_s: dwell time at each waypoint; scalar or (lo, hi) per leg.
        step_interval: seconds between position updates while walking.
            Coarser steps mean fewer geometry invalidations (cheaper) but
            blockier trajectories; 0.25 s at 1 m/s moves 25 cm per update,
            far below the scale at which indoor links change character.
    """

    name = "random_waypoint"

    def __init__(
        self,
        floor: FloorPlan,
        speed_mps=1.0,
        pause_s=0.0,
        step_interval: float = 0.25,
    ):
        if step_interval <= 0:
            raise ValueError("step_interval must be positive")
        self.floor = floor
        self.speed_mps = speed_mps
        self.pause_s = pause_s
        self.step_interval = step_interval

    def _draw(self, knob, rng: np.random.Generator) -> float:
        if isinstance(knob, (tuple, list)):
            lo, hi = knob
            return _uniform(rng, lo, hi)
        return float(knob)

    def leg(self, pos: Position, rng: np.random.Generator) -> Tuple[Step, ...]:
        pause = self._draw(self.pause_s, rng)
        speed = self._draw(self.speed_mps, rng)
        target = Position(
            _uniform(rng, 0.0, self.floor.width_m),
            _uniform(rng, 0.0, self.floor.height_m),
        )
        if speed <= 0:
            return ()
        dist = math.hypot(target.x - pos.x, target.y - pos.y)
        steps: List[Step] = []
        if pause > 0:
            steps.append((pause, pos))
        travel = dist / speed
        n = max(1, int(math.ceil(travel / self.step_interval)))
        for i in range(1, n + 1):
            frac = i / n
            steps.append(
                (
                    travel / n,
                    Position(
                        pos.x + (target.x - pos.x) * frac,
                        pos.y + (target.y - pos.y) * frac,
                    ),
                )
            )
        return tuple(steps)


class RegionHop(MobilityModel):
    """Teleport to a uniform point in a uniformly chosen floor region.

    Models a client relocating between the section 5.6 regions (laptop user
    changing offices): one geometry event per ``period`` seconds, with the
    conflict map forced to re-learn wholesale after each hop.
    """

    name = "region_hop"

    def __init__(
        self,
        floor: FloorPlan,
        period: float = 2.0,
        columns: int = 3,
        rows: int = 2,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        self.floor = floor
        self.period = period
        self.regions = floor.regions(columns, rows)

    def leg(self, pos: Position, rng: np.random.Generator) -> Tuple[Step, ...]:
        region = self.regions[int(rng.integers(0, len(self.regions)))]
        target = Position(
            _uniform(rng, region.x_min, region.x_max),
            _uniform(rng, region.y_min, region.y_max),
        )
        return ((self.period, target),)


#: model name -> builder(floor, **params) -> MobilityModel. String keys keep
#: mobility specs picklable and CLI-addressable, like MAC_BUILDERS.
MOBILITY_MODELS: Dict[str, Callable[..., MobilityModel]] = {}


def register_mobility_model(name: str):
    """Decorator registering a ``builder(floor, **params) -> MobilityModel``."""

    def deco(builder: Callable[..., MobilityModel]) -> Callable[..., MobilityModel]:
        MOBILITY_MODELS[name] = builder
        return builder

    return deco


@register_mobility_model("static")
def build_static(floor: FloorPlan, **params) -> StaticModel:
    return StaticModel()


@register_mobility_model("random_waypoint")
def build_random_waypoint(floor: FloorPlan, **params) -> RandomWaypoint:
    return RandomWaypoint(floor, **params)


@register_mobility_model("region_hop")
def build_region_hop(floor: FloorPlan, **params) -> RegionHop:
    return RegionHop(floor, **params)


def build_mobility_model(
    name: str, floor: FloorPlan, params: Optional[dict] = None
) -> MobilityModel:
    """Resolve a registered model name + params into a model instance."""
    if name not in MOBILITY_MODELS:
        raise KeyError(
            f"unknown mobility model {name!r}; registered: "
            f"{sorted(MOBILITY_MODELS)}"
        )
    return MOBILITY_MODELS[name](floor, **(params or {}))


class MobilityController:
    """Plays mobility models as engine events against one network.

    Attach (node, model) pairs before :meth:`start`; the controller pulls
    each node's trajectory from ``network.rngs.stream("mobility", node_id)``
    and applies every step through ``network.set_position`` -- which
    upgrades the geometry to copy-on-write on first use, so a network whose
    controller has only static models stays on the single-build fast path.

    Mobility composes with churn: a walker that is currently out of the
    network (left, or not yet joined) keeps walking -- the device moves
    while disassociated -- so its geometry is already up to date when it
    (re)joins, and the trajectory consumes the same RNG draws whether or
    not churn is attached.
    """

    def __init__(self, network: "Network"):
        self.network = network
        self.sim = network.sim
        self._models: Dict[int, MobilityModel] = {}
        self._started = False
        #: Total position updates applied (tests, diagnostics).
        self.moves_applied = 0

    def attach(self, node_id: int, model: MobilityModel) -> None:
        if self._started:
            raise RuntimeError("attach mobility models before start()")
        if node_id not in self.network.testbed.positions:
            raise KeyError(f"node {node_id} not in testbed")
        self._models[node_id] = model

    def start(self) -> None:
        """Schedule each node's first leg (sorted ids: deterministic seqs)."""
        if self._started:
            return
        self._started = True
        for node_id in sorted(self._models):
            self._next_leg(node_id)

    # ------------------------------------------------------------------
    def _rng(self, node_id: int) -> np.random.Generator:
        return self.network.rngs.stream("mobility", node_id)

    def _position(self, node_id: int) -> Position:
        node = self.network.nodes.get(node_id)
        if node is not None:
            return node.position
        return self.network.position_of(node_id)

    def _next_leg(self, node_id: int) -> None:
        model = self._models[node_id]
        steps = model.leg(self._position(node_id), self._rng(node_id))
        if steps:
            self._schedule_step(node_id, steps, 0)

    def _schedule_step(self, node_id: int, steps: Tuple[Step, ...], idx: int) -> None:
        delay, pos = steps[idx]
        self.sim.schedule_call(delay, self._apply_step, (node_id, pos, steps, idx))

    def _apply_step(
        self, node_id: int, pos: Position, steps: Tuple[Step, ...], idx: int
    ) -> None:
        # Dwell steps (pause legs re-emit the current position) advance
        # time but move nothing: skip the set_position, which would pay an
        # O(N) RSS row recompute and stale every fan-out table containing
        # the node for a zero-distance "move".
        if pos != self._position(node_id):
            self.network.set_position(node_id, pos)
            self.moves_applied += 1
        nxt = idx + 1
        if nxt < len(steps):
            self._schedule_step(node_id, steps, nxt)
        else:
            self._next_leg(node_id)
