"""A finished trial frees its world by refcounting (``Network.close``).

Radios, MACs, their bound callbacks and timers, the medium's fan-out
closures and the engine heap point at one another. ``run_trial`` closes
its network after the metrics, and when the trial raises, so with the
cyclic GC switched off nothing of the trial's world may outlive the call.
"""

import gc

import pytest

from repro.errors import TrialHungError
from repro.experiments.executor import run_trial
from repro.experiments.spec import MacSpec, MobilitySpec, TrialSpec
from repro.mac.base import MacBase
from repro.net.testbed import Testbed
from repro.network import MAC_BUILDERS, Network
from repro.phy.medium import Medium
from repro.phy.radio import Radio
from repro.sim.engine import Simulator, TimerHandle

WORLD = (Radio, MacBase, Medium, Simulator, TimerHandle)


@pytest.fixture(scope="module")
def testbed():
    return Testbed(seed=1)


@pytest.fixture(scope="module")
def pair(testbed):
    """A sender, its receiver, and a third node near both."""
    links = testbed.links
    s, r = next(
        (a, b)
        for a in testbed.node_ids
        for b in testbed.node_ids
        if a != b and links.potential_tx_link(a, b)
    )
    third = next(n for n in testbed.node_ids if n not in (s, r))
    return s, r, third


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _live():
    counts = dict.fromkeys((cls.__name__ for cls in WORLD), 0)
    for obj in gc.get_objects():
        for cls in WORLD:
            if isinstance(obj, cls):
                counts[cls.__name__] += 1
    return counts


def _spec(pair, mac, **kw):
    s, r, third = pair
    kw.setdefault("duration", 0.3)
    return TrialSpec(
        trial_id=f"teardown/{mac}",
        nodes=(s, r, third),
        flows=((s, r), (third, r)),
        mac=MacSpec.of(mac),
        run_seed=3,
        warmup=0.0,
        **kw,
    )


@pytest.mark.parametrize("mac", sorted(MAC_BUILDERS))
def test_static_trial_leaves_nothing(testbed, pair, no_cyclic_gc, mac):
    before = _live()
    run_trial(testbed, _spec(pair, mac))
    assert _live() == before


@pytest.mark.parametrize("mac", ["dcf", "cmap"])
def test_mobile_trial_with_a_rejoin_leaves_nothing(
    testbed, pair, no_cyclic_gc, mac
):
    s = pair[0]
    spec = _spec(
        pair,
        mac,
        duration=0.5,
        mobility=MobilitySpec.of(
            "random_waypoint", nodes=(s,), speed_mps=2.0, step_interval=0.05
        ),
        churn=((0.1, "join", s), (0.2, "leave", s), (0.3, "join", s)),
    )
    before = _live()
    run_trial(testbed, spec)
    assert _live() == before


def test_hung_trial_leaves_nothing(testbed, pair, no_cyclic_gc):
    before = _live()
    raised = False
    try:
        run_trial(testbed, _spec(pair, "cmap"), timeout_s=0.0)
    except TrialHungError:
        raised = True
    assert raised
    assert _live() == before


def test_close_cancels_what_pends_and_empties_the_medium(testbed, pair):
    """Direct ``Network`` users opt in; a closed network holds no radios,
    no tables and no pending events, and its MACs hold no timers."""
    s, r, _ = pair
    net = Network(testbed, run_seed=0)
    for node in (s, r):
        net.add_node(node, MacSpec.of("dcf").build())
    net.add_saturated_flow(s, r)
    net.run(duration=0.2)
    handles = list(net.nodes[s].mac.timers._timers.values())
    assert net.sim.pending_count() > 0
    net.close()
    assert net.sim.pending_count() == 0 and net.sim.peek_time() is None
    assert not any(h.pending for h in handles)
    assert net.medium.attached_ids() == [] and net.medium.fanout_census() == {}
    for node in net.nodes.values():
        assert node.radio.mac is None and node.mac.timers is None
