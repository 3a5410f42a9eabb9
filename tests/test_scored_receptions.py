"""Skipping unread receptions is unobservable.

A radio scores a synced frame only if it is addressed to the node, is
broadcast, or is of a kind the MAC declares it reads when overheard
(``MacBase.READS_OVERHEARD``). Everything else is *unscored*: no
interference history, no ``success_probability``, no MAC callback — but the
delivery coin is still drawn. This file checks that the declarations are
complete, by search: every drawn trial runs once as shipped and once with
every radio scoring everything, and the two runs must agree on results,
MAC state and event count.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings

from repro.experiments.executor import run_trial
from repro.experiments.spec import MacSpec, TrialSpec
from repro.net.testbed import Testbed, TestbedConfig
from repro.net.topology import FloorPlan
from repro.network import Network
from repro.phy.radio import Radio
from strategies import trial_specs

#: Eight nodes on a small floor: strong, marginal and sub-sensitivity links.
TESTBED = Testbed(seed=1, config=TestbedConfig(num_nodes=8, floor=FloorPlan(60, 30)))

#: The radio counters between which unscoring moves completed receptions.
_DELIVERY = ("delivered_ok", "delivered_corrupt", "delivered_unscored")

#: A trial where overheard CMAP data frames matter (they carry the burst
#: end when ``replicate_ht_in_data`` is set): leaving DATA undeclared
#: changes its MAC state. Node 0 both sends and receives, so its ACKs also
#: land on its own burst launches.
_REPLICATED_HT = TrialSpec(
    trial_id="drawn",
    nodes=(0, 1, 2, 3),
    flows=((0, 1), (1, 0), (2, 0)),
    mac=MacSpec.of("cmap", nvpkt=4, replicate_ht_in_data=True),
    run_seed=0,
    duration=0.05,
    warmup=0.0,
    payload_bytes=200,
    churn=((0.001, "join", 0),),
)


def _run(spec, monkeypatch, score_everything: bool):
    """Run ``spec``; return the result, event count and every node added."""
    nodes = []
    networks = []
    add_node = Network.add_node

    def recording_add_node(net, node_id, factory):
        node = add_node(net, node_id, factory)
        nodes.append(node)
        if net not in networks:
            networks.append(net)
        return node

    with monkeypatch.context() as patch:
        patch.setattr(Network, "add_node", recording_add_node)
        if score_everything:
            # Every write is dropped and every read is None: each radio
            # scores each synced frame, whatever its MAC declared.
            patch.setattr(
                Radio, "reads_overheard", property(lambda r: None, lambda r, v: None)
            )
        result = run_trial(TESTBED, spec)
    (net,) = networks
    return result.to_json(), net.sim.events_processed, nodes


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=trial_specs(TESTBED.node_ids))
@example(spec=_REPLICATED_HT)
def test_unscored_receptions_are_unobservable(spec, monkeypatch):
    shipped, events, nodes = _run(spec, monkeypatch, score_everything=False)
    reference, ref_events, ref_nodes = _run(spec, monkeypatch, score_everything=True)
    assert shipped == reference
    assert events == ref_events
    assert [n.node_id for n in nodes] == [n.node_id for n in ref_nodes]
    for node, ref in zip(nodes, ref_nodes):
        assert node.mac.stats == ref.mac.stats
        assert getattr(node.mac, "cstats", None) == getattr(ref.mac, "cstats", None)
        got, want = vars(node.radio.stats), vars(ref.radio.stats)
        for key in want:
            if key not in _DELIVERY:
                assert got[key] == want[key], key
        # Unscoring only moves completed receptions out of ok/corrupt.
        assert sum(got[k] for k in _DELIVERY) == sum(want[k] for k in _DELIVERY)
        assert want["delivered_unscored"] == 0
        assert got["delivered_ok"] <= want["delivered_ok"]
        assert got["delivered_corrupt"] <= want["delivered_corrupt"]
