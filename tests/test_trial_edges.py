"""Differential determinism: one drawn trial, one result on every edge.

Every spec :func:`strategies.trial_specs` draws runs three ways — as drawn,
after a ``to_wire`` → JSON → ``from_wire`` round trip (the path a sweep
takes through the service), and built inside ``reference_kernels()`` (per-
draw RNG, region-free chunk kernels) — and all three must produce the same
``TrialResult.to_json()`` and the same event count. The round trip must
also restore an equal spec with an identical fingerprint.

One known violation is pinned as an expected failure below: a node that
leaves and rejoins breaks the reference edge (see :data:`REJOIN`).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.experiments.executor import run_trial
from repro.experiments.spec import MacSpec, TrialSpec
from repro.kernels.backend import reference_kernels
from repro.net.testbed import Testbed, TestbedConfig
from repro.net.topology import FloorPlan
from repro.network import Network
from strategies import trial_specs

#: Eight nodes on a small floor: strong, marginal and sub-sensitivity links.
CONFIG = TestbedConfig(num_nodes=8, floor=FloorPlan(60, 30))
TESTBED = Testbed(seed=1, config=CONFIG)
#: The reference edge gets its own testbed: chunk kernels are cached on the
#: testbed's error model, so a shared one would hand the reference's
#: region-free kernels to the kernelised runs.
REFERENCE_TESTBED = Testbed(seed=1, config=CONFIG)

#: The shrunk counterexample the search found. A CMAP sender leaves and
#: rejoins; the new MAC wraps the node's generator in a fresh block buffer,
#: so it resumes past the draws the old buffer fetched and never handed
#: out, while the scalar reference resumes at the next draw.
REJOIN = TrialSpec(
    trial_id="drawn",
    nodes=(0, 1, 2),
    flows=((0, 1),),
    mac=MacSpec.of("cmap"),
    run_seed=0,
    duration=0.05,
    warmup=0.0,
    payload_bytes=200,
    churn=((0.001, "join", 0), (0.002, "leave", 0), (0.003, "join", 0)),
)


def _rejoins(spec) -> bool:
    """Whether the churning node joins after having been in the network."""
    return any(op == "join" for _, op, _ in sorted(spec.churn)[1:])


def _run(testbed, spec, monkeypatch):
    """Run ``spec``; return its result as canonical JSON and its event count."""
    networks = []
    init = Network.__init__

    def recording_init(net, *args, **kwargs):
        init(net, *args, **kwargs)
        networks.append(net)

    with monkeypatch.context() as patch:
        patch.setattr(Network, "__init__", recording_init)
        result = run_trial(testbed, spec)
    (net,) = networks
    return json.dumps(result.to_json(), sort_keys=True), net.sim.events_processed


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=trial_specs(TESTBED.node_ids))
def test_every_edge_gives_one_result(spec, monkeypatch):
    drawn = _run(TESTBED, spec, monkeypatch)

    wired = TrialSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
    assert wired == spec
    assert wired.fingerprint() == spec.fingerprint()
    assert _run(TESTBED, wired, monkeypatch) == drawn

    if not _rejoins(spec):  # the known violation: test_rejoin_reference_edge
        with reference_kernels():
            assert _run(REFERENCE_TESTBED, spec, monkeypatch) == drawn


@pytest.mark.xfail(
    strict=True, reason="a rejoining node's fresh buffer skips prefetched draws"
)
def test_rejoin_reference_edge(monkeypatch):
    drawn = _run(TESTBED, REJOIN, monkeypatch)
    with reference_kernels():
        assert _run(REFERENCE_TESTBED, REJOIN, monkeypatch) == drawn
