"""Shared hypothesis strategies for contract tests.

:func:`trial_specs` draws small, valid trial specs over a testbed's node
ids: any registered MAC, optional mobility, churn and culling floors.
Tests that check an equivalence (two code paths, one result) run each drawn
spec down both paths and compare.
"""

from __future__ import annotations

from typing import Sequence

from hypothesis import strategies as st

from repro.experiments.spec import MacSpec, MobilitySpec, TrialSpec
from repro.network import MAC_BUILDERS

#: Per-protocol constructor params worth varying (every other field keeps
#: its default). Values are wire scalars, so every spec round-trips.
_MAC_PARAMS = {
    "cmap": {
        "replicate_ht_in_data": st.booleans(),
        "piggyback_ilist": st.booleans(),
        "two_hop_ilist": st.booleans(),
        "nvpkt": st.sampled_from([4, 8, 32]),
        "latency": st.sampled_from(["paper_soft_mac", "hardware"]),
    },
    "dcf": {"carrier_sense": st.booleans(), "acks": st.booleans()},
    "rtscts": {"carrier_sense": st.booleans()},
    "ecsma": {"success_threshold": st.sampled_from([0.3, 0.5, 0.8])},
    "iamac": {"required_sinr_db": st.sampled_from([6.0, 8.0, 12.0])},
    "autorate": {"up_threshold": st.sampled_from([3, 10])},
    "cs_tuning": {
        "epoch": st.sampled_from([0.01, 0.05, 0.3]),
        "step_db": st.sampled_from([1.0, 3.0]),
    },
}


@st.composite
def mac_specs(draw) -> MacSpec:
    """Any registered MAC, with a random subset of its knobs above set."""
    protocol = draw(st.sampled_from(sorted(MAC_BUILDERS)))
    knobs = _MAC_PARAMS.get(protocol, {})
    chosen = [k for k in sorted(knobs) if draw(st.booleans())]
    return MacSpec.of(protocol, **{k: draw(knobs[k]) for k in chosen})


@st.composite
def trial_specs(draw, node_ids: Sequence[int]) -> TrialSpec:
    """A 2–8 node trial of 0.05–0.2 s over ``node_ids``."""
    nodes = draw(
        st.lists(
            st.sampled_from(list(node_ids)),
            min_size=2,
            max_size=min(8, len(node_ids)),
            unique=True,
        )
    )
    # One saturated flow per sender (a second source would replace the first).
    senders = draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=len(nodes), unique=True)
    )
    flows = tuple(
        (s, draw(st.sampled_from([n for n in nodes if n != s]))) for s in senders
    )
    duration = draw(st.integers(50, 200)) / 1000.0
    warmup = duration * draw(st.sampled_from([0.0, 0.25, 0.5]))

    mobility = None
    if draw(st.booleans()):
        walkers = draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True)
        )
        if draw(st.booleans()):
            mobility = MobilitySpec.of(
                "random_waypoint",
                walkers,
                speed_mps=draw(st.sampled_from([1.0, 5.0, 20.0])),
                step_interval=draw(st.sampled_from([0.01, 0.05])),
            )
        else:
            mobility = MobilitySpec.of(
                "region_hop", walkers, period=draw(st.sampled_from([0.02, 0.07]))
            )

    churn = ()
    if draw(st.booleans()):
        node = draw(st.sampled_from(nodes))
        times = sorted(
            draw(
                st.lists(
                    st.integers(1, int(duration * 1000) - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
        first = draw(st.sampled_from(["join", "leave"]))
        other = "leave" if first == "join" else "join"
        churn = tuple(
            (ms / 1000.0, first if i % 2 == 0 else other, node)
            for i, ms in enumerate(times)
        )

    delivery = interference = None
    if draw(st.booleans()):
        delivery = float(draw(st.integers(-95, -70)))
        interference = delivery - draw(st.integers(0, 15))

    track_tx = draw(st.booleans())
    return TrialSpec(
        trial_id="drawn",
        nodes=tuple(nodes),
        flows=flows,
        mac=draw(mac_specs()),
        run_seed=draw(st.integers(0, 2**16)),
        duration=duration,
        warmup=warmup,
        track_tx=track_tx,
        metrics=("concurrency",) if track_tx else (),
        payload_bytes=draw(st.sampled_from([200, 1400])),
        mobility=mobility,
        churn=churn,
        delivery_floor_dbm=delivery,
        interference_floor_dbm=interference,
    )
