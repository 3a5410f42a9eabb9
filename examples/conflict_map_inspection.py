#!/usr/bin/env python
"""Watch the conflict map converge (paper §3.1).

Sets up a *conflicting* pair — two senders in range whose transmissions
really do collide at the receivers — and inspects the CMAP data structures
as the run progresses: the receivers' interferer lists fill first, then the
broadcast updates populate the senders' defer tables, and concurrency drops
as the senders start deferring to each other.

Run:
    python examples/conflict_map_inspection.py
"""

import itertools

from repro import Testbed, Network, cmap_factory


def find_symmetric_conflict(testbed):
    """Two potential-tx pairs with mutual, comparable cross-interference."""
    links = testbed.links
    for s1, r1 in itertools.permutations(testbed.node_ids, 2):
        if not links.potential_tx_link(s1, r1):
            continue
        for s2, r2 in itertools.permutations(testbed.node_ids, 2):
            if len({s1, r1, s2, r2}) != 4:
                continue
            if not links.potential_tx_link(s2, r2):
                continue
            if not links.in_range(s1, s2):
                continue
            d1 = links.rss(s1, r1) - links.rss(s2, r1)
            d2 = links.rss(s2, r2) - links.rss(s1, r2)
            if -4 < d1 < 4 and -4 < d2 < 4:
                return s1, r1, s2, r2
    raise SystemExit("no symmetric conflicting pair in this testbed seed")


def main():
    testbed = Testbed(seed=1)
    s1, r1, s2, r2 = find_symmetric_conflict(testbed)
    print(f"conflicting flows: {s1}->{r1} and {s2}->{r2}")
    print(
        f"  cross RSS at {r1}: own {testbed.links.rss(s1, r1):.0f} dBm vs "
        f"interferer {testbed.links.rss(s2, r1):.0f} dBm"
    )

    net = Network(testbed, run_seed=5, track_tx=True)
    for n in (s1, r1, s2, r2):
        net.add_node(n, cmap_factory())
    net.add_saturated_flow(s1, r1)
    net.add_saturated_flow(s2, r2)

    # Periodically snapshot the distributed state.
    def snapshot():
        now = net.sim.now
        il1 = net.nodes[r1].mac.interferer_list.entries(now)
        il2 = net.nodes[r2].mac.interferer_list.entries(now)
        dt1 = len(net.nodes[s1].mac.defer_table)
        dt2 = len(net.nodes[s2].mac.defer_table)
        print(
            f"  t={now:5.1f}s  interferer lists: |I_{r1}|={len(il1)} "
            f"|I_{r2}|={len(il2)}   defer tables: |D_{s1}|={dt1} |D_{s2}|={dt2}"
        )

    for t in (0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
        net.sim.call_later(t, snapshot)

    print("\nconvergence:")
    result = net.run(duration=14.0, warmup=7.0)

    print("\nsteady state (last 7 s):")
    print(f"  {s1}->{r1}: {result.flow_mbps(s1, r1):.2f} Mb/s")
    print(f"  {s2}->{r2}: {result.flow_mbps(s2, r2):.2f} Mb/s")
    conc = result.concurrency_fraction((s1, s2))
    print(f"  concurrent airtime: {conc:.0%} (conflicting flows serialize)")
    for s, r in ((s1, r1), (s2, r2)):
        mac = net.nodes[s].mac
        print(
            f"  sender {s}: {mac.cstats.vpkts_sent} vpkts, "
            f"{mac.cstats.defer_decisions} defer decisions, "
            f"CW now {mac.backoff.cw * 1000:.0f} ms"
        )


if __name__ == "__main__":
    main()
