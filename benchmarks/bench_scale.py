"""Scale benchmark: events/s and per-event cost vs generated world size.

Runs one saturated CMAP trial per world size N (constant density, all N
nodes attached) with the topology library's default culling floors, and —
for contrast — an exhaustive-fan-out run of the same worlds with culling
disabled. The headline acceptance number is the per-event cost ratio
between the largest and smallest culled worlds: with RSS-cutoff culling
the per-frame receiver set is bounded by neighborhood density, so the
ratio stays within 2x (without culling, every frame pays O(N)).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py \
        --out benchmarks/BENCH_pr4_scale.json

Not a pytest file on purpose: one run is a trajectory point, written as a
BENCH_*.json (events and event-loop wall time from repro.perf.recording).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import perf  # noqa: E402
from repro.experiments.executor import run_trial  # noqa: E402
from repro.experiments.spec import MacSpec, TrialSpec  # noqa: E402
from repro.experiments.topologies import (  # noqa: E402
    build_topology,
    default_flows_n,
)


def bench_case(
    topology: str,
    n: int,
    duration: float,
    warmup: float,
    seed: int,
    culled: bool,
) -> dict:
    """Time one world; returns a JSON-ready record."""
    topo = build_topology(topology, n)
    if not culled:
        topo = replace(topo, delivery_floor_dbm=None, interference_floor_dbm=None)
    t0 = time.perf_counter()
    testbed = topo.build(seed=seed)
    setup_seconds = time.perf_counter() - t0
    flows = topo.flows(testbed, default_flows_n(topo.n), 0)
    mode = "culled" if culled else "exhaustive"
    spec = TrialSpec(
        trial_id=f"bench_scale/{topo.label}/{mode}",
        nodes=tuple(sorted(testbed.positions)),
        flows=flows,
        mac=MacSpec.of("cmap"),
        run_seed=0,
        duration=duration,
        warmup=warmup,
        metrics=("fanout",),
        delivery_floor_dbm=topo.delivery_floor_dbm,
        interference_floor_dbm=topo.interference_floor_dbm,
    )
    with perf.recording() as recorder:
        t0 = time.perf_counter()
        result = run_trial(testbed, spec)
        wall = time.perf_counter() - t0
    events = recorder.events
    run_wall = recorder.run_wall_seconds
    fanout = result.metrics["fanout"]
    return {
        "topology": topo.kind,
        "n": topo.n,
        "flows": len(flows),
        "culled": culled,
        "sim_seconds": duration,
        "setup_seconds": round(setup_seconds, 3),
        "wall_seconds": round(wall, 3),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "us_per_event": round(1e6 * run_wall / events, 4) if events else 0.0,
        "mean_fanout_delivered": round(fanout["mean_delivered"], 2),
        "mean_fanout_interference_only": round(fanout["mean_interference_only"], 2),
        "aggregate_mbps": round(sum(result.flow_mbps.values()), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ns",
        default="25,100,400",
        help="comma-separated world sizes (default 25,100,400)",
    )
    parser.add_argument(
        "--topology",
        default="uniform",
        help="topology family (default uniform)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=3.0,
        help="simulated seconds per culled run (default 3)",
    )
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--skip-exhaustive",
        action="store_true",
        help="skip the culling-disabled contrast runs",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: timestamped BENCH_scale_*.json in cwd)",
    )
    args = parser.parse_args(argv)

    ns = sorted(int(v) for v in args.ns.split(",") if v.strip())
    cases = []
    for n in ns:
        for culled in (True,) if args.skip_exhaustive else (True, False):
            # The exhaustive contrast runs half the sim time: its per-event
            # metrics are rates, and O(N) fan-out makes full runs slow.
            duration = args.duration if culled else max(1.0, args.duration / 2)
            warmup = min(args.warmup, duration / 2)
            case = bench_case(args.topology, n, duration, warmup, args.seed, culled)
            cases.append(case)
            mode = "culled" if culled else "exhaustive"
            fanout_str = (
                f"{case['mean_fanout_delivered']}+"
                f"{case['mean_fanout_interference_only']}/{case['n'] - 1}"
            )
            line = (
                f"N={case['n']:<4} {mode:<11} wall={case['wall_seconds']:>7.2f}s "
                f"events={case['events']:>9} ev/s={case['events_per_sec']:>9.0f} "
                f"us/ev={case['us_per_event']:>6.2f} fanout={fanout_str}"
            )
            print(line)

    culled_cases = {c["n"]: c for c in cases if c["culled"]}
    lo, hi = min(culled_cases), max(culled_cases)
    if not (culled_cases[lo]["events"] and culled_cases[hi]["events"]):
        # A run that measured nothing must not report the acceptance
        # criterion as met.
        print("ERROR: a culled case recorded zero events; nothing measured")
        return 2
    ratio = culled_cases[hi]["us_per_event"] / culled_cases[lo]["us_per_event"]
    payload = {
        "schema": 1,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "kind": "scale",
        "topology": args.topology,
        "seed": args.seed,
        "cases": cases,
        "per_event_cost_ratio_largest_vs_smallest": round(ratio, 3),
        "acceptance": {
            "criterion": "culled per-event cost at max N within 2x of min N",
            "ratio": round(ratio, 3),
            "passes": ratio <= 2.0,
        },
    }
    out = args.out
    if out is None:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        out = f"BENCH_scale_{stamp}.json"
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    verdict = "PASS" if ratio <= 2.0 else "FAIL"
    print(f"per-event cost ratio N={hi} vs N={lo}: {ratio:.2f}x ({verdict} <= 2.0)")
    print(f"[wrote {out}]")
    return 0 if ratio <= 2.0 else 1


if __name__ == "__main__":
    sys.exit(main())
