"""MAC hot-path benchmark: saturated pairs plus timer-registry churn.

Three workloads sized for CI smoke runs, each reported as events/s:

* ``mac_dcf_pairs`` — two saturated DCF flows on the standard testbed: the
  contention loop (DIFS/slot/ACK timers through the named registry)
  dominates.
* ``mac_cmap_pairs`` — two saturated CMAP flows: the Fig. 6 sender loop,
  defer decisions against the conflict map, and the batched map sweep.
* ``mac_timer_churn`` — a pure engine/registry microbenchmark: thousands of
  named timers arming, rescheduling, and cancelling with no radio
  underneath, so regressions in the timer API itself are not masked by
  PHY cost.

Emits a ``BENCH_mac_*.json`` trajectory point compatible with
``check_bench_regression.py``; the committed baseline lives at
``benchmarks/BENCH_mac_baseline_ci.json``.

Usage::

    python benchmarks/bench_mac.py --repeat 2 --out-dir bench-mac-out
    python benchmarks/bench_mac.py --write-baseline   # re-record baseline
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import perf  # noqa: E402
from repro.net.testbed import Testbed  # noqa: E402
from repro.network import Network, cmap_factory, dcf_factory  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402


def _run_pairs(testbed: Testbed, factory, duration: float) -> None:
    net = Network(testbed, run_seed=7)
    for n in (0, 1, 2, 3):
        net.add_node(n, factory)
    net.add_saturated_flow(0, 1)
    net.add_saturated_flow(2, 3)
    result = net.run(duration=duration, warmup=duration / 4.0)
    delivered = sum(f.delivered_unique for f in result.sink.flow_list())
    assert delivered > 0, "benchmark network moved no traffic"


def bench_timer_churn(repeat: int, timers: int = 64, ticks: int = 60000):
    """Pure timer churn: named periodic timers + a cancel/re-arm storm."""
    from repro.mac.base import TimerRegistry

    def build_and_run() -> Simulator:
        sim = Simulator()
        reg = TimerRegistry(sim)
        period = 1e-3

        def noop() -> None:
            pass

        def tick(idx: int) -> None:
            # Re-arm self (handle reuse) and harass a neighbour with a
            # cancel + re-arm pair — the storm the registry must make O(1).
            # The shared noop matches MAC idiom (callbacks bound once at
            # init), keeping the neighbour re-arm on the reuse fast path.
            reg.arm(("t", idx), period, tick, idx)
            other = (idx * 7 + 1) % timers
            reg.cancel(("n", other))
            reg.arm(("n", other), period / 2, noop)

        for i in range(timers):
            reg.arm(("t", i), period * (i + 1) / timers, tick, i)
        sim.run(until=ticks * period / timers)
        return sim

    best = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        sim = build_and_run()
        wall = time.perf_counter() - t0
        bench = _churn_bench(sim, wall)
        if best is None or bench.wall_seconds < best.wall_seconds:
            best = bench
    return best


def _churn_bench(sim: Simulator, wall: float) -> "perf.FigureBench":
    return perf.FigureBench(
        figure="mac_timer_churn",
        wall_seconds=round(wall, 4),
        run_wall_seconds=round(wall, 4),
        events=sim.events_processed,
        trials=1,
        sim_seconds=sim.now,
        events_per_sec=sim.events_processed / wall if wall > 0 else 0.0,
        core_events_per_sec=sim.events_processed / wall if wall > 0 else 0.0,
        trials_per_sec=1.0 / wall if wall > 0 else 0.0,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=2, help="best-of runs")
    parser.add_argument("--duration", type=float, default=12.0,
                        help="simulated seconds per saturated-pair workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument(
        "--baseline",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "BENCH_mac_baseline_ci.json",
        ),
    )
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    testbed = Testbed(seed=args.seed)
    testbed.links  # force the O(N^2) census into setup, not the timing

    results = []
    for name, factory in (
        ("mac_dcf_pairs", dcf_factory(True, True)),
        ("mac_cmap_pairs", cmap_factory()),
    ):
        bench = perf.bench_figure(
            name,
            lambda f=factory: _run_pairs(testbed, f, args.duration),
            repeat=args.repeat,
        )
        results.append(bench)
        print(
            f"{name:<16} {bench.wall_seconds:6.2f}s wall  "
            f"{bench.events:>9} events  {bench.events_per_sec:>9.0f} ev/s"
        )

    churn = bench_timer_churn(args.repeat)
    results.append(churn)
    print(
        f"{'mac_timer_churn':<16} {churn.wall_seconds:6.2f}s wall  "
        f"{churn.events:>9} events  {churn.events_per_sec:>9.0f} ev/s"
    )

    if args.write_baseline:
        payload = perf.bench_payload(results, "smoke", args.seed)
        path = perf.write_bench_file(
            payload,
            os.path.dirname(args.baseline) or ".",
            os.path.basename(args.baseline),
        )
    else:
        baseline = perf.load_bench_file(args.baseline)
        payload = perf.bench_payload(results, "smoke", args.seed, baseline)
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        path = perf.write_bench_file(
            payload, args.out_dir, f"BENCH_mac_{stamp}.json"
        )
        speedups = payload.get("speedup_events_per_sec")
        if speedups:
            for name, ratio in sorted(speedups.items()):
                print(f"  {name}: {ratio:.2f}x vs committed baseline")
    print(f"[wrote {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
