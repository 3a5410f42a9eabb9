"""CI bench-regression gate: fail when events/s drops below the baseline.

Compares the figures in a freshly emitted BENCH_*.json (from
``python -m repro.cli bench``) against a committed baseline and exits
non-zero when any figure's events/s falls more than ``--tolerance`` below
it. The tolerance absorbs hosted-runner speed variance (see the workflow
comment where the 15% figure is documented); a real hot-path regression
shows up as a much larger, persistent drop.

Usage::

    python benchmarks/check_bench_regression.py \
        --bench "bench-out/BENCH_*.json" \
        --baseline benchmarks/BENCH_baseline_ci.json \
        --tolerance 0.15

``--bench`` accepts a glob; the newest match is checked.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench",
        required=True,
        help="emitted BENCH file (glob ok; newest match wins)",
    )
    parser.add_argument(
        "--baseline",
        required=True,
        help="committed baseline BENCH file",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional events/s drop (default 0.15)",
    )
    args = parser.parse_args(argv)

    matches = sorted(glob.glob(args.bench), key=os.path.getmtime)
    if not matches:
        print(f"ERROR: no bench file matches {args.bench!r}")
        return 2
    bench = load(matches[-1])
    baseline = load(args.baseline)

    base_figures = baseline.get("figures", {})
    cur_figures = bench.get("figures", {})
    if not base_figures:
        print(f"ERROR: baseline {args.baseline} has no figures")
        return 2

    failed = False
    print(f"bench file: {matches[-1]}")
    recorded = baseline.get("created_utc", "?")
    print(f"baseline  : {args.baseline} (recorded {recorded})")
    header = (
        f"{'figure':<12} {'baseline ev/s':>14} {'current ev/s':>14} "
        f"{'ratio':>7}  verdict"
    )
    print(header)
    for name, base in sorted(base_figures.items()):
        base_eps = base.get("events_per_sec", 0.0)
        cur = cur_figures.get(name)
        if cur is None:
            print(f"{name:<12} {base_eps:>14.0f} {'missing':>14}  FAIL (not run)")
            failed = True
            continue
        cur_eps = cur.get("events_per_sec", 0.0)
        ratio = cur_eps / base_eps if base_eps else 0.0
        ok = ratio >= 1.0 - args.tolerance
        verdict = "ok" if ok else "FAIL"
        print(
            f"{name:<12} {base_eps:>14.0f} {cur_eps:>14.0f} "
            f"{ratio:>6.2f}x  {verdict}"
        )
        if not ok:
            failed = True

    if failed:
        advice = (
            f"\nREGRESSION: events/s dropped more than {args.tolerance:.0%} "
            f"below baseline.\nIf the drop is intended (e.g. a fidelity "
            f"fix), re-record the baseline with:\n"
            f"  python -m repro.cli bench --scale smoke --repeat 2 "
            f"--figures fig12,mobility \\\n"
            f"    --write-baseline --baseline {args.baseline}"
        )
        print(advice)
        return 1
    print("\nno bench regression detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
