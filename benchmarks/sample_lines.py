"""Line-sampling profile of one repetition of a ruler simulator workload.

cProfile records no event for numpy's Cython methods or for ctypes calls,
so their time sits, unattributed, in the calling function's self time.
This samples instead: on every SIGPROF tick a handler records the
innermost ``src/`` line that was running, and the report is the top 15
lines' shares of the samples. ``--grep`` sums the share of the lines whose
source text matches a regex (e.g. the RNG draw sites).

Usage::

    python benchmarks/sample_lines.py --workload dense_static --seed 1 \\
        [--repeat 5] [--grep REGEX]

``--workload sweep`` runs the ruler sweeps' 8 ms trials in-process.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import linecache
import os
import re
import signal
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(REPO, "benchmarks", "ruler"))

from repro.experiments.executor import run_trial

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="dense_static")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--grep", help="regex over source lines to sum")
    args = parser.parse_args(argv)

    if args.workload == "sweep":
        testbed, trials, _timings = workloads.build_sweep(args.seed)
    else:
        testbed, trials, _timings = workloads.build_sim(args.workload, args.seed)
    # Lazy tables fill outside the sampled window, as in the ruler's set-up.
    run_trial(testbed, dataclasses.replace(trials[0], duration=0.2, warmup=0.05))

    counts: collections.Counter = collections.Counter()
    prefix = SRC + os.sep

    def on_sample(_signum, frame) -> None:
        while frame is not None and not frame.f_code.co_filename.startswith(prefix):
            frame = frame.f_back
        counts[(frame.f_code.co_filename, frame.f_lineno or 0) if frame else None] += 1

    signal.signal(signal.SIGPROF, on_sample)
    # The kernel delivers the timer at its tick at best (4 ms on a 250 Hz
    # kernel), however short the interval asked for: repeat to gather samples.
    signal.setitimer(signal.ITIMER_PROF, 5e-4, 5e-4)
    try:
        for _ in range(args.repeat):
            for trial in trials:
                run_trial(testbed, trial)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    total = sum(counts.values())
    print(
        f"{args.workload} seed {args.seed}: {total} samples, "
        f"{args.repeat} x {len(trials)} trials"
    )
    for key, n in counts.most_common(15):
        if key is None:
            print(f"  {n / total:6.1%}  (outside src/)")
            continue
        path, line = key
        text = linecache.getline(path, line).strip()
        print(f"  {n / total:6.1%}  {os.path.relpath(path, SRC)}:{line}  {text}")
    if args.grep:
        pattern = re.compile(args.grep)
        hits = {
            key: n
            for key, n in counts.items()
            if key is not None and pattern.search(linecache.getline(*key))
        }
        print(f"lines matching {args.grep!r}: {sum(hits.values()) / total:.1%}")
        for (path, line), n in sorted(hits.items(), key=lambda kv: -kv[1]):
            print(f"  {n / total:6.1%}  {os.path.relpath(path, SRC)}:{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
