"""One fresh interpreter's share of a run: a timed round, or the traced pass.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the repo's ``src`` and
at this directory; prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import simbench
import sweepbench
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--count-calls", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)
    # A terminated round must still unwind: its ``with`` blocks are what
    # reap ``serve``/``work`` and remove the data dir.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload in workloads.SIM_WORKLOADS:
        if args.trace:
            out = simbench.run_traced(args.workload, args.seed, args.trials)
        else:
            out = simbench.run_round(
                args.workload,
                args.seed,
                args.seconds,
                args.started_at,
                args.trials,
                args.count_calls,
                args.corrupt_reference,
            )
    else:
        trials = args.trials or workloads.SWEEP_TRIALS
        if args.trace:
            out = sweepbench.run_traced(
                args.workload,
                args.seed,
                trials,
                args.workdir,
                args.trace_file,
                args.corrupt_reference,
            )
        else:
            out = sweepbench.run_round(
                args.workload,
                args.seed,
                args.seconds,
                args.started_at,
                trials,
                args.workdir,
                args.round,
                args.corrupt_reference,
                args.count_calls,
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
