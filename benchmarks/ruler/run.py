"""The ruler: one command that measures a sweep end to end.

Three ways in, one measurement underneath:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, as ``BENCHMARK.json``'s driver runs it. The last line of
    output is one JSON object: every end-to-end metric (``--trace 0``) or
    every per-layer metric (``--trace 1``).

``run.py [--seed N] [--workloads a,b] [--out FILE]``
    The suite: each workload in fresh interpreters, strictly one after
    another, every end-to-end metric printed by name with unit, direction
    and bound, outputs checked, then a separate traced pass for the
    per-layer numbers.

``run.py --aa [--seed N] [--baseline-out FILE]``
    The suite twice on the same tree; exits non-zero if any workload x
    metric differs by more than its bound.

This file imports nothing from the repo: it starts ``child.py`` with
``PYTHONPATH`` set, so every layer is measured from outside, and a checkout
without ``src/`` fails before a single run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from spin import SPIN_VERSION

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".ruler_work")

DEFAULT_ROUNDS = 3
CHILD_TIMEOUT_S = 170.0


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([inherited] if inherited else [])
    )
    return env


def run_child(workload: str, seed: int, trace: int, workdir: str, **options) -> dict:
    """Run ``child.py`` in a fresh interpreter and return the JSON object it
    printed last. The child is always reaped, also on Ctrl-C."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
        "--workdir",
        workdir,
        "--started-at",
        repr(time.time()),
    ]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            cmd.append(flag)
        elif value is not None and value is not False:
            cmd += [flag, str(value)]
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(lines[-1])


class WorkDir:
    """A scratch directory inside the checkout, removed on the way out."""

    def __enter__(self) -> str:
        self.path = os.path.join(WORK, f"run-{os.getpid()}")
        os.makedirs(self.path, exist_ok=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ----------------------------------------------------------------------
# One workload, tracing off: rounds pooled into end-to-end metrics
# ----------------------------------------------------------------------
def measure(
    workload: str,
    seed: int,
    seconds: float,
    rounds: int = DEFAULT_ROUNDS,
    trials: Optional[int] = None,
    corrupt: bool = False,
) -> dict:
    with WorkDir() as workdir:
        outs = [
            run_child(
                workload,
                seed,
                0,
                workdir,
                seconds=seconds / rounds,
                round=index,
                trials=trials,
                count_calls=index == 0,
                corrupt_reference=corrupt,
            )
            for index in range(rounds)
        ]
    pool = _pool_sim if outs[0]["kind"] == "sim" else _pool_sweep
    metrics, samples, context, round_mismatches = pool(outs)
    first = outs[0]
    metrics["calls_per_trial"] = first["calls"] / first["calls_trials"]
    metrics["peak_rss_mb"] = statistics.median(o["peak_rss_mb"] for o in outs)
    metrics["setup_s"] = statistics.median(o["setup_s"] for o in outs)
    samples.update(calls_per_trial=1, peak_rss_mb=rounds, setup_s=rounds)
    attempted = sum(o["attempted"] for o in outs) + rounds
    # Every round must have been handed the same inputs, and (simulator
    # workloads) have computed the same results from them.
    failed = (
        sum(o["failed"] for o in outs)
        + round_mismatches
        + sum(1 for o in outs if o["inputs_digest"] != first["inputs_digest"])
    )
    context["measured_s"] = sum(o["measured_s"] for o in outs)
    return {
        "workload": workload,
        "seed": seed,
        "trials": first["trials"],
        "rounds": rounds,
        "end_to_end": metrics,
        "samples": samples,
        "context": context,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "inputs_digest": first["inputs_digest"],
        "spec_sha256": first["spec_sha256"],
    }


def _pool_sim(outs: List[dict]):
    """Per trial, the median over every repetition of every round of
    (trial time / adjacent spin time); summed over trials, per trial."""
    n = outs[0]["trials"]
    per_trial = [[s for o in outs for s in o["samples"][i]] for i in range(n)]
    reps = min(len(s) for s in per_trial)

    def summed(column: int) -> float:
        return sum(statistics.median(s[column] for s in t) for t in per_trial)

    wall_s = summed(2)
    events = outs[0]["events"]
    metrics = {
        "spins_per_trial": summed(0) / n,
        "cpu_spins_per_trial": summed(1) / n,
    }
    samples = {"spins_per_trial": reps, "cpu_spins_per_trial": reps}
    context = {
        "reps": reps,
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s,
        "ms_per_trial": wall_s * 1e3 / n,
        "spin_ms": statistics.median(
            s[2] / s[0] * 1e3 for t in per_trial for s in t
        ),
        "results_digest": outs[0]["digest"],
    }
    if "fidelity" in outs[0]:
        context["fidelity"] = outs[0]["fidelity"]
    # A round that computed different results or events is a failed op of
    # its own, on top of the repetitions each round checked against itself.
    mismatches = sum(
        1 for o in outs if o["digest"] != outs[0]["digest"] or o["events"] != events
    )
    return metrics, samples, context, mismatches


def _pool_sweep(outs: List[dict]):
    sweeps = [s for o in outs for s in o["sweeps"]]
    n = outs[0]["trials"]
    metrics = {
        name: statistics.median(s[name] for s in sweeps)
        for name in ("spins_per_trial", "cpu_spins_per_trial")
    }
    samples = {name: len(sweeps) for name in metrics}
    wall_s = statistics.median(s["wall_s"] for s in sweeps)
    context = {
        "sweeps": len(sweeps),
        "wall_s": wall_s,
        "cpu_s": statistics.median(s["cpu_s"] for s in sweeps),
        "ms_per_trial": wall_s * 1e3 / n,
        "spin_ms": statistics.median(s["spin_ms"] for s in sweeps),
    }
    return metrics, samples, context, 0


# ----------------------------------------------------------------------
# One workload, tracing on: per-layer metrics
# ----------------------------------------------------------------------
def trace(
    workload: str, seed: int, trials: Optional[int] = None, corrupt: bool = False
) -> dict:
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_file = os.path.join(WORK, "traces", f"{workload}-seed{seed}.jsonl")
    with WorkDir() as workdir:
        out = run_child(
            workload,
            seed,
            1,
            workdir,
            trials=trials,
            trace_file=trace_file,
            corrupt_reference=corrupt,
        )
    # Only sweeps write spans; simulator workloads are profiled.
    wrote = "trace_file" in out
    return {
        "per_layer": out["metrics"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "trace_file": os.path.relpath(trace_file, ROOT) if wrote else None,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def contract_line(spec: dict, section: str, values: Dict[str, float], result) -> str:
    """The driver's last line: exactly ``correct``/``attempted``/``failed``/
    ``metrics``, with every metric of the section (a per-layer metric a
    workload does not exercise reads 0)."""
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in spec[section]
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_workload(spec: dict, result: dict) -> None:
    print(
        f"\n== {result['workload']} (seed {result['seed']}): "
        f"{result['trials']} trials, {result['rounds']} rounds; "
        f"attempted {result['attempted']}, failed {result['failed']} "
        f"(failed_share {result['failed_share']:.6f})"
    )
    print(
        f"  {'end-to-end, tracing off':<26}{'median':>14} {'unit':<7}"
        f"{'better':<7}{'bound':>6} {'samples':>7}"
    )
    for m in spec["end_to_end"]:
        print(
            f"  {m['name']:<26}{result['end_to_end'][m['name']]:>14.4f} "
            f"{m['unit']:<7}{m['better']:<7}{m['bound']:>6} "
            f"{result['samples'][m['name']]:>7}"
        )
    context = dict(result["context"])
    fidelity = context.pop("fidelity", None)
    shown = " ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in context.items()
    )
    print(f"  context (not gated): {shown}")
    if fidelity:
        shown = " ".join(f"{k}={v:.3f}" for k, v in fidelity.items())
        print(f"  fig12 reading at smoke scale (not a validated error): {shown}")
    print(f"  inputs_digest={result['inputs_digest']}")
    if "per_layer" in result:
        print(f"  {'per-layer, traced pass':<40}{'value':>14} unit")
        for m in spec["per_layer"]:
            if m["name"] in result["per_layer"]:
                value = result["per_layer"][m["name"]]
                print(f"  {m['name']:<40}{value:>14.4f} {m['unit']}")
        if result.get("trace_file"):
            print(f"  spans: {result['trace_file']}")


def run_suite(spec: dict, args) -> dict:
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
        unknown = sorted(set(names) - {w["name"] for w in spec["workloads"]})
        if unknown:
            raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    suite = {
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.reps,
        "workloads": {},
    }
    for name in names:
        result = measure(
            name,
            args.seed,
            args.seconds,
            args.reps,
            args.trials,
            args.corrupt_reference,
        )
        if not args.no_trace:
            traced = trace(name, args.seed, args.trials, args.corrupt_reference)
            result["per_layer"] = traced["per_layer"]
            result["trace_file"] = traced["trace_file"]
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["failed_share"] = result["failed"] / result["attempted"]
        print_workload(spec, result)
        sys.stdout.flush()
        suite["workloads"][name] = result
    suite["failed"] = sum(r["failed"] for r in suite["workloads"].values())
    return suite


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def compare(spec: dict, a: dict, b: dict) -> List[dict]:
    """Per workload x end-to-end metric: both medians, their relative
    difference, the bound, and whether the difference is within it."""
    rows = []
    for name, ra in a["workloads"].items():
        rb = b["workloads"][name]
        for m in spec["end_to_end"]:
            va = ra["end_to_end"][m["name"]]
            vb = rb["end_to_end"][m["name"]]
            diff = abs(vb - va) / va
            rows.append(
                {
                    "workload": name,
                    "metric": m["name"],
                    "a": va,
                    "b": vb,
                    "rel_diff": diff,
                    "bound": m["bound"],
                    "ok": diff <= m["bound"],
                }
            )
        rows.append(
            {
                "workload": name,
                "metric": "inputs_digest",
                "a": ra["inputs_digest"],
                "b": rb["inputs_digest"],
                "ok": ra["inputs_digest"] == rb["inputs_digest"],
            }
        )
    return rows


def run_aa(spec: dict, args) -> int:
    a = run_suite(spec, args)
    b = run_suite(spec, args)
    rows = compare(spec, a, b)
    print(f"\n== A/A, seed {args.seed}: the same tree measured twice")
    print(
        f"  {'workload':<14}{'metric':<22}{'first':>14}{'second':>14}"
        f"{'diff':>9}{'bound':>7}"
    )
    for row in rows:
        verdict = "" if row["ok"] else "  EXCEEDED"
        if row["metric"] == "inputs_digest":
            same = "same inputs" if row["ok"] else "INPUTS DIFFER"
            print(f"  {row['workload']:<14}{row['metric']:<22}{same:>28}")
            continue
        print(
            f"  {row['workload']:<14}{row['metric']:<22}{row['a']:>14.4f}"
            f"{row['b']:>14.4f}{row['rel_diff']:>9.4f}{row['bound']:>7}{verdict}"
        )
    ok = all(row["ok"] for row in rows) and a["failed"] == 0 and b["failed"] == 0
    if args.baseline_out:
        _merge_baseline(args.baseline_out, args.seed, a, b, rows)
    print("A/A " + ("within every bound" if ok else "FAILED"))
    return 0 if ok else 1


def _merge_baseline(path: str, seed: int, a: dict, b: dict, rows: List[dict]) -> None:
    baseline = {"schema": 1, "spin": SPIN_VERSION, "seeds": {}}
    if os.path.exists(path):
        with open(path) as fh:
            baseline = json.load(fh)
    # The second run's inputs are recorded once: compare() proved them equal.
    for result in b["workloads"].values():
        result.pop("spec_sha256", None)
    baseline["machine"] = machine()
    baseline["spin_ms"] = statistics.median(
        r["context"]["spin_ms"] for r in a["workloads"].values()
    )
    baseline["seeds"][str(seed)] = {"runs": [a, b], "aa": rows}
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    add = parser.add_argument
    add("--workload", help="run one workload, driver-style")
    add("--seed", type=int, default=1)
    add("--seconds", type=float, help="measuring time (default: run_seconds)")
    add("--trace", type=int, choices=(0, 1), default=0)
    add("--workloads", help="suite: comma-separated subset")
    add("--reps", type=int, default=DEFAULT_ROUNDS, help="fresh interpreters (3)")
    add("--trials", type=int, help="cap a simulator workload's trials / size a sweep")
    add("--no-trace", action="store_true", help="suite: skip the traced pass")
    add("--out", help="suite: write the results as JSON")
    add("--aa", action="store_true", help="the suite twice, compared to the bounds")
    add("--baseline-out", help="--aa: merge both runs into this file")
    add("--corrupt-reference", action="store_true", help="self-test of the gate")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ruler: no simulator to measure under {SRC}", file=sys.stderr)
        return 2
    spec = load_benchmark()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # SIGTERM unwinds like Ctrl-C: children reaped, scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.aa:
        return run_aa(spec, args)
    if not args.workload:
        suite = run_suite(spec, args)
        suite["machine"] = machine()
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(suite, fh, indent=1, sort_keys=True)
                fh.write("\n")
        return 0 if suite["failed"] == 0 else 1
    if args.trace:
        result = trace(
            args.workload, args.seed, args.trials, args.corrupt_reference
        )
        line = contract_line(spec, "per_layer", result["per_layer"], result)
    else:
        result = measure(
            args.workload,
            args.seed,
            args.seconds,
            args.reps,
            args.trials,
            args.corrupt_reference,
        )
        print_workload(spec, result)
        line = contract_line(spec, "end_to_end", result["end_to_end"], result)
    print(line)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
