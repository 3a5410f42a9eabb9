"""Tier-1 self-test of the ruler (collected by the plain ``pytest -x -q``).

Checks the measuring instruments, not the measurements: the spin, the span
arithmetic, that the suite emits every metric ``BENCHMARK.json`` promises,
and that the correctness gate trips when its reference is perturbed.
"""

import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

import spans
import spin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_spin_is_positive_and_its_clocks_agree():
    spin.warm_up(5)
    samples = [spin.timed_spin() for _ in range(5)]
    wall = statistics.median(s[0] for s in samples)
    cpu = statistics.median(s[1] for s in samples)
    assert wall > 0 and cpu > 0
    assert 0.5 < wall / cpu < 2.0


def test_span_self_times_sum_to_the_root():
    rec = spans.Recorder()

    class Layers:
        def outer(self):
            time.sleep(0.002)
            self.inner()
            self.inner()

        def inner(self):
            time.sleep(0.001)

    rec.wrap(Layers, "outer", "a", trace_of=lambda self: "t1")
    rec.wrap(Layers, "inner", "b")
    try:
        Layers().outer()
    finally:
        rec.unwrap_all()
    assert Layers.outer.__qualname__.endswith("Layers.outer")  # restored
    root, first, second = rec.spans
    assert (first.parent, second.parent) == (root.id, root.id)
    assert {s.trace for s in rec.spans} == {"t1"}  # children inherit the trace
    selfs = rec.self_times()
    assert math.isclose(sum(selfs.values()), root.duration, rel_tol=1e-9)
    assert selfs[root.id] < root.duration
    # Clipping to a window that ends mid-way can only shrink self times.
    window = (root.start, first.end)
    assert sum(rec.self_times(window).values()) <= root.duration


def test_names_fit_the_contract():
    spec = _benchmark()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_suite_emits_every_end_to_end_metric(tmp_path):
    out = tmp_path / "suite.json"
    proc = _run(
        "--workloads=pairs_static,sweep_local",
        "--reps=1",
        "--trials=2",
        "--seconds=0.1",
        "--no-trace",
        f"--out={out}",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    suite = json.loads(out.read_text())
    assert set(suite["workloads"]) == {"pairs_static", "sweep_local"}
    for result in suite["workloads"].values():
        assert result["failed_share"] == 0 and result["attempted"] >= 1
        for metric in _benchmark()["end_to_end"]:
            value = result["end_to_end"][metric["name"]]
            assert math.isfinite(value) and value > 0, metric["name"]
            assert metric["name"] in proc.stdout


def test_perturbed_reference_fails_the_run():
    proc = _run(
        "--workload=pairs_static",
        "--reps=1",
        "--trials=1",
        "--seconds=0.1",
        "--corrupt-reference",
    )
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_a_checkout_without_the_simulator_is_refused(tmp_path):
    bare = tmp_path / "benchmarks" / "ruler"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bare / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_benchmark()))
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload=pairs_static"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
