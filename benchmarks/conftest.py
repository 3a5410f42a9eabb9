"""Shared fixtures for the figure-regeneration benchmarks.

Scale control: set ``REPRO_SCALE=quick`` (minutes) or ``REPRO_SCALE=paper``
(paper-equivalent sample sizes, hours) — the default is a small scale that
still preserves each figure's qualitative shape.

Parallelism: set ``REPRO_JOBS=N`` to fan each figure's independent trials
out over N worker processes through the shared experiment executor. Results
are bit-identical to serial, so the printed tables (and shape assertions)
do not change — only wall time does.

Every benchmark prints the same rows/series its paper figure reports; the
files are named ``bench_*.py``, which pytest does not collect by default,
so name them explicitly::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_fig12_exposed.py -q -s

and compare against the paper-vs-measured record in EXPERIMENTS.md.
"""

import os

import pytest

from repro.experiments.executor import make_backend
from repro.experiments.runners import ExperimentScale
from repro.net.testbed import Testbed


def bench_scale() -> ExperimentScale:
    mode = os.environ.get("REPRO_SCALE", "bench")
    if mode == "paper":
        return ExperimentScale.paper()
    if mode == "quick":
        return ExperimentScale.quick()
    # Default: small but non-trivial; minutes for the whole suite. The mesh
    # experiment needs several topologies for its aggregate to stabilise.
    return ExperimentScale(
        configs=5,
        duration=8.0,
        warmup=3.0,
        triples=24,
        trials_per_n=1,
        mesh_topologies=6,
        ht_configs_per_n=2,
    )


@pytest.fixture(scope="session")
def testbed():
    return Testbed(seed=1)


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def backend():
    """Trial-execution backend: serial unless REPRO_JOBS=N asks for a pool."""
    return make_backend(int(os.environ.get("REPRO_JOBS", "1")))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
