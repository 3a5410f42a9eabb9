"""Command-line entry point: regenerate any paper figure from a shell.

Usage::

    python -m repro.cli fig12 --scale smoke
    python -m repro.cli fig17 --scale quick --seed 2
    python -m repro.cli fig12 --scale paper --jobs 8 --out fig12.json
    python -m repro.cli fig12 --scale paper --jobs 8 --out fig12.json --resume
    python -m repro.cli census
    python -m repro.cli map --regions
    python -m repro.cli all --scale smoke
    python -m repro.cli mobility --scale smoke
    python -m repro.cli churn --scale smoke
    python -m repro.cli scale --scale smoke --jobs 2
    python -m repro.cli profile --scale smoke
    python -m repro.cli serve --port 8642 --data-dir sweep-data
    python -m repro.cli submit --builder fig12 --scale smoke --tail
    python -m repro.cli tail <job-id>
    python -m repro.cli runs --experiment fig12 --metric total_mbps

Figures print the same rows/series the paper reports (see EXPERIMENTS.md
for the side-by-side record). ``--scale`` trades fidelity for wall time;
``--jobs N`` fans independent trials out over N worker processes (results
are bit-identical to serial); ``--out``/``--resume`` persist completed
trials to JSON so an interrupted sweep picks up where it left off.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import perf
from repro.experiments import report
from repro.experiments.executor import (
    ResultStore,
    SerialBackend,
    make_backend,
    run_experiment,
)
from repro.experiments.runners import (
    SWEEP_BUILDERS,
    ExperimentScale,
    run_scale_sweep,
)
from repro.experiments.scenarios import ScenarioError
from repro.net.testbed import Testbed

#: CLI-only names for a registered figure: Fig. 18 is the per-sender view
#: the fig17 run prints.
ALIASES = {"fig18": "fig17"}

#: Every figure ``all`` runs: the registry plus the scale sweep, which
#: builds one testbed per generated world and so stays on
#: :func:`run_scale_sweep`, outside the registry.
FIGURES = sorted([*SWEEP_BUILDERS, "scale"])
FIGURE_TARGETS = sorted([*FIGURES, *ALIASES])


def _scale(name: str) -> ExperimentScale:
    try:
        return ExperimentScale.preset(name)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))


def run_figure(name, testbed, scale, backend, store) -> str:
    """Run one figure and return its printed report.

    The testbed's seed also seeds the configurations drawn on it, as
    ``submit --seed`` and ``POST /jobs`` do.
    """
    name = ALIASES.get(name, name)
    seed = testbed.seed
    try:
        if name == "scale":
            result = run_scale_sweep(scale, seed, backend=backend, store=store)
        else:
            spec = SWEEP_BUILDERS[name](testbed, scale, seed=seed)
            result = run_experiment(spec, testbed, backend=backend, store=store)
    except ScenarioError as exc:
        raise SystemExit(f"builder {name!r} found no scenario: {exc}")
    return report.render(result)


def run_profile(args) -> int:
    """cProfile figure regenerations and print a per-layer breakdown.

    Always the serial backend: worker processes would execute their events
    outside the profiler. Profiling is observational — outputs stay
    bit-identical — so the attribution describes exactly the run the
    goldens pin.
    """
    names = [f.strip() for f in args.figures.split(",") if f.strip()]
    if not names:
        raise SystemExit(
            f"--figures named no figures; pick from {FIGURE_TARGETS}"
        )
    for name in names:
        if name not in FIGURE_TARGETS:
            raise SystemExit(
                f"unknown figure {name!r}; pick from {FIGURE_TARGETS}"
            )
    testbed = Testbed(seed=args.seed)
    testbed.links  # setup cost, not attributed to the profiled figure
    scale = _scale(args.scale)
    backend = SerialBackend()

    for name in names:
        print(f"=== profile {name} (scale={args.scale}, seed={args.seed}) ===")
        profile = perf.profile_figure(
            name,
            lambda n=name: run_figure(n, testbed, scale, backend, None),
        )
        print(perf.format_profile_table(profile))
    return 0


#: Targets served by the sweep service CLI (repro.service.cli), which has
#: its own argument surface; dispatched before the figure parser runs.
SERVICE_TARGETS = ("serve", "work", "submit", "tail", "runs", "chaos")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SERVICE_TARGETS:
        from repro.service.cli import main as service_main

        return service_main(argv)
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target",
        choices=FIGURE_TARGETS + ["census", "map", "all", "profile"],
        help="figure to regenerate, census/map/all, or profile "
             "(serve/submit/tail/runs/chaos dispatch to the sweep "
             "service CLI)",
    )
    parser.add_argument("--scale", default="smoke",
                        help="smoke | quick | paper (default smoke)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the testbed and of the configurations "
                             "drawn on it (default 1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for trial execution "
                             "(default 1 = serial; output is identical)")
    parser.add_argument("--out", metavar="PATH",
                        help="persist per-trial results to this JSON file")
    parser.add_argument("--resume", action="store_true",
                        help="with --out: skip trials already in the file")
    parser.add_argument("--regions", action="store_true",
                        help="with 'map': draw the §5.6 region boundaries")
    parser.add_argument("--figures", default="fig12",
                        help="with 'profile': comma-separated figures to "
                             "profile (default fig12)")
    args = parser.parse_args(argv)

    if args.target == "profile":
        return run_profile(args)

    testbed = Testbed(seed=args.seed)

    if args.target == "census":
        census = testbed.links.census()
        print("testbed census (paper §5.1: 68 % / 12 % / 20 %, degree 15.2/17)")
        print(f"  connected directed pairs : {census.connected_pairs}")
        print(f"  PRR < 0.1                : {census.frac_prr_below_01:.1%}")
        print(f"  0.1 <= PRR < 1           : {census.frac_prr_mid:.1%}")
        print(f"  PRR ~ 1                  : {census.frac_prr_perfect:.1%}")
        print(f"  mean / median degree     : {census.mean_degree:.1f} / "
              f"{census.median_degree:.0f}")
        return 0

    if args.target == "map":
        from repro.net.visualize import render_floor

        print(render_floor(testbed, show_regions=args.regions))
        return 0

    if args.resume and not args.out:
        raise SystemExit("--resume requires --out")

    scale = _scale(args.scale)
    backend = make_backend(args.jobs)
    store = None
    if args.out:
        if not args.resume and os.path.exists(args.out):
            raise SystemExit(
                f"{args.out} exists; pass --resume to continue it or remove it"
            )
        try:
            store = ResultStore(args.out, testbed_seed=args.seed)
        except ValueError as exc:
            raise SystemExit(str(exc))
        if args.resume and len(store):
            print(f"[resuming from {args.out}: {len(store)} trials cached]")

    targets = FIGURES if args.target == "all" else [args.target]
    for name in targets:
        t0 = time.time()
        print(f"=== {name} (scale={args.scale}, seed={args.seed}, "
              f"jobs={args.jobs}) ===")
        print(run_figure(name, testbed, scale, backend, store))
        print(f"[{time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
