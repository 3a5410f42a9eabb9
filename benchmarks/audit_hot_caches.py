"""Census of the fast paths that stay on the per-frame receive path.

DESIGN.md "Performance" rule 5: a cache lands with its measured hit rate on
the ruler workloads and is deleted when it reads under 5 % on all of them.
This script is where those hit rates come from. It runs the ruler's three
simulator workloads (one repetition each) plus one 0.6 s N=400 uniform
trial and reports, per workload:

* **saturation bounds** — of the positive-length intervals
  ``Reception.success_probability`` scored, how many the chunk kernel's
  ratio-domain bounds resolved to exactly 1.0 / 0.0 and how many reached
  the fused chunk closure; receptions scored from a single interval; mean
  intervals per reception.
* **scored receptions** — of the receptions a radio completed, how many
  were *unscored* (``RadioStats.delivered_unscored``: no MAC reads them, so
  they record no interference and skip the scorer; DESIGN.md rule 6).
* **exclusion fold** — of the interference updates a frame *start* pushed
  into an in-progress scored reception, how many the radio's incremental
  ``_excl_*`` fold served and how many fell through to
  ``Radio.interference_mw(uid)`` (a miss: a full insertion-order re-sum).
  Both rows are cross-checked against independent counts, and the census
  raises if either disagrees: every full-delivery start that finds its
  radio synced to a *scored* reception and does not capture it pushes
  exactly one update, and so does every energy-only start that finds one
  while the radio is not transmitting.
* **inline fan-out** — frame-start batches
  ``Simulator.deliver_fanout_inline`` delivered in place against those it
  sent round the heap.
* **link census** (reported once, for the ruler's 50-node testbed, the
  only world a ruler workload builds a ``LinkTable`` for) — of the
  quadrature points the link table's fading-averaged PRRs cover, how many
  ``FadeQuadrature.total`` skipped by its zero-prefix bisection, resolved
  to exactly 1.0 from the kernel's bound, or evaluated through the chunk
  closure (and how many of those still returned exactly 0.0 or 1.0). A
  replay of each call's classification must match the chunk calls counted,
  or the census raises.
* **edge census** (reported, not a rule-5 mechanism; ROADMAP item 5(a)) —
  of the fan-out edges the radios ran, how many did none of (i) a
  full-delivery entry reaching an IDLE radio, (ii) a sensing entry, (iii) a
  scored sync at the radio: their only effect is an insert into, or a pop
  from, the radio's arrival set. Of those, how many are *inert* as well:
  not a full-delivery start (each one draws its fade on a fading channel
  and may capture by message-in-message) and not the end of the radio's
  own sync (it finalizes the reception and draws the coin). The census
  raises unless the edges it classified equal the edges the medium and
  the engine delivered.

Everything is observed from outside, through wrappers installed on the
classes for the length of one workload; nothing under ``src/`` counts
anything for it. The wrappers cost time, so this script reports counts
only — timings are the ruler's job.

Usage::

    python benchmarks/audit_hot_caches.py [--json] [--workloads a,b] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import ExitStack
from unittest import mock

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "benchmarks", "ruler"))

from repro.experiments.executor import run_trial
from repro.experiments.runners import ExperimentScale, build_scale_sweep
from repro.phy.medium import Medium
from repro.net.testbed import Testbed
from repro.phy.modulation import (
    ErrorModel,
    FadeQuadrature,
    NistErrorModel,
    frame_kernel,
)
from repro.phy.radio import Radio, RadioState
from repro.phy.reception import Reception
from repro.sim.engine import Simulator

import workloads

N400 = "uniform_n400"
N400_SCALE = ExperimentScale(duration=0.6, warmup=0.2, trials_per_n=1)
#: The rule-5 floor a kept mechanism must clear on at least one workload.
FLOOR = 0.05

#: ``__name__`` of a fan-out start closure -> the counter its interference
#: update lands in. Both rows are cross-checked against counts taken by the
#: bind wrappers below, so a renamed closure fails the census loudly.
START_EDGES = {
    "on_frame_start": "fold_queries_frame",
    "on_interference_start": "fold_queries_energy",
}
#: The edge census's counters (see the module docstring).
EDGE_COUNTS = (
    "edges",
    "edges_delivered",
    "edges_idle_full",
    "edges_sensing",
    "edges_scored_sync",
    "edges_bookkeeping",
    "edges_inert",
)


def build(workload: str, seed: int):
    """(testbed, trials) of one census workload."""
    if workload == N400:
        _topo, testbed, spec = build_scale_sweep(
            N400_SCALE, workloads.WORLD_SEED, ns=(400,), topologies=("uniform",)
        )[0]
        cmap = [t for t in spec.trials if t.trial_id.endswith("/cmap")]
        return testbed, cmap[:1]
    testbed, trials, _timings = workloads.build_sim(workload, seed)
    return testbed, trials


def census(testbed, trials) -> dict:
    """Run ``trials`` under the wrappers; return the raw counts."""
    c = dict.fromkeys(
        (
            "receptions",
            "single_interval",
            "intervals",
            "bound_resolved",
            "chunk_evals",
            *START_EDGES.values(),
            "fold_misses",
            "scored_busy_rx",
            "batches_inline",
            "batches_heap",
            *EDGE_COUNTS,
        ),
        0,
    )
    radios = []
    kernels = {}  # (id(model), id(rate)) -> the ChunkKernel the scorer holds
    evals = []  # chunk results of the reception being scored, in order

    def counting_chunk_kernel(original):
        def chunk_kernel(model, rate):
            kernel = kernels[id(model), id(rate)] = original(model, rate)
            chunk = kernel.chunk

            def counted(sinr_db, bits):
                p = chunk(sinr_db, bits)
                evals.append(p)
                return p

            kernel.chunk = counted
            return kernel

        return chunk_kernel

    def counting_score(original):
        def success_probability(reception, error_model, noise_mw):
            del evals[:]
            prob = original(reception, error_model, noise_mw)
            duration = reception.end - reception.start
            if duration <= 0.0:
                return prob
            # Replay the scorer's walk over the recorded history, feeding it
            # the chunk results the real call just produced. The replay must
            # use every one of them and land on the same product, so a
            # scorer that changes shape fails here instead of mis-counting.
            frame = reception.frame
            kernel = kernels[id(error_model), id(frame.rate)]
            bits_per_second = 8.0 * frame.size_bytes / duration
            edges = reception._times + [reception.end]
            visited = resolved = wanted = 0
            walk = 1.0
            for idx, level_mw in enumerate(reception._interference):
                seg = edges[idx + 1] - edges[idx]
                if seg <= 0.0:
                    continue
                visited += 1
                ratio = reception._signal_mw / (level_mw + noise_mw)
                bits = bits_per_second * seg
                if ratio >= kernel.ratio_one and bits <= kernel.bits_safe:
                    resolved += 1
                elif ratio <= kernel.ratio_zero and bits > 0.0:
                    resolved += 1
                    walk = 0.0
                else:
                    if wanted < len(evals):
                        walk *= evals[wanted]
                    wanted += 1
                if walk == 0.0:
                    break
            if wanted != len(evals) or walk != prob:
                raise AssertionError(
                    "audit walk diverged from success_probability: wanted "
                    f"{wanted} chunk results, the scorer made {len(evals)}; "
                    f"product {walk!r} vs {prob!r}"
                )
            c["receptions"] += 1
            c["single_interval"] += len(reception._times) == 1
            c["intervals"] += visited
            c["bound_resolved"] += resolved
            c["chunk_evals"] += wanted
            return prob

        return success_probability

    def counting_change(original):
        def interference_changed(reception, now, interference_mw):
            counter = START_EDGES.get(sys._getframe(1).f_code.co_name)
            if counter is not None:
                c[counter] += 1
            original(reception, now, interference_mw)

        return interference_changed

    def counting_resum(original):
        def interference_mw(radio, excluding_uid=None):
            if (
                excluding_uid is not None
                and sys._getframe(1).f_code.co_name in START_EDGES
            ):
                c["fold_misses"] += 1
            return original(radio, excluding_uid)

        return interference_mw

    def run_edge(radio, tx, entry, full, start):
        """Run one fan-out edge and classify it for the edge census."""
        sync = radio._sync
        idle_full = full and start and radio._state is RadioState.IDLE
        scored = sync is not None and sync.scored
        own_end = not start and sync is not None and sync.transmission is tx
        sensed = tx.uid in radio._sensed  # an end's entry sensed iff present
        entry(tx)
        if start:
            sensed = tx.uid in radio._sensed
        c["edges"] += 1
        c["edges_idle_full"] += idle_full
        c["edges_sensing"] += sensed
        c["edges_scored_sync"] += scored
        if not (idle_full or sensed or scored):
            c["edges_bookkeeping"] += 1
            c["edges_inert"] += not (full and start) and not own_end

    def counting_bind(original):
        def bind_start_entry(radio, tx_node, rss_dbm):
            entry = original(radio, tx_node, rss_dbm)
            stats = radio.stats

            def on_frame_start(tx):
                sync = radio._sync
                busy_rx = stats.sync_missed_busy_rx
                run_edge(radio, tx, entry, True, True)
                if stats.sync_missed_busy_rx != busy_rx and sync.scored:
                    c["scored_busy_rx"] += 1

            return on_frame_start

        return bind_start_entry

    def counting_end_bind(original, full):
        def bind_end(radio):
            entry = original(radio)
            return lambda tx: run_edge(radio, tx, entry, full, False)

        return bind_end

    # Energy-only starts that find a scored reception and a radio not
    # transmitting: each pushes exactly one update. Kept out of ``c`` so the
    # report is unchanged.
    scored_energy = 0

    def counting_energy_bind(original):
        def bind_interference_start_entry(radio, rss_dbm, rss_mw):
            entry = original(radio, rss_dbm, rss_mw)

            def on_interference_start(tx):
                nonlocal scored_energy
                sync = radio._sync
                if sync is not None and not radio.is_transmitting and sync.scored:
                    scored_energy += 1
                run_edge(radio, tx, entry, False, True)

            return on_interference_start

        return bind_interference_start_entry

    def counting_fanout(original):
        def deliver_fanout_inline(sim, start_fns, tx):
            inline = original(sim, start_fns, tx)
            c["batches_inline" if inline else "batches_heap"] += 1
            c["edges_delivered"] += len(start_fns) if inline else 0
            return inline

        return deliver_fanout_inline

    def counting_delivery(original):
        def deliver(medium, *args):
            c["edges_delivered"] += len(args[-1])  # the batch's callbacks
            return original(medium, *args)

        return deliver

    def collecting_init(original):
        def __init__(radio, *args, **kwargs):
            original(radio, *args, **kwargs)
            radios.append(radio)

        return __init__

    with ExitStack() as stack:
        for cls, name, wrapper in (
            (ErrorModel, "chunk_kernel", counting_chunk_kernel),
            (NistErrorModel, "chunk_kernel", counting_chunk_kernel),
            (Reception, "success_probability", counting_score),
            (Reception, "interference_changed", counting_change),
            (Radio, "interference_mw", counting_resum),
            (Radio, "bind_start_entry", counting_bind),
            (Radio, "bind_interference_start_entry", counting_energy_bind),
            (Radio, "bind_end_entry", lambda f: counting_end_bind(f, True)),
            (
                Radio,
                "bind_interference_end_entry",
                lambda f: counting_end_bind(f, False),
            ),
            (Radio, "__init__", collecting_init),
            (Simulator, "deliver_fanout_inline", counting_fanout),
            (Medium, "_deliver_starts", counting_delivery),
            (Medium, "_deliver_ends", counting_delivery),
        ):
            wrapped = wrapper(cls.__dict__[name])
            stack.enter_context(mock.patch.object(cls, name, wrapped))
        for trial in trials:
            run_trial(testbed, trial)
    if c["edges"] != c["edges_delivered"]:
        raise AssertionError(
            f"the edge census classified {c['edges']} fan-out edges but the "
            f"medium and engine delivered {c['edges_delivered']}"
        )
    if c["fold_queries_frame"] != c["scored_busy_rx"]:
        raise AssertionError(
            f"{c['fold_queries_frame']} frame-start updates reached a reception "
            f"but {c['scored_busy_rx']} starts found a scored one busy"
        )
    if c["fold_queries_energy"] != scored_energy:
        raise AssertionError(
            f"{c['fold_queries_energy']} energy-only start updates reached a "
            f"reception but {scored_energy} starts found a scored one"
        )
    for key in ("delivered_ok", "delivered_corrupt", "delivered_unscored"):
        c[key] = sum(getattr(r.stats, key) for r in radios)
    return c


def link_census(seed: int) -> dict:
    """Build ``Testbed(seed).links`` under a ``FadeQuadrature.total``
    wrapper; return the per-point counts and the resolved share."""
    c = dict.fromkeys(
        (
            "links",
            "points",
            "skipped",
            "resolved_one",
            "evaluated",
            "evaluated_zero",
            "evaluated_one",
        ),
        0,
    )
    original = FadeQuadrature.__dict__["total"]

    def total(quad, sinr_db, rate, size_bytes, error_model):
        kernel = frame_kernel(error_model, rate)
        bits = 8.0 * size_bytes
        # Replay the classification: the skipped prefix, then per point.
        offsets = quad.offsets
        skipped = 0
        if bits > 0.0:
            while (
                skipped < len(offsets)
                and sinr_db + offsets[skipped] <= kernel.sinr_zero_db
            ):
                skipped += 1
        one = kernel.sinr_one_db if 0.0 <= bits <= kernel.bits_safe else math.inf
        ones = sum(1 for x in offsets[skipped:] if sinr_db + x >= one)
        chunk, results = kernel.chunk, []

        def counted(s, b):
            p = chunk(s, b)
            results.append(p)
            return p

        kernel.chunk = counted
        try:
            value = original(quad, sinr_db, rate, size_bytes, error_model)
        finally:
            kernel.chunk = chunk
        if len(results) != len(offsets) - skipped - ones:
            raise AssertionError(
                f"FadeQuadrature.total made {len(results)} chunk calls; the "
                f"replay expected {len(offsets) - skipped - ones}"
            )
        c["links"] += 1
        c["points"] += len(offsets)
        c["skipped"] += skipped
        c["resolved_one"] += ones
        c["evaluated"] += len(results)
        c["evaluated_zero"] += results.count(0.0)
        c["evaluated_one"] += results.count(1.0)
        return value

    with mock.patch.object(FadeQuadrature, "total", total):
        Testbed(seed).links
    c["resolved_share"] = _share(c["skipped"] + c["resolved_one"], c["points"])
    return c


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def summarise(c: dict) -> dict:
    """The raw counts plus the rates the report prints."""
    fold_queries = c["fold_queries_frame"] + c["fold_queries_energy"]
    batches = c["batches_inline"] + c["batches_heap"]
    scored = c["bound_resolved"] + c["chunk_evals"]
    completed = c["delivered_ok"] + c["delivered_corrupt"] + c["delivered_unscored"]
    return {
        "counts": c,
        "completed_receptions": completed,
        "unscored_share": _share(c["delivered_unscored"], completed),
        "intervals_per_reception": _share(c["intervals"], c["receptions"]),
        "single_interval_share": _share(c["single_interval"], c["receptions"]),
        "bound_resolved_share": _share(c["bound_resolved"], scored),
        "exclusion_fold_hit_share": _share(
            fold_queries - c["fold_misses"], fold_queries
        ),
        "inline_batch_share": _share(c["batches_inline"], batches),
        "bookkeeping_edge_share": _share(c["edges_bookkeeping"], c["edges"]),
        "inert_edge_share": _share(c["edges_inert"], c["edges"]),
    }


#: report column -> the summary key rule 5 judges it by.
MECHANISMS = {
    "scored receptions": "unscored_share",
    "saturation bounds": "bound_resolved_share",
    "single-interval path": "single_interval_share",
    "exclusion fold": "exclusion_fold_hit_share",
    "inline fan-out": "inline_batch_share",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument(
        "--workloads",
        default=",".join(workloads.SIM_WORKLOADS + (N400,)),
        help="comma-separated subset (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    report = {}
    for name in args.workloads.split(","):
        testbed, trials = build(name, args.seed)
        report[name] = summarise(census(testbed, trials))
        report[name]["trials"] = len(trials)

    links = link_census(workloads.WORLD_SEED)

    ruler = [name for name in report if name != N400]
    verdicts = {
        label: max((report[name][key] for name in ruler), default=0.0)
        for label, key in MECHANISMS.items()
    }
    if args.json:
        payload = {
            "seed": args.seed,
            "workloads": report,
            "links": links,
            "best_on_a_ruler_workload": verdicts,
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, row in report.items():
            c = row["counts"]
            print(f"== {name} (seed {args.seed}, {row['trials']} trials)")
            print(
                f"  scored:  {c['delivered_unscored']} of "
                f"{row['completed_receptions']} completed receptions "
                f"unscored ({row['unscored_share']:.1%})"
            )
            print(
                f"  scorer:  {c['receptions']} receptions, "
                f"{row['intervals_per_reception']:.2f} intervals each, "
                f"{row['single_interval_share']:.1%} single-interval; "
                f"{c['bound_resolved']} intervals bound-resolved vs "
                f"{c['chunk_evals']} chunk evaluations "
                f"({row['bound_resolved_share']:.1%} resolved)"
            )
            print(
                f"  fold:    {c['fold_queries_frame']} frame + "
                f"{c['fold_queries_energy']} energy-only start updates at a "
                f"scored reception (cross-check: {c['scored_busy_rx']} "
                f"scored busy-RX starts), "
                f"{c['fold_misses']} re-sums "
                f"({row['exclusion_fold_hit_share']:.1%} served by the fold)"
            )
            print(
                f"  fan-out: {c['batches_inline']} start batches inline, "
                f"{c['batches_heap']} round the heap "
                f"({row['inline_batch_share']:.1%} inline)"
            )
            print(
                f"  edges:   {c['edges']} fan-out edges (cross-check: "
                f"{c['edges_delivered']} delivered); {c['edges_idle_full']} "
                f"full at an idle radio, {c['edges_sensing']} sensing, "
                f"{c['edges_scored_sync']} at a scored sync; "
                f"{c['edges_bookkeeping']} bookkeeping-only "
                f"({row['bookkeeping_edge_share']:.1%}), {c['edges_inert']} "
                f"of them inert ({row['inert_edge_share']:.1%})"
            )
        print(
            f"links:   Testbed({workloads.WORLD_SEED}), {links['links']} links, "
            f"{links['points']} quadrature points: {links['skipped']} skipped "
            f"by the bisection, {links['resolved_one']} resolved to 1.0, "
            f"{links['evaluated']} evaluated ({links['evaluated_zero']} of "
            f"them exactly 0.0, {links['evaluated_one']} exactly 1.0); "
            f"{links['resolved_share']:.1%} resolved without the closure"
        )
        for label, best in verdicts.items():
            print(f"best on a ruler workload: {label} {best:.1%}")
    # Rule 5: a kept mechanism reads >= 5 % on at least one ruler workload.
    losers = [label for label, best in verdicts.items() if ruler and best < FLOOR]
    for label in losers:
        print(f"under {FLOOR:.0%} on every ruler workload: {label}", file=sys.stderr)
    return 1 if losers else 0


if __name__ == "__main__":
    sys.exit(main())
