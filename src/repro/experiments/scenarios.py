"""Scenario selection: the topology constraints of Fig. 11 and §5.6–5.7.

Each finder enumerates node tuples from a testbed's link table that satisfy
the paper's constraints, then samples the requested number uniformly with a
seeded RNG — the analogue of the paper choosing "50 configurations at random
from all possible configurations".

Fig. 11's constraint vocabulary (all defined in §5.1, implemented by
:class:`repro.net.links.LinkTable`, and read here through its per-node
predicate index, :meth:`~repro.net.links.LinkTable.neighbours`):

* *potential transmission link*: PRR > 0.9 both ways, signal above the 10th
  percentile — the only links data flows use;
* *in range*: PRR > 0.2 both ways, signal above the 10th percentile;
* *not in range*: PRR < 0.2 both ways;
* *strong signal*: at/above the 90th percentile network-wide;
* *weak signal*: below the 90th percentile.

Each finder enumerates its candidates from the index in exactly the order
a scan of ``itertools.permutations`` / ``combinations`` over the node ids
or the links, testing the predicates, would visit them: it only skips
candidates that scan would reject. So ``_sample`` draws the same
configurations from the same candidate list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.net.links import LinkTable
from repro.net.testbed import Testbed


class ScenarioError(RuntimeError):
    """Raised when a testbed cannot supply a requested scenario."""


@dataclass(frozen=True)
class PairConfig:
    """Two sender->receiver pairs: (s1 -> r1) and (s2 -> r2)."""

    s1: int
    r1: int
    s2: int
    r2: int

    @property
    def nodes(self) -> Tuple[int, int, int, int]:
        return (self.s1, self.r1, self.s2, self.r2)

    @property
    def senders(self) -> Tuple[int, int]:
        return (self.s1, self.s2)

    @property
    def flows(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        return ((self.s1, self.r1), (self.s2, self.r2))


def _sample(items: List, count: int, rng: np.random.Generator) -> List:
    if not items:
        raise ScenarioError("no configurations satisfy the constraints")
    if count >= len(items):
        return list(items)
    idx = rng.choice(len(items), size=count, replace=False)
    return [items[i] for i in sorted(idx)]


def _potential_tx_links(links: LinkTable) -> List[Tuple[int, int]]:
    """Every potential transmission link, in ``permutations(ids, 2)`` order."""
    return [(a, b) for a in links.node_ids for b in links.neighbours(a).tx]


#: A candidate configuration ``(s1, r1, s2, r2)``: a plain tuple, so the
#: tens of thousands a search lists cost little; only the sampled ones
#: become :class:`PairConfig` objects.
Candidate = Tuple[int, int, int, int]


def _sample_configs(
    candidates: Iterator[Candidate],
    max_candidates: int,
    count: int,
    rng: np.random.Generator,
) -> List[PairConfig]:
    items = list(itertools.islice(candidates, max_candidates))
    return [PairConfig(*c) for c in _sample(items, count, rng)]


# ----------------------------------------------------------------------
# Fig. 11(a): exposed terminals (§5.2)
# ----------------------------------------------------------------------
def _exposed_candidates(links: LinkTable) -> Iterator[Candidate]:
    """In the order of ``permutations(strong potential-tx links, 2)``: the
    links are grouped by sender in node order, so the second link runs over
    the in-range senders ``s2`` (node order), then their strong links."""
    strong_tx = {}
    for a in links.node_ids:
        row = links.neighbours(a)
        strong_tx[a] = [b for b in row.tx if b in row.strong]
    for s1 in links.node_ids:
        n_s1 = links.neighbours(s1)
        for r1 in strong_tx[s1]:
            n_r1 = links.neighbours(r1)
            for s2 in n_s1.in_range:
                n_s2 = links.neighbours(s2)
                # Weak: s1 -> s2, s2 -> s1, s2 -> r1, r1 -> s2.
                if (
                    s2 == r1
                    or s2 not in n_s1.weak
                    or s1 not in n_s2.weak
                    or r1 not in n_s2.weak
                    or s2 not in n_r1.weak
                ):
                    continue
                for r2 in strong_tx[s2]:
                    if r2 == s1 or r2 == r1:
                        continue
                    # Weak: s1 -> r2, r1 -> r2, r2 -> r1, r2 -> s1.
                    n_r2 = links.neighbours(r2)
                    if (
                        r2 in n_s1.weak
                        and r2 in n_r1.weak
                        and r1 in n_r2.weak
                        and s1 in n_r2.weak
                    ):
                        yield s1, r1, s2, r2


def find_exposed_terminal_configs(
    testbed: Testbed,
    count: int,
    seed: int = 0,
    max_candidates: int = 200_000,
) -> List[PairConfig]:
    """Configurations satisfying Fig. 11(a):

    (i) senders in range of each other; (ii) each pair a potential
    transmission link; (iii) sender->its receiver strong (90th pct);
    (iv) every other inter-node signal weak (below 90th pct).
    """
    rng = testbed.rngs.fork("scenario", "exposed", seed).stream("sample")
    return _sample_configs(
        _exposed_candidates(testbed.links), max_candidates, count, rng
    )


# ----------------------------------------------------------------------
# Fig. 11(b): two senders in range, unconstrained cross links (§5.3)
# ----------------------------------------------------------------------
def _inrange_candidates(links: LinkTable) -> Iterator[Candidate]:
    """In the order of ``permutations(_potential_tx_links(links), 2)``
    (grouped by sender, as in :func:`_exposed_candidates`)."""
    for s1, r1 in _potential_tx_links(links):
        for s2 in links.neighbours(s1).in_range:
            if s2 == r1:
                continue
            for r2 in links.neighbours(s2).tx:
                if r2 != s1 and r2 != r1:
                    yield s1, r1, s2, r2


def find_inrange_configs(
    testbed: Testbed,
    count: int,
    seed: int = 0,
    max_candidates: int = 200_000,
) -> List[PairConfig]:
    """Configurations satisfying Fig. 11(b): senders in range, both pairs
    potential transmission links, no further constraints (some will be
    exposed terminals, some will conflict)."""
    rng = testbed.rngs.fork("scenario", "inrange", seed).stream("sample")
    return _sample_configs(
        _inrange_candidates(testbed.links), max_candidates, count, rng
    )


# ----------------------------------------------------------------------
# Fig. 11(c): hidden terminals (§5.5)
# ----------------------------------------------------------------------
def _hidden_candidates(links: LinkTable) -> Iterator[Candidate]:
    """In the order of ``combinations(ids, 2)`` for the out-of-range
    senders, then ``permutations(ids, 2)`` for the receivers, which must be
    potential-tx neighbours of both senders."""
    position = {n: i for i, n in enumerate(links.node_ids)}
    for s1 in links.node_ids:
        n_s1 = links.neighbours(s1)
        for s2 in n_s1.out_of_range:
            if position[s2] < position[s1]:
                continue
            tx_s2 = links.neighbours(s2).tx_set
            common = [r for r in n_s1.tx if r in tx_s2]
            for r1, r2 in itertools.permutations(common, 2):
                yield s1, r1, s2, r2


def find_hidden_terminal_configs(
    testbed: Testbed,
    count: int,
    seed: int = 0,
    max_candidates: int = 200_000,
) -> List[PairConfig]:
    """Configurations satisfying Fig. 11(c): each receiver has a potential
    transmission link to *both* senders (so transmissions almost always
    interfere at the receivers) while the senders are not in range of each
    other (so they cannot defer)."""
    rng = testbed.rngs.fork("scenario", "hidden", seed).stream("sample")
    return _sample_configs(
        _hidden_candidates(testbed.links), max_candidates, count, rng
    )



def prr_at_rate(testbed: Testbed, a: int, b: int, mbps: int,
                probe_size_bytes: int = 1428) -> float:
    """Isolated analytic PRR of the link a->b at an arbitrary bit-rate.

    The link table is built at the base rate (the paper measures link
    quality at 6 Mb/s, §5.1); multi-rate experiments need the same channel
    re-evaluated against a higher rate's SINR requirement.
    """
    from repro.phy.modulation import RATES

    return testbed.fading.mean_prr(
        testbed.rss.rss(a, b),
        testbed.config.noise_dbm,
        RATES[mbps],
        probe_size_bytes,
        testbed.error_model,
        a,
        b,
    )


def filter_configs_by_rate(
    testbed: Testbed,
    configs: List[PairConfig],
    mbps: int,
    min_prr: float = 0.9,
) -> List[PairConfig]:
    """Keep only configs whose two data links still work at ``mbps``."""
    return [
        c
        for c in configs
        if prr_at_rate(testbed, c.s1, c.r1, mbps) > min_prr
        and prr_at_rate(testbed, c.s2, c.r2, mbps) > min_prr
    ]


# ----------------------------------------------------------------------
# §5.4: hidden-interferer triples (Fig. 14)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InterfererTriple:
    """A sender->receiver pair plus a randomly chosen interferer."""

    sender: int
    receiver: int
    interferer: int
    interferer_receiver: int


def find_hidden_interferer_triples(
    testbed: Testbed,
    count: int,
    seed: int = 0,
) -> List[InterfererTriple]:
    """§5.4's sampling: a random potential transmission link (S, R) and an
    interferer I chosen uniformly from all other nodes; I blasts to a
    receiver of its own (any node in range, else broadcast-style neighbour).
    """
    links = testbed.links
    tx_links = _potential_tx_links(links)
    if not tx_links:
        raise ScenarioError("testbed has no potential transmission links")
    rng = testbed.rngs.fork("scenario", "interferer", seed).stream("sample")
    triples: List[InterfererTriple] = []
    ids = links.node_ids
    attempts = 0
    while len(triples) < count and attempts < 100 * count:
        attempts += 1
        s, r = tx_links[int(rng.integers(0, len(tx_links)))]
        i = ids[int(rng.integers(0, len(ids)))]
        if i in (s, r):
            continue
        # The interferer needs somewhere to send its packets; prefer a
        # potential-tx neighbour, else its best-PRR neighbour.
        partners = [b for b in links.neighbours(i).tx if b not in (s, r)]
        if partners:
            ir = partners[int(rng.integers(0, len(partners)))]
        else:
            ir = max(
                (b for b in ids if b not in (s, r, i)),
                key=lambda b: links.prr(i, b),
            )
        triples.append(InterfererTriple(s, r, i, ir))
    if len(triples) < count:
        raise ScenarioError("could not sample enough interferer triples")
    return triples


# ----------------------------------------------------------------------
# Dynamic world: mobility and churn scenarios
# ----------------------------------------------------------------------
def find_mobility_configs(
    testbed: Testbed,
    count: int,
    seed: int = 0,
    max_candidates: int = 200_000,
) -> List[PairConfig]:
    """Two-pair configurations for the mobility sweep.

    The *initial* geometry uses the Fig. 11(b) constraints (senders in
    range, both pairs potential transmission links) — the regime where the
    conflict map's verdicts matter most — sampled from a dedicated RNG fork
    so mobility experiments don't perturb (or depend on) the Fig. 13 draw.
    One sender then walks, carrying the configuration through conflicting
    and conflict-free geometries; the link census only describes time zero.
    """
    rng = testbed.rngs.fork("scenario", "mobility", seed).stream("sample")
    return _sample_configs(
        _inrange_candidates(testbed.links), max_candidates, count, rng
    )


def find_disjoint_flows(
    testbed: Testbed,
    n: int,
    count: int,
    seed: int = 0,
) -> List[Tuple[Tuple[int, int], ...]]:
    """Sample ``count`` sets of ``n`` node-disjoint potential-tx flows.

    The churn sweep's substrate: enough concurrent flows that one sender
    joining/leaving visibly re-shapes everyone else's conflict relations.
    """
    links = testbed.links
    tx_links = _potential_tx_links(links)
    if not tx_links:
        raise ScenarioError("testbed has no potential transmission links")
    rng = testbed.rngs.fork("scenario", "churn", seed).stream("sample")
    out: List[Tuple[Tuple[int, int], ...]] = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        flows: List[Tuple[int, int]] = []
        used: set = set()
        inner = 0
        while len(flows) < n and inner < 2000:
            inner += 1
            s, r = tx_links[int(rng.integers(0, len(tx_links)))]
            if s in used or r in used:
                continue
            flows.append((s, r))
            used.update((s, r))
        if len(flows) == n:
            out.append(tuple(flows))
    if len(out) < count:
        raise ScenarioError("could not sample enough disjoint flow sets")
    return out


# ----------------------------------------------------------------------
# §5.6: access-point topology
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApTopology:
    """One AP experiment instance: per-region AP and one client flow each.

    ``flows`` holds (sender, receiver) per cell — the paper randomly picks
    the AP or the client as the sender.
    """

    aps: Tuple[int, ...]
    flows: Tuple[Tuple[int, int], ...]

    @property
    def nodes(self) -> Tuple[int, ...]:
        out = []
        for s, r in self.flows:
            out.extend((s, r))
        return tuple(dict.fromkeys(out))

    @property
    def senders(self) -> Tuple[int, ...]:
        return tuple(s for s, _ in self.flows)


def find_ap_topology(
    testbed: Testbed,
    num_aps: int,
    trial_seed: int = 0,
    columns: int = 3,
    rows: int = 2,
) -> ApTopology:
    """§5.6: divide the floor into regions, one AP per region such that APs
    are mutually out of communication range; clients are region nodes with a
    potential transmission link to their AP; sender direction is random.

    ``trial_seed`` varies the client choice (the paper runs 10 trials per
    N with different clients each time). APs are chosen deterministically
    per testbed: for each region, the node that is out of range of the APs
    already picked and closest to the region centre.
    """
    links = testbed.links
    regions = testbed.regions(columns, rows)
    by_region = testbed.nodes_by_region(columns, rows)
    if num_aps > len(regions):
        raise ScenarioError(f"cannot place {num_aps} APs in {len(regions)} regions")

    # Use adjacent regions when fewer than all are needed (paper §5.6).
    chosen_regions = regions[:num_aps]
    aps: List[int] = []
    for region in chosen_regions:
        candidates = sorted(
            by_region[region.index],
            key=lambda n: (testbed.positions[n].x - region.center.x) ** 2
            + (testbed.positions[n].y - region.center.y) ** 2,
        )
        ap = None
        for cand in candidates:
            if all(links.out_of_range(cand, other) for other in aps):
                ap = cand
                break
        if ap is None:
            raise ScenarioError(
                f"no AP candidate out of range of the others in region {region.index}"
            )
        aps.append(ap)

    rng = testbed.rngs.fork("scenario", "ap", num_aps, trial_seed).stream("pick")
    flows: List[Tuple[int, int]] = []
    for region, ap in zip(chosen_regions, aps):
        clients = [
            n
            for n in by_region[region.index]
            if n not in aps and n in links.neighbours(ap).tx_set
        ]
        if not clients:
            raise ScenarioError(f"AP {ap} has no clients in region {region.index}")
        client = clients[int(rng.integers(0, len(clients)))]
        if rng.random() < 0.5:
            flows.append((ap, client))
        else:
            flows.append((client, ap))
    return ApTopology(tuple(aps), tuple(flows))


# ----------------------------------------------------------------------
# §5.7: two-hop content dissemination mesh
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeshTopology:
    """Fig. 11(d): source S, forwarders A_i, leaf receivers B_i."""

    source: int
    forwarders: Tuple[int, ...]
    leaves: Tuple[int, ...]

    @property
    def nodes(self) -> Tuple[int, ...]:
        return (self.source,) + self.forwarders + self.leaves


def find_mesh_topologies(
    testbed: Testbed,
    count: int,
    fanout: int = 3,
    seed: int = 0,
) -> List[MeshTopology]:
    """Sample §5.7 topologies: S with ``fanout`` potential-tx neighbours
    A_i, each with its own potential-tx leaf B_i (all nodes distinct).

    Content dissemination pushes data *outward*: per Fig. 11(d)'s geometry,
    each leaf B_i lies farther from the source than its forwarder A_i. That
    outward fan is what makes forwarders frequently exposed terminals with
    respect to each other during the A_i -> B_i transfers.
    """
    links = testbed.links
    positions = testbed.positions
    rng = testbed.rngs.fork("scenario", "mesh", seed).stream("sample")
    ids = links.node_ids
    out: List[MeshTopology] = []
    attempts = 0
    while len(out) < count and attempts < 300 * count:
        attempts += 1
        s = ids[int(rng.integers(0, len(ids)))]
        neighbours = links.neighbours(s).tx
        if len(neighbours) < fanout:
            continue
        picks = rng.choice(len(neighbours), size=fanout, replace=False)
        forwarders = [neighbours[i] for i in picks]
        used = {s, *forwarders}
        leaves: List[int] = []
        ok = True
        for a in forwarders:
            dist_sa = positions[s].distance_to(positions[a])
            cands = [
                b for b in links.neighbours(a).tx
                if b not in used
                and positions[s].distance_to(positions[b]) > dist_sa
            ]
            if not cands:
                ok = False
                break
            b = cands[int(rng.integers(0, len(cands)))]
            leaves.append(b)
            used.add(b)
        if ok:
            out.append(MeshTopology(s, tuple(forwarders), tuple(leaves)))
    if len(out) < count:
        raise ScenarioError("could not sample enough mesh topologies")
    return out
