"""Link measurement and classification (paper §5.1).

Before each experiment the paper measures, for every node pair, the isolated
packet reception rate (PRR) and average signal strength at 6 Mb/s, then
classifies:

* **in range**: both directions PRR > 0.2 and signal above the 10th
  percentile of all links network-wide;
* **potential transmission link**: both directions PRR > 0.9 and signal above
  the 10th percentile (the only links experiments send data over);
* signal-strength percentile bands (90th percentile = "strong") used by the
  exposed-terminal topology constraints (Fig. 11).

We compute isolated PRR analytically from the error model — in a simulator
the channel is known exactly, so Monte-Carlo link measurement would add noise
without adding information. In-run delivery remains stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.phy.modulation import ErrorModel, Rate, RATE_6M, isolated_prr
from repro.phy.propagation import RssMatrix


@dataclass(frozen=True)
class Neighbours:
    """One node's row of the §5.1 predicate index.

    The tuples list peers in ``LinkTable.node_ids`` order, so a scan over
    them visits candidates in the same order as a scan over all nodes that
    tests the predicate; the sets answer membership.
    """

    #: Peers ``b`` with ``potential_tx_link(a, b)``.
    tx: Tuple[int, ...]
    tx_set: FrozenSet[int]
    #: Peers ``b`` with ``in_range(a, b)``.
    in_range: Tuple[int, ...]
    #: Peers ``b`` with ``out_of_range(a, b)``.
    out_of_range: Tuple[int, ...]
    #: Peers ``b`` with ``strong_signal(a, b)`` / ``weak_signal(a, b)``.
    strong: FrozenSet[int]
    weak: FrozenSet[int]


@dataclass(frozen=True)
class LinkStats:
    """Measured (analytic) statistics of one directed link."""

    src: int
    dst: int
    rss_dbm: float
    prr: float


class LinkTable:
    """All-pairs link statistics plus the paper's classification predicates."""

    def __init__(
        self,
        node_ids: List[int],
        rss: RssMatrix,
        noise_dbm: float,
        error_model: ErrorModel,
        rate: Rate = RATE_6M,
        probe_size_bytes: int = 1428,
        connectivity_floor_prr: float = 1e-4,
        fading=None,
    ):
        self.node_ids = list(node_ids)
        self.rate = rate
        self.fading = fading
        self._stats: Dict[Tuple[int, int], LinkStats] = {}
        for a in self.node_ids:
            for b in self.node_ids:
                if a == b:
                    continue
                rss_dbm = rss.rss(a, b)
                if fading is not None:
                    prr = fading.mean_prr(
                        rss_dbm, noise_dbm, rate, probe_size_bytes,
                        error_model, a, b,
                    )
                else:
                    prr = isolated_prr(
                        rss_dbm, noise_dbm, rate, probe_size_bytes, error_model
                    )
                self._stats[(a, b)] = LinkStats(a, b, rss_dbm, prr)

        connected = [
            ls.rss_dbm
            for ls in self._stats.values()
            if ls.prr > connectivity_floor_prr
        ]
        #: 10th / 90th percentile of signal strength over connected links,
        #: the thresholds used throughout §5's topology constraints.
        self.signal_p10_dbm = (
            float(np.percentile(connected, 10)) if connected else -200.0
        )
        self.signal_p90_dbm = (
            float(np.percentile(connected, 90)) if connected else -200.0
        )
        self._connectivity_floor = connectivity_floor_prr
        self._index: Dict[int, Neighbours] = {}

    # ------------------------------------------------------------------
    # Raw accessors
    # ------------------------------------------------------------------
    def stats(self, src: int, dst: int) -> LinkStats:
        return self._stats[(src, dst)]

    def prr(self, src: int, dst: int) -> float:
        return self._stats[(src, dst)].prr

    def rss(self, src: int, dst: int) -> float:
        return self._stats[(src, dst)].rss_dbm

    def all_links(self) -> Iterable[LinkStats]:
        return self._stats.values()

    # ------------------------------------------------------------------
    # Paper §5.1 predicates
    # ------------------------------------------------------------------
    def has_connectivity(self, a: int, b: int) -> bool:
        """True if either direction delivers anything at all."""
        return (
            self.prr(a, b) > self._connectivity_floor
            or self.prr(b, a) > self._connectivity_floor
        )

    def in_range(self, a: int, b: int) -> bool:
        """Both directions PRR > 0.2 and signal above the 10th percentile."""
        return all(
            self.prr(x, y) > 0.2 and self.rss(x, y) > self.signal_p10_dbm
            for x, y in ((a, b), (b, a))
        )

    def out_of_range(self, a: int, b: int) -> bool:
        """PRR < 0.2 in both directions (Fig. 11(c) 'not in range')."""
        return self.prr(a, b) < 0.2 and self.prr(b, a) < 0.2

    def potential_tx_link(self, a: int, b: int) -> bool:
        """Both directions PRR > 0.9 and signal above the 10th percentile."""
        return all(
            self.prr(x, y) > 0.9 and self.rss(x, y) > self.signal_p10_dbm
            for x, y in ((a, b), (b, a))
        )

    def strong_signal(self, a: int, b: int) -> bool:
        """Signal a->b in the 90th percentile of all links network-wide."""
        return self.rss(a, b) >= self.signal_p90_dbm

    def weak_signal(self, a: int, b: int) -> bool:
        """Signal a->b below the 90th percentile threshold."""
        return self.rss(a, b) < self.signal_p90_dbm

    def neighbours(self, a: int) -> Neighbours:
        """Node ``a``'s row of the predicate index (built on first use).

        A row is the predicates above evaluated once from ``a`` to every
        other node, so a search that reads it sees exactly what calling
        them would return, without calling them per candidate.
        """
        row = self._index.get(a)
        if row is None:
            row = self._index[a] = self._index_row(a)
        return row

    def _index_row(self, a: int) -> Neighbours:
        peers = [b for b in self.node_ids if b != a]
        tx = tuple(b for b in peers if self.potential_tx_link(a, b))
        return Neighbours(
            tx=tx,
            tx_set=frozenset(tx),
            in_range=tuple(b for b in peers if self.in_range(a, b)),
            out_of_range=tuple(b for b in peers if self.out_of_range(a, b)),
            strong=frozenset(b for b in peers if self.strong_signal(a, b)),
            weak=frozenset(b for b in peers if self.weak_signal(a, b)),
        )

    # ------------------------------------------------------------------
    # Census (paper §5.1 testbed characterisation)
    # ------------------------------------------------------------------
    def census(self) -> "LinkCensus":
        """Summarise connectivity the way §5.1 characterises the testbed."""
        connected = [
            ls for ls in self._stats.values() if ls.prr > self._connectivity_floor
        ]
        dead = sum(1 for ls in connected if ls.prr < 0.1)
        mid = sum(1 for ls in connected if 0.1 <= ls.prr < 0.999)
        perfect = sum(1 for ls in connected if ls.prr >= 0.999)
        degree: Dict[int, int] = {n: 0 for n in self.node_ids}
        for ls in connected:
            if ls.prr >= 0.1:
                degree[ls.src] += 1
        degrees = sorted(degree.values())
        return LinkCensus(
            connected_pairs=len(connected),
            frac_prr_below_01=dead / len(connected) if connected else 0.0,
            frac_prr_mid=mid / len(connected) if connected else 0.0,
            frac_prr_perfect=perfect / len(connected) if connected else 0.0,
            mean_degree=float(np.mean(degrees)) if degrees else 0.0,
            median_degree=float(np.median(degrees)) if degrees else 0.0,
        )


@dataclass(frozen=True)
class LinkCensus:
    """Testbed connectivity summary, comparable to paper §5.1's numbers.

    Paper reports: 2162 connected pairs; 68 % PRR < 0.1; 12 % intermediate;
    20 % PRR = 1; mean degree 15.2; median 17.
    """

    connected_pairs: int
    frac_prr_below_01: float
    frac_prr_mid: float
    frac_prr_perfect: float
    mean_degree: float
    median_degree: float
