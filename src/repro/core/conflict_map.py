"""The conflict map: interferer lists, defer tables, ongoing list (§3.1–3.2).

Notation follows the paper. At receiver ``v`` the interferer list ``I_v``
holds pairs ``(u, x)``: "x -> * conflicts with u -> v". Senders fold received
lists into *defer tables* with two entry shapes:

* ``(v : x -> *)`` — rule 1 at ``u``: when I send to v, defer to any
  transmission by x;
* ``(* : q -> r)`` — rule 2 at ``x``: defer to the specific transmission
  q -> r whatever my destination, because I interfere at r.

Before transmitting, a node matches every ongoing transmission ``p -> q``
against defer patterns ``(* : p -> q)`` and ``(v : p -> *)``.

With the optional rate-aware extension (§3.5), entries are additionally keyed
by (my rate, interferer's rate) so that e.g. a conflict observed at 18 Mb/s
does not force deferral for a more robust 6 Mb/s transmission.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

#: Wildcard marker in defer-table entries and patterns.
ANY = -2


@dataclass(frozen=True)
class OngoingEntry:
    """One transmission currently believed to be on the air."""

    src: int
    dst: int
    end_time: float
    rate_mbps: int = 6


class OngoingList:
    """Transmissions a node has overheard and believes are in progress (§3.2).

    Populated from virtual-packet headers (which carry the burst duration)
    and trailers (which mark the end); entries expire on their own when the
    announced transmission time passes.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], OngoingEntry] = {}

    def note_header(
        self, src: int, dst: int, end_time: float, rate_mbps: int = 6
    ) -> None:
        self._entries[(src, dst)] = OngoingEntry(src, dst, end_time, rate_mbps)

    def note_trailer(self, src: int, dst: int, now: float) -> None:
        """A trailer means the burst just finished: drop that entry, O(1).

        Expired *other* entries are left for :meth:`active` (delete-before-
        read, so decisions never see them) or the MAC's periodic
        :meth:`sweep` — trailers used to drive an O(n) opportunistic sweep
        here, on every overheard trailer; batching it behind the periodic
        timer removes that per-event scan. In a dynamic world the sweep
        timer is now the memory-bound heartbeat (a node that moved out of
        range of everyone it was tracking still sweeps).
        """
        self._entries.pop((src, dst), None)

    def active(self, now: float) -> List[OngoingEntry]:
        """Live entries; expired ones are dropped as a side effect."""
        dead = [k for k, e in self._entries.items() if e.end_time <= now]
        for k in dead:
            del self._entries[k]
        return list(self._entries.values())

    def sweep(self, now: float) -> int:
        """Drop every expired entry (the periodic batched sweep)."""
        dead = [k for k, e in self._entries.items() if e.end_time <= now]
        for k in dead:
            del self._entries[k]
        return len(dead)

    def busy_with(self, node: int, now: float) -> Optional[OngoingEntry]:
        """The entry showing ``node`` as sender or receiver, if any."""
        for entry in self.active(now):
            if node in (entry.src, entry.dst):
                return entry
        return None

    def latest_end(self, now: float) -> float:
        entries = self.active(now)
        return max((e.end_time for e in entries), default=now)


@dataclass(frozen=True)
class InterfererEntry:
    """One interferer-list item ``(source u, interferer x)`` at a receiver.

    ``loss_rate`` carries the measured conditional loss rate when the list
    is exported with rates (the §3.6 anypath augmentation); plain CMAP lists
    leave it at the conservative default.
    """

    source: int
    interferer: int
    source_rate_mbps: int = 6
    interferer_rate_mbps: int = 6
    loss_rate: float = 1.0


class _PairLossStats:
    """Sliding-window loss statistics for one (source, interferer) pair."""

    __slots__ = ("samples", "last_time")

    def __init__(self) -> None:
        #: (time, lost_packets, total_packets) per observed virtual packet.
        self.samples: Deque[Tuple[float, int, int]] = deque()
        #: When the pair was last observed — survives window expiry of the
        #: samples themselves, so staleness pruning is judged against the
        #: horizon alone.
        self.last_time: float = float("-inf")

    def record(self, now: float, lost: int, total: int) -> None:
        self.samples.append((now, lost, total))
        self.last_time = now

    def expire(self, now: float, horizon: float) -> None:
        while self.samples and self.samples[0][0] < now - horizon:
            self.samples.popleft()

    def loss_rate(self, now: float, horizon: float) -> Tuple[float, int]:
        """(loss rate, sample count) over the horizon."""
        self.expire(now, horizon)
        lost = sum(s[1] for s in self.samples)
        total = sum(s[2] for s in self.samples)
        if total == 0:
            return 0.0, 0
        return lost / total, total


class InterfererList:
    """Receiver-side interferer list ``I_v`` with online loss accounting.

    The receiver records, for every virtual packet it (partially) receives
    and every foreign transmission that overlapped it, how many packets were
    lost out of how many expected. A pair graduates into the broadcast list
    when its conditional loss rate over a sliding window exceeds
    ``l_interf`` with at least ``min_samples`` packets of evidence — the
    paper's "threshold loss rate, not just a single packet loss" rule.
    """

    def __init__(
        self,
        l_interf: float = 0.5,
        min_samples: int = 16,
        window_s: float = 4.0,
        entry_timeout: float = 10.0,
        rate_aware: bool = False,
    ):
        self.l_interf = l_interf
        self.min_samples = min_samples
        self.window_s = window_s
        self.entry_timeout = entry_timeout
        self.rate_aware = rate_aware
        self._stats: Dict[Tuple, _PairLossStats] = {}
        #: (source, interferer[, rates]) -> last time the loss test passed.
        self._active: Dict[Tuple, float] = {}

    def _key(self, source: int, interferer: int, src_rate: int, int_rate: int):
        if self.rate_aware:
            return (source, interferer, src_rate, int_rate)
        return (source, interferer)

    def record_vpkt(
        self,
        now: float,
        source: int,
        interferer: int,
        lost: int,
        total: int,
        source_rate_mbps: int = 6,
        interferer_rate_mbps: int = 6,
    ) -> None:
        """Account one virtual packet from ``source`` overlapped by ``interferer``."""
        if total <= 0:
            return
        key = self._key(source, interferer, source_rate_mbps, interferer_rate_mbps)
        stats = self._stats.setdefault(key, _PairLossStats())
        stats.record(now, lost, total)
        rate, samples = stats.loss_rate(now, self.window_s)
        if samples >= self.min_samples and rate > self.l_interf:
            self._active[key] = now

    def entries(self, now: float) -> List[InterfererEntry]:
        """Current list to broadcast; stale entries age out."""
        dead = [
            k for k, t in self._active.items() if t < now - self.entry_timeout
        ]
        for k in dead:
            del self._active[k]
        out = []
        for key in self._active:
            rate, _ = (
                self._stats[key].loss_rate(now, self.window_s)
                if key in self._stats
                else (1.0, 0)
            )
            if self.rate_aware:
                source, interferer, sr, ir = key
                out.append(InterfererEntry(source, interferer, sr, ir, rate))
            else:
                source, interferer = key
                out.append(InterfererEntry(source, interferer, loss_rate=rate))
        return out

    def rated_entries(self, now: float) -> List[InterfererEntry]:
        """All measured pairs with their conditional loss rates (§3.6).

        Unlike :meth:`entries`, this includes pairs *below* the conflict
        threshold — an anypath sender needs delivery probabilities, not just
        the conflict verdicts.
        """
        out = []
        for key, stats in self._stats.items():
            rate, samples = stats.loss_rate(now, self.window_s)
            if samples < self.min_samples:
                continue
            if self.rate_aware:
                source, interferer, sr, ir = key
                out.append(InterfererEntry(source, interferer, sr, ir, rate))
            else:
                source, interferer = key
                out.append(InterfererEntry(source, interferer, loss_rate=rate))
        return out

    def prune(self, now: float, staleness_horizon: float) -> int:
        """Drop loss statistics for pairs silent past ``staleness_horizon``.

        The sliding ``window_s`` already excludes old samples from the loss
        *rate*; this removes the bookkeeping itself, so a pair whose
        geometry changed (interferer walked away, node churned out) ages out
        of memory entirely instead of accumulating forever. A pair re-forms
        from scratch when fresh overlapping bursts are observed again
        (section 3.4 adaptation). Returns the number of pairs dropped.

        Behaviour-neutral where it matters: a pruned pair had no in-window
        samples, so :meth:`rated_entries` already ignored it, and its active
        entry (if any) is dropped with it — :meth:`entries` must never fall
        back to the evidence-free loss rate for a pair whose statistics the
        horizon discarded.
        """
        # Never prune inside the loss window: the rate must keep seeing every
        # sample it would have seen, whatever horizon the caller picked.
        cutoff = now - max(staleness_horizon, self.window_s)
        dead = [
            key
            for key, stats in self._stats.items()
            if stats.last_time < cutoff
        ]
        for key in dead:
            del self._stats[key]
            self._active.pop(key, None)
        return len(dead)

    def conditional_loss_rate(
        self, now: float, source: int, interferer: int,
        source_rate_mbps: int = 6, interferer_rate_mbps: int = 6,
    ) -> Tuple[float, int]:
        """Expose the raw statistic (tests, diagnostics)."""
        key = self._key(source, interferer, source_rate_mbps, interferer_rate_mbps)
        stats = self._stats.get(key)
        if stats is None:
            return 0.0, 0
        return stats.loss_rate(now, self.window_s)


@dataclass(frozen=True)
class DeferEntry:
    """One defer-table entry ``(dst : src -> rx)`` with ANY wildcards."""

    dst: int  # my destination this applies to, or ANY
    tx_src: int  # the interfering transmission's sender
    tx_dst: int  # the interfering transmission's receiver, or ANY
    my_rate_mbps: int = ANY
    their_rate_mbps: int = ANY


class DeferTable:
    """Sender-side defer table built from received interferer lists (§3.1).

    Update rules, applied at node ``P`` on receiving ``I_r`` from ``r``:

    * rule 1: for every ``(P, q)`` in ``I_r`` add ``(r : q -> *)``;
    * rule 2: for every ``(q, P)`` in ``I_r`` add ``(* : q -> r)``.
    """

    def __init__(self, entry_timeout: float = 10.0, rate_aware: bool = False):
        self.entry_timeout = entry_timeout
        self.rate_aware = rate_aware
        self._entries: Dict[DeferEntry, float] = {}

    def update_from_interferer_list(
        self,
        me: int,
        reporter: int,
        entries: Iterable[InterfererEntry],
        now: float,
    ) -> int:
        """Fold one received interferer list in; returns #entries added/refreshed."""
        count = 0
        for item in entries:
            my_rate = item.source_rate_mbps if self.rate_aware else ANY
            their_rate = item.interferer_rate_mbps if self.rate_aware else ANY
            if item.source == me:
                # Rule 1: transmissions by item.interferer hurt me->reporter.
                self._entries[
                    DeferEntry(reporter, item.interferer, ANY, my_rate, their_rate)
                ] = now
                count += 1
            if item.interferer == me:
                # Rule 2: I hurt item.source->reporter whatever my destination.
                self._entries[
                    DeferEntry(ANY, item.source, reporter, their_rate, my_rate)
                ] = now
                count += 1
        return count

    def _expire(self, now: float) -> None:
        dead = [e for e, t in self._entries.items() if t < now - self.entry_timeout]
        for e in dead:
            del self._entries[e]

    def sweep(self, now: float) -> int:
        """Drop every timed-out entry (the periodic batched sweep)."""
        before = len(self._entries)
        self._expire(now)
        return before - len(self._entries)

    def should_defer(
        self,
        now: float,
        my_dst: int,
        ongoing_src: int,
        ongoing_dst: int,
        my_rate_mbps: int = 6,
        their_rate_mbps: int = 6,
    ) -> bool:
        """Match an ongoing transmission against both defer patterns (§3.2).

        Timed-out entries are *skipped* inline rather than deleted — this is
        the per-decision hot path, and the old delete-before-match pass
        rebuilt a dead-list on every call. Deletion is batched behind the
        MAC's periodic :meth:`sweep`; the verdict is identical either way
        because an entry past ``entry_timeout`` never matches.
        """
        cutoff = now - self.entry_timeout
        for entry, stamp in self._entries.items():
            if stamp < cutoff:
                continue
            if entry.tx_src != ongoing_src:
                continue
            if entry.tx_dst not in (ANY, ongoing_dst):
                continue
            if entry.dst not in (ANY, my_dst):
                continue
            if self.rate_aware:
                if entry.my_rate_mbps not in (ANY, my_rate_mbps):
                    continue
                if entry.their_rate_mbps not in (ANY, their_rate_mbps):
                    continue
            return True
        return False

    def entries(self, now: float) -> List[DeferEntry]:
        self._expire(now)
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
