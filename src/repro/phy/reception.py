"""Per-frame reception bookkeeping under time-varying interference.

A radio that syncs to a frame its MAC reads records every change in aggregate
interference power during the frame's airtime (an *unscored* reception, one
no MAC reads, records nothing; see :mod:`repro.phy.radio`). At the end of the
frame the reception is scored: the frame's bits are spread uniformly over its airtime, each
constant-interference interval contributes ``(1 - ber(SINR))^bits``, and the
product is the delivery probability. This interval model is what makes
*partial* collisions behave correctly: a data frame clobbered halfway through
dies, while the short header/trailer frames around it usually survive —
the enabling observation of the conflict map (paper Fig. 5).

Change-points are stored *columnar* — two parallel flat lists
(``_times``, ``_interference``) instead of a list of tuples — so the
scoring loop indexes floats directly with no per-interval tuple
allocation or unpacking.

The error model's chunk *kernel* (:mod:`repro.kernels.chunkgrid`)
precomputes the exact ratio-domain bounds of the saturated regions, so
intervals whose SINR sits far above or below the PER waterfall resolve to
exactly 1.0 / 0.0 with no ``log10`` — the value the exact evaluation would
produce, by the grid exactness rule. That resolves 21–64 % of intervals on
the ruler workloads; every other interval evaluates the rate's fused chunk
closure directly. Interval results are not memoised: fading makes each
``(ratio, bits)`` pair unique, and a memo keyed on it measured 0.00–0.10 %
hits (``benchmarks/BENCH_pr18_receive_caches.json``).
"""

from __future__ import annotations

from math import log10 as _log10
from typing import List, Optional, TYPE_CHECKING

from repro.util.units import linear_to_db

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phy.medium import Transmission
    from repro.phy.modulation import ErrorModel


class Reception:
    """State of one in-progress frame reception at one radio."""

    __slots__ = (
        "transmission",
        "rss_dbm",
        "start",
        "end",
        "_signal_mw",
        "_times",
        "_interference",
        "scored",
    )

    def __init__(
        self,
        transmission: "Transmission",
        rss_dbm: float,
        start: float,
        end: float,
        initial_interference_mw: float,
        signal_mw: Optional[float] = None,
    ):
        self.transmission = transmission
        self.rss_dbm = rss_dbm
        self.start = start
        self.end = end
        # Callers that already hold the linear power (the radio's receive
        # path computes it for the arrival set) pass it in; it is the same
        # ``10.0 ** (rss_dbm / 10.0)`` float, just not recomputed.
        if signal_mw is None:
            signal_mw = 10.0 ** (rss_dbm / 10.0)  # == dbm_to_mw(rss_dbm)
        self._signal_mw = signal_mw
        #: Parallel change-point columns; index 0 is the reception start.
        self._times: List[float] = [start]
        self._interference: List[float] = [initial_interference_mw]
        #: False when no MAC reads the frame (see ``Radio.reads_overheard``):
        #: the radio then records no change-points and never scores it.
        self.scored = True

    @property
    def frame(self):
        return self.transmission.frame

    def interference_changed(self, now: float, interference_mw: float) -> None:
        """Record that aggregate interference became ``interference_mw``."""
        times = self._times
        if now == times[-1]:
            # Coalesce same-instant changes (e.g. two frames ending together).
            self._interference[-1] = interference_mw
        else:
            times.append(now)
            self._interference.append(interference_mw)

    def success_probability(self, error_model: "ErrorModel", noise_mw: float) -> float:
        """Delivery probability over the recorded interference history."""
        frame = self.transmission.frame
        total_bits = 8.0 * frame.size_bytes
        duration = self.end - self.start
        if duration <= 0.0:
            return 1.0
        bits_per_second = total_bits / duration
        rate = frame.rate
        # Per-(model, rate) scorer entry: the rate's chunk kernel (exact
        # closure + saturated-region ratio bounds, see
        # repro.kernels.chunkgrid) flattened into one tuple.
        by_rate = error_model.__dict__.get("_chunk_cache")
        if by_rate is None:
            by_rate = error_model._chunk_cache = {}
        # Keyed by id(rate): cheaper than hashing the Rate dataclass, and
        # safe because the entry holds a reference that pins the id.
        entry = by_rate.get(id(rate))
        if entry is None:
            kernel = error_model.chunk_kernel(rate)
            entry = by_rate[id(rate)] = (
                kernel.chunk,
                kernel.ratio_zero,
                kernel.ratio_one,
                kernel.bits_safe,
                rate,
            )
        chunk, ratio_zero, ratio_one, bits_safe, _ = entry
        signal_mw = self._signal_mw
        interference = self._interference
        n = len(interference)
        if n == 1:
            # Constant interference over the whole frame (29–70 % of
            # receptions on the ruler workloads): one chunk, no loop. A
            # saturated ratio resolves without the dB conversion at all (the
            # kernel's region bounds are exact in the ratio domain);
            # otherwise the inlined conversion matches linear_to_db (incl.
            # the <=0 floor).
            ratio = signal_mw / (interference[0] + noise_mw)
            bits = bits_per_second * duration
            if ratio >= ratio_one:
                if bits <= bits_safe:
                    return 1.0
            elif ratio <= ratio_zero and bits > 0.0:
                return 0.0
            sinr = 10.0 * _log10(ratio) if ratio > 0.0 else -400.0
            return chunk(sinr, bits)
        times = self._times
        end = self.end
        prob = 1.0
        for idx in range(n):
            t = times[idx]
            nxt = idx + 1
            t_next = times[nxt] if nxt < n else end
            seg = t_next - t
            if seg <= 0.0:
                continue
            ratio = signal_mw / (interference[idx] + noise_mw)
            bits = bits_per_second * seg
            if ratio >= ratio_one:
                if bits <= bits_safe:
                    continue  # p == 1.0 exactly; prob *= 1.0 is the identity
            elif ratio <= ratio_zero and bits > 0.0:
                prob = 0.0  # p == 0.0 exactly; finite prob * 0.0 == 0.0
                break
            sinr = 10.0 * _log10(ratio) if ratio > 0.0 else -400.0
            prob *= chunk(sinr, bits)
            if prob == 0.0:
                break
        return prob

    def min_sinr_db(self, noise_mw: float) -> float:
        """Worst-case SINR seen during the reception (for stats/tests).

        Minimum SINR corresponds to the *maximum* interference level any
        recorded interval saw. Nothing on the simulation path reads it, so
        the peak is taken on demand instead of tracked per change. An
        unscored reception recorded no change-points, so it has no answer.
        """
        if not self.scored:
            raise ValueError("unscored reception: no interference history")
        return linear_to_db(
            self._signal_mw / (max(self._interference) + noise_mw)
        )
