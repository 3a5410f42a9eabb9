"""Small statistics toolkit: CDFs and summaries for the figure harnesses.

The paper's figures are mostly CDFs of per-run throughput (Figs. 12, 13, 15,
18, 20) plus means with error bars (Fig. 17) and percentile bands (Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("cannot take a percentile of no data")
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary used by Fig. 17 and Fig. 19."""

    count: int
    mean: float
    std: float
    median: float
    p10: float
    p25: float
    p75: float
    p90: float


def summarize(values: Sequence[float]) -> Summary:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize no data")
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        median=float(np.median(arr)),
        p10=float(np.percentile(arr, 10)),
        p25=float(np.percentile(arr, 25)),
        p75=float(np.percentile(arr, 75)),
        p90=float(np.percentile(arr, 90)),
    )


class Cdf:
    """An empirical CDF over a set of sample values."""

    def __init__(self, values: Iterable[float]):
        self.values = sorted(float(v) for v in values)
        if not self.values:
            raise ValueError("empty CDF")

    def __len__(self) -> int:
        return len(self.values)

    def at(self, x: float) -> float:
        """Fraction of samples <= x."""
        import bisect

        return bisect.bisect_right(self.values, x) / len(self.values)

    def quantile(self, q: float) -> float:
        """Value at cumulative fraction ``q`` in [0, 1].

        The same linear-interpolation estimator as :func:`percentile` and
        :attr:`median`, so ``quantile(0.5) == median``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        return percentile(self.values, 100 * q)

    @property
    def median(self) -> float:
        return percentile(self.values, 50)

    def points(self) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs for plotting/printing."""
        n = len(self.values)
        return [(v, (i + 1) / n) for i, v in enumerate(self.values)]

    def series(self, num: int = 11) -> List[Tuple[float, float]]:
        """A decimated (quantile, value) series, e.g. for a text table."""
        out = []
        for i in range(num):
            q = i / (num - 1)
            out.append((q, self.quantile(q)))
        return out
