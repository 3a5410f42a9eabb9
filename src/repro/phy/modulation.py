"""802.11a OFDM rate set, frame airtimes, and SINR -> error models.

The testbed in the paper runs 802.11a (paper §5.1): 6 Mb/s default, with
12/18 Mb/s used in the variable bit-rate experiment (§5.8, Fig. 20). We model
the full 8-rate set so rate-aware conflict maps (§3.5) can be exercised.

Error model: per-rate bit error rate as a smooth function of SINR in dB,
parameterised by the SINR at which a 1400-byte frame has 50 % delivery
(``sinr50_1400_db``) and a waterfall steepness. Frame success over an
interference-varying reception is the product over constant-SINR intervals of
``(1 - ber)^bits`` (see :mod:`repro.phy.reception`). Parameters are spaced
like 802.11a receiver sensitivities, so higher rates require markedly higher
SINR — which reproduces the paper's observation that exposed-terminal
opportunities shrink at higher bit-rates (§5.8).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict

#: erfc^-1(2 * ber50) for a 1400-byte (11200-bit) frame at 50 % success:
#: ber50 = 1 - 0.5**(1/11200) = 6.188e-5; erfcinv(1.2376e-4) = 2.7140.
_X50_1400B = 2.7140

#: Bits in the reference frame used to define ``sinr50_1400_db``.
_REF_BITS = 1400 * 8


@dataclass(frozen=True)
class Rate:
    """One 802.11a OFDM rate.

    Attributes:
        mbps: nominal PHY rate in Mb/s.
        bits_per_symbol: coded data bits per 4 us OFDM symbol (N_DBPS).
        modulation: human-readable modulation/coding label.
        sinr50_1400_db: SINR (dB) at which a 1400 B frame succeeds 50 %.
    """

    mbps: int
    bits_per_symbol: int
    modulation: str
    sinr50_1400_db: float

    @property
    def bps(self) -> float:
        """Rate in bits per second."""
        return self.mbps * 1e6

    def __repr__(self) -> str:
        return f"Rate({self.mbps}M)"


RATE_6M = Rate(6, 24, "BPSK 1/2", 5.0)
RATE_9M = Rate(9, 36, "BPSK 3/4", 6.5)
RATE_12M = Rate(12, 48, "QPSK 1/2", 8.0)
RATE_18M = Rate(18, 72, "QPSK 3/4", 10.5)
RATE_24M = Rate(24, 96, "16QAM 1/2", 13.5)
RATE_36M = Rate(36, 144, "16QAM 3/4", 17.5)
RATE_48M = Rate(48, 192, "64QAM 2/3", 21.5)
RATE_54M = Rate(54, 216, "64QAM 3/4", 23.0)

#: All 802.11a rates, keyed by Mb/s.
RATES: Dict[int, Rate] = {
    r.mbps: r
    for r in (
        RATE_6M,
        RATE_9M,
        RATE_12M,
        RATE_18M,
        RATE_24M,
        RATE_36M,
        RATE_48M,
        RATE_54M,
    )
}


class Phy80211a:
    """802.11a timing constants and airtime computation."""

    SLOT_TIME = 9e-6
    SIFS = 16e-6
    DIFS = 34e-6  # SIFS + 2 * slot
    #: PLCP preamble (16 us) + SIGNAL field (4 us).
    PLCP_OVERHEAD = 20e-6
    SYMBOL_TIME = 4e-6
    #: SERVICE (16) + tail (6) bits added to the PSDU by the PHY.
    SERVICE_TAIL_BITS = 22

    @classmethod
    def airtime(cls, size_bytes: int, rate: Rate) -> float:
        """Time on air for a PSDU of ``size_bytes`` at ``rate``.

        Follows the 802.11a TXTIME equation: preamble + SIGNAL + data symbols
        covering service/tail bits and the payload.
        """
        bits = cls.SERVICE_TAIL_BITS + 8 * size_bytes
        symbols = math.ceil(bits / rate.bits_per_symbol)
        return cls.PLCP_OVERHEAD + symbols * cls.SYMBOL_TIME


class ErrorModel:
    """Interface: map (SINR, rate, bits) to delivery probability."""

    def __getstate__(self):
        # The per-rate kernel caches (the reception scorer's, and
        # frame_kernel's) hold closures, which do not pickle; they are
        # rebuilt on first use.
        state = dict(self.__dict__)
        state.pop("_chunk_cache", None)
        state.pop("_frame_kernels", None)
        return state

    def ber(self, sinr_db: float, rate: Rate) -> float:
        """Bit error rate at ``sinr_db`` for ``rate``."""
        raise NotImplementedError

    def chunk_success(self, sinr_db: float, rate: Rate, bits: float) -> float:
        """Probability that ``bits`` consecutive bits all decode correctly."""
        ber = self.ber(sinr_db, rate)
        if ber <= 0.0:
            return 1.0
        if ber >= 0.5:
            # The receiver has effectively lost the symbol stream.
            return 0.0 if bits > 0 else 1.0
        # (1-ber)^bits, computed in log space for numerical robustness.
        return math.exp(bits * math.log1p(-ber))

    def frame_success(self, sinr_db: float, rate: Rate, size_bytes: int) -> float:
        """Probability an entire frame at constant SINR decodes."""
        return self.chunk_success(sinr_db, rate, 8.0 * size_bytes)

    def chunk_fn(self, rate: Rate):
        """A ``fn(sinr_db, bits) -> p`` closure specialised to ``rate``.

        The reception scorer caches one closure per (model, rate) so the
        per-interval hot path skips re-resolving rate parameters. Must be
        bit-identical to :meth:`chunk_success`; the default simply wraps it.
        """
        return lambda sinr_db, bits: self.chunk_success(sinr_db, rate, bits)

    def chunk_kernel(self, rate: Rate):
        """The rate's :class:`repro.kernels.chunkgrid.ChunkKernel`.

        The reception scorer consumes this instead of :meth:`chunk_fn`:
        the kernel carries the exact chunk closure plus (for models that
        support them) precomputed saturated-region bounds in the linear
        SINR-ratio domain. The default has no regions — behaviour is the
        exact closure, unconditionally.
        """
        from repro.kernels.chunkgrid import null_chunk_kernel

        return null_chunk_kernel(self.chunk_fn(rate))


class NistErrorModel(ErrorModel):
    """Smooth erfc-shaped waterfall calibrated per rate.

    ``ber(s) = 0.5 * erfc(steepness * (s - sinr50) + X50)`` where ``X50`` is
    the erfc argument giving 50 % success for the reference 1400 B frame. The
    default steepness of 0.5/dB yields a ~2.5 dB PER waterfall, matching
    measured 802.11a behaviour closely enough for shape-level reproduction.
    """

    def __init__(self, steepness_per_db: float = 0.5):
        if steepness_per_db <= 0:
            raise ValueError("steepness must be positive")
        self.steepness_per_db = steepness_per_db

    def ber(self, sinr_db: float, rate: Rate) -> float:
        x = self.steepness_per_db * (sinr_db - rate.sinr50_1400_db) + _X50_1400B
        # erfc explodes to 2.0 for very negative x; clamp to the BER ceiling.
        ber = 0.5 * math.erfc(x)
        return min(ber, 0.5)

    def chunk_success(self, sinr_db: float, rate: Rate, bits: float) -> float:
        """Fused ``ber`` + chunk scoring (hot path).

        Bit-identical to ``ErrorModel.chunk_success(self.ber(...))``: the
        same erfc/clamp arithmetic, the same branch outcomes, one call.
        """
        x = self.steepness_per_db * (sinr_db - rate.sinr50_1400_db) + _X50_1400B
        ber = 0.5 * math.erfc(x)
        if ber >= 0.5:
            return 0.0 if bits > 0 else 1.0
        if ber <= 0.0:
            return 1.0
        return math.exp(bits * math.log1p(-ber))

    def chunk_fn(self, rate: Rate):
        """Rate-specialised fused chunk scorer (same arithmetic, bound
        constants, no per-call attribute resolution)."""
        steepness = self.steepness_per_db
        sinr50 = rate.sinr50_1400_db
        erfc, log1p, exp = math.erfc, math.log1p, math.exp

        def _chunk(sinr_db: float, bits: float) -> float:
            ber = 0.5 * erfc(steepness * (sinr_db - sinr50) + _X50_1400B)
            if ber >= 0.5:
                return 0.0 if bits > 0 else 1.0
            if ber <= 0.0:
                return 1.0
            return exp(bits * log1p(-ber))

        return _chunk

    def chunk_kernel(self, rate: Rate):
        """Grid-backed kernel: saturated SINR regions resolved at build.

        The kernel carries exact 0.0/1.0 region bounds (see
        :mod:`repro.kernels.chunkgrid` for the proof) so the scorer skips
        ``log10``/``erfc``/``exp`` for saturated chunks; off-region queries
        run the same fused closure as before, bit for bit. Inside
        :func:`repro.kernels.backend.reference_kernels` the region-free
        kernel is returned instead (the tests' reference behaviour).
        """
        from repro.kernels.backend import chunk_grids_enabled
        from repro.kernels.chunkgrid import nist_chunk_kernel, null_chunk_kernel

        chunk = self.chunk_fn(rate)
        if not chunk_grids_enabled():
            return null_chunk_kernel(chunk)
        return nist_chunk_kernel(
            self.steepness_per_db, rate.sinr50_1400_db, _X50_1400B, chunk
        )


class SinrThresholdErrorModel(ErrorModel):
    """Hard-threshold model: perfect above ``sinr50``, nothing below.

    Useful in unit tests where deterministic delivery simplifies assertions.
    """

    def ber(self, sinr_db: float, rate: Rate) -> float:
        return 0.0 if sinr_db >= rate.sinr50_1400_db else 0.5


class FadeQuadrature:
    """Exact fading-averaged frame success over fixed fade offsets.

    ``total(sinr_db, ...)`` is ``Σ_i weights[i] * frame_success(sinr_db +
    offsets[i])``, summed in index order: the per-point quadrature loop
    every analytic PRR used to run, bit for bit. It runs on the rate's
    :class:`~repro.kernels.chunkgrid.ChunkKernel` (the grid exactness rule,
    DESIGN.md "Kernels"): with ascending offsets it bisects past the prefix
    whose SINR is at or below ``sinr_zero_db`` (each such term is ``w *
    0.0`` and leaves the sum unchanged), adds ``w`` itself at or above
    ``sinr_one_db`` (where ``w * 1.0 == w``), and calls the fused chunk
    closure only inside the waterfall. A region-free kernel (non-NIST
    models, or built inside ``reference_kernels()``) has ±inf bounds, so
    the same code is the plain loop.
    """

    __slots__ = ("offsets", "weights", "_ascending")

    def __init__(self, offsets, weights):
        self.offsets = tuple(float(x) for x in offsets)
        self.weights = tuple(float(w) for w in weights)
        if len(self.offsets) != len(self.weights):
            raise ValueError("one weight per offset")
        #: The zero-prefix bisection needs ascending offsets; any other
        #: order still scores every point through the region checks.
        self._ascending = all(
            a <= b for a, b in zip(self.offsets, self.offsets[1:])
        )

    def total(
        self, sinr_db: float, rate: Rate, size_bytes: int, error_model: ErrorModel
    ) -> float:
        kernel = frame_kernel(error_model, rate)
        bits = 8.0 * size_bytes
        zero = kernel.sinr_zero_db if bits > 0.0 and self._ascending else -math.inf
        one = kernel.sinr_one_db if 0.0 <= bits <= kernel.bits_safe else math.inf
        offsets, weights = self.offsets, self.weights
        lo, hi = 0, len(offsets)
        while lo < hi:
            mid = (lo + hi) // 2
            if sinr_db + offsets[mid] <= zero:
                lo = mid + 1
            else:
                hi = mid
        chunk = kernel.chunk
        total = 0.0
        for i in range(lo, len(offsets)):
            s = sinr_db + offsets[i]
            if s >= one:
                total += weights[i]
            else:
                total += weights[i] * chunk(s, bits)
        return total


def frame_kernel(error_model: ErrorModel, rate: Rate):
    """``error_model.chunk_kernel(rate)``, built on the model's first use of
    ``rate`` (like the reception scorer's, so a model built inside
    ``reference_kernels()`` keeps its region-free kernels)."""
    cache = error_model.__dict__.setdefault("_frame_kernels", {})
    kernel = cache.get(rate)
    if kernel is None:
        kernel = cache[rate] = error_model.chunk_kernel(rate)
    return kernel


#: A static channel: one point, no fade.
STATIC_QUADRATURE = FadeQuadrature((0.0,), (1.0,))

@functools.lru_cache(maxsize=8)
def _gauss_hermite(sigma_db: float) -> FadeQuadrature:
    """17-node Gauss-Hermite quadrature over Gaussian fading of ``sigma_db``."""
    import numpy as np

    nodes, weights = np.polynomial.hermite_e.hermegauss(17)
    return FadeQuadrature(
        [sigma_db * float(x) for x in nodes], weights / weights.sum()
    )


def isolated_prr(
    rss_dbm: float,
    noise_dbm: float,
    rate: Rate,
    size_bytes: int,
    error_model: ErrorModel,
    fading_sigma_db: float = 0.0,
) -> float:
    """Analytic packet reception rate of a link with no interference.

    Used by the experiment harness to classify links ("potential transmission
    link", "in range" -- paper §5.1) without Monte-Carlo runs. With per-frame
    Gaussian block fading of ``fading_sigma_db``, the PRR is the fading
    average of the frame success probability (17-node Gauss-Hermite
    quadrature), matching the in-simulation per-frame fading draws.
    """
    from repro.util.units import sinr_db as _sinr  # local import, avoids cycle

    s = _sinr(rss_dbm, -400.0, noise_dbm)
    if fading_sigma_db <= 0.0:
        return STATIC_QUADRATURE.total(s, rate, size_bytes, error_model)
    return _gauss_hermite(fading_sigma_db).total(s, rate, size_bytes, error_model)
