"""Per-frame small-scale fading models.

Indoor link quality is bimodal: line-of-sight links are stable (delivering
either perfectly or not at all, depending on mean SNR), while obstructed
links flicker with multipath fading, producing both intermediate loss rates
and a long tail of barely-connected pairs. The paper's testbed census (§5.1:
68 % of connected pairs with PRR < 0.1, 12 % intermediate, 20 % perfect) is
exactly this shape.

:class:`LosNlosMixtureFading` models it directly: each unordered node pair is
deterministically (by seed) LOS with probability ``p_los`` — tiny log-normal
fading — or NLOS — Rayleigh block fading per frame. Analytic fading-averaged
PRRs (for link classification) use Gauss-Hermite / Gauss-Laguerre quadrature
so they match the in-simulation per-frame draws exactly in distribution.
Radio samplers draw through numpy's C functions on the radio stream's
:class:`~repro.kernels.cdraws.BitGen`: the Generator methods' own, same bits.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.kernels.cdraws import BitGen
from repro.phy.modulation import (
    STATIC_QUADRATURE,
    ErrorModel,
    FadeQuadrature,
    Rate,
)
from repro.util.rng import stable_hash
from repro.util.units import sinr_db as _sinr_db

#: Deepest fade we model, dB (below this a frame is unreceivable anyway).
_FADE_FLOOR_DB = -50.0


def _gaussian_grid(points: int = 81, span_sigmas: float = 4.5):
    """A dense trapezoid grid over a standard normal.

    Gauss-Hermite misbehaves on the steep PER sigmoid (its few nodes straddle
    the waterfall); a dense pdf-weighted grid is accurate to < 0.5 % and keeps
    the analytic link PRRs consistent with the per-frame Monte-Carlo draws.
    """
    xs = np.linspace(-span_sigmas, span_sigmas, points)
    pdf = np.exp(-0.5 * xs**2)
    weights = pdf / pdf.sum()
    return xs, weights


class FadingModel:
    """Interface: per-frame fade draws plus the matching analytic average."""

    #: True when this model's samplers never consume the radio's RNG
    #: stream. The kernel layer may then block-buffer that stream (the
    #: delivery coin flip becomes its only draw kind — see
    #: :mod:`repro.kernels.rngbuf`); RNG-consuming models keep it mixed.
    RNG_FREE = False

    def draw_db(self, rng: np.random.Generator, a: int, b: int) -> float:
        """One fade realisation (dB, added to mean RSS) for a frame a->b."""
        raise NotImplementedError

    def pair_sampler(self, a: int, b: int, rng):
        """A zero-arg ``sampler() -> fade_db`` closure for the pair's frames.

        ``rng`` is a Generator or the radio's :class:`BitGen` over one;
        ``type(rng).standard_normal(rng)`` draws on either. Radios cache one
        sampler per transmitter so the per-frame hot path skips re-resolving
        the pair's fading class and draw function on every arrival. The
        default wraps :meth:`draw_db`; subclasses specialise. Samplers MUST
        consume the stream exactly as ``draw_db`` does, so cached and
        uncached paths stay bit-identical.
        """
        if isinstance(rng, BitGen):
            rng = rng.generator
        return lambda: self.draw_db(rng, a, b)

    def mean_prr(
        self,
        rss_dbm: float,
        noise_dbm: float,
        rate: Rate,
        size_bytes: int,
        error_model: ErrorModel,
        a: int,
        b: int,
    ) -> float:
        """Fading-averaged isolated PRR of the link a->b."""
        raise NotImplementedError


class NoFading(FadingModel):
    """Static channel (unit tests, controlled topologies)."""

    RNG_FREE = True

    def draw_db(self, rng: np.random.Generator, a: int, b: int) -> float:
        return 0.0

    def pair_sampler(self, a: int, b: int, rng):
        return lambda: 0.0

    def mean_prr(self, rss_dbm, noise_dbm, rate, size_bytes, error_model, a, b):
        s = _sinr_db(rss_dbm, -400.0, noise_dbm)
        return STATIC_QUADRATURE.total(s, rate, size_bytes, error_model)


class GaussianBlockFading(FadingModel):
    """Per-frame Gaussian fading in dB, identical for all pairs."""

    def __init__(self, sigma_db: float):
        if sigma_db < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma_db = sigma_db
        # A zero-sigma model degenerates to the static channel: samplers
        # return 0.0 without touching the stream (see pair_sampler).
        self.RNG_FREE = sigma_db == 0.0
        nodes, weights = _gaussian_grid()
        self._quadrature = FadeQuadrature(
            [sigma_db * float(x) for x in nodes], weights
        )

    def draw_db(self, rng: np.random.Generator, a: int, b: int) -> float:
        if self.sigma_db == 0.0:
            return 0.0
        return float(rng.normal(0.0, self.sigma_db))

    def pair_sampler(self, a: int, b: int, rng):
        if self.sigma_db == 0.0:
            return lambda: 0.0
        sigma = self.sigma_db
        std_normal = type(rng).standard_normal
        # 0.0 + sigma * standard_normal() is what Generator.normal(0.0,
        # sigma) computes internally — same stream, same bits, less argument
        # processing. The closure holds rng, so a BitGen keeps its stream.
        return lambda: 0.0 + sigma * std_normal(rng)

    def mean_prr(self, rss_dbm, noise_dbm, rate, size_bytes, error_model, a, b):
        s = _sinr_db(rss_dbm, -400.0, noise_dbm)
        return self._quadrature.total(s, rate, size_bytes, error_model)


class LosNlosMixtureFading(FadingModel):
    """Quenched LOS/NLOS mixture with Rayleigh fading on NLOS pairs.

    * With probability ``p_los`` (a pure function of seed and the unordered
      pair) the pair is LOS: Gaussian fading with ``los_sigma_db`` (default
      0.5 dB — effectively stable).
    * Otherwise the pair is NLOS: the per-frame channel power gain is
      exponential (Rayleigh envelope), i.e. fade = 10 log10(Exp(1)), floored
      at -50 dB.
    """

    def __init__(self, seed: int, p_los: float = 0.45, los_sigma_db: float = 0.5):
        if not 0.0 <= p_los <= 1.0:
            raise ValueError("p_los must be a probability")
        self.seed = seed
        self.p_los = p_los
        self.los_sigma_db = los_sigma_db
        self._class_cache: Dict[Tuple[int, int], bool] = {}
        # Quadratures: dense Gaussian grid for LOS; for the NLOS exponential
        # power gain a dense grid over quantiles (exact inverse-CDF samples)
        # is likewise more robust on the steep PER sigmoid than Laguerre.
        # The offsets ascend (for a non-negative sigma), as the evaluator's
        # zero-prefix bisection needs.
        nodes, weights = _gaussian_grid()
        self._los = FadeQuadrature([los_sigma_db * float(x) for x in nodes], weights)
        qs = (np.arange(200) + 0.5) / 200.0
        gains = -np.log1p(-qs)  # Exp(1) quantiles
        # Equal weights of 1.0: the sum of the terms, divided afterwards.
        self._nlos = FadeQuadrature(
            [max(_FADE_FLOOR_DB, 10.0 * math.log10(float(g))) for g in gains],
            [1.0] * len(gains),
        )

    # ------------------------------------------------------------------
    def is_los(self, a: int, b: int) -> bool:
        """Deterministic LOS/NLOS class of the unordered pair (a, b)."""
        key = (a, b) if a <= b else (b, a)
        if key not in self._class_cache:
            gen = np.random.default_rng(stable_hash(self.seed, "los", *key))
            self._class_cache[key] = bool(gen.random() < self.p_los)
        return self._class_cache[key]

    def draw_db(self, rng: np.random.Generator, a: int, b: int) -> float:
        if self.is_los(a, b):
            if self.los_sigma_db == 0.0:
                return 0.0
            return float(rng.normal(0.0, self.los_sigma_db))
        gain = float(rng.exponential(1.0))
        if gain <= 0.0:
            return _FADE_FLOOR_DB
        return max(_FADE_FLOOR_DB, 10.0 * math.log10(gain))

    def pair_sampler(self, a: int, b: int, rng):
        """Pair-specialised sampler: the LOS/NLOS class is quenched, so it
        is resolved once here instead of on every frame arrival."""
        if self.is_los(a, b):
            if self.los_sigma_db == 0.0:
                return lambda: 0.0
            sigma = self.los_sigma_db
            std_normal = type(rng).standard_normal
            # Bit-identical to rng.normal(0.0, sigma); see GaussianBlockFading.
            return lambda: 0.0 + sigma * std_normal(rng)
        log10 = math.log10
        # Generator.exponential(1.0) is 1.0 * standard_exponential(): the
        # same stream and the same bits.
        std_exp = type(rng).standard_exponential

        def _nlos() -> float:
            gain = std_exp(rng)
            if gain <= 0.0:
                return _FADE_FLOOR_DB
            return max(_FADE_FLOOR_DB, 10.0 * log10(gain))

        return _nlos

    def mean_prr(self, rss_dbm, noise_dbm, rate, size_bytes, error_model, a, b):
        s = _sinr_db(rss_dbm, -400.0, noise_dbm)
        if self.is_los(a, b):
            return self._los.total(s, rate, size_bytes, error_model)
        nlos = self._nlos
        total = nlos.total(s, rate, size_bytes, error_model)
        return min(1.0, total / len(nlos.offsets))
