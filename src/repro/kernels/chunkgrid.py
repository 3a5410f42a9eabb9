"""Precomputed chunk-success kernels for the erfc waterfall error model.

``Reception.success_probability`` spends its time in per-chunk
``log10``/``erfc``/``log1p``/``exp`` evaluations, yet a large share of the
chunks a real run scores — 64 % on the four-node fig12 trials, 21–29 % on
the dense and mobile ruler workloads (``benchmarks/audit_hot_caches.py``) —
is *saturated*: the SINR sits either far above the PER waterfall (success
is exactly 1.0) or far below it (exactly 0.0). This module precomputes, per
(error model, rate), the exact extent of those regions — in the **linear
power-ratio domain**, so the hot path can skip the dB conversion too.
Off-region queries fall back to the rate-specialised fused closure
(``NistErrorModel.chunk_fn``), so every returned probability is
bit-identical to the region-free evaluation (the *grid exactness rule*,
DESIGN.md "Kernels").

Why the regions are exact (NIST model, ``x = steepness * (sinr - sinr50) +
x50``, ``ber = 0.5 * erfc(x)``):

* ``x <= X_ZERO = -0.5``: ``erfc(x) >= erfc(-0.5) ≈ 1.52``, so the fused
  closure's ``ber >= 0.5`` branch fires and returns exactly 0.0 for any
  ``bits > 0``. (The dB-domain margin to x = 0 is ~1 dB at the default
  steepness — astronomically larger than the < 1 ulp libm error.)
* ``x >= X_ONE = 8.5``: ``ber <= 0.5 * erfc(8.5) < 1.4e-32``, hence for any
  ``bits <= BITS_SAFE = 1e7`` the exponent ``|bits * log1p(-ber)| <
  1.4e-25 << 2**-53``, and ``exp`` of it rounds to exactly 1.0 (or the
  ``ber <= 0.0`` branch already returned 1.0).

The ratio-domain thresholds carry a ``_GUARD_DB = 1e-6`` dB margin: libm's
``10 * log10(ratio)`` is correct to well under 1e-12 dB here, so any ratio
at/beyond a threshold maps to an SINR strictly inside its saturated region.
Both boundaries are verified at build time by evaluating the exact closure
at and around them (``_verify``), so a pathological libm fails loudly at
kernel build rather than silently mis-scoring.
"""

from __future__ import annotations

import math
from typing import Callable

#: Waterfall-argument bound below which chunk success is exactly 0.0.
X_ZERO = -0.5
#: Waterfall-argument bound above which chunk success is exactly 1.0.
X_ONE = 8.5
#: Largest per-chunk bit count the ``x >= X_ONE`` proof covers (1.25 MB —
#: far above any frame the simulator produces).
BITS_SAFE = 1.0e7
#: dB guard margin absorbing libm log10 rounding at the region boundaries.
_GUARD_DB = 1e-6
#: A 1400 B frame's bits: one of ``_verify``'s boundary probes.
REF_BITS = 1400 * 8.0


class ChunkKernel:
    """A rate-specialised chunk scorer plus its saturated-region bounds.

    ``chunk(sinr_db, bits)`` is the exact fused closure. ``ratio_zero`` /
    ``ratio_one`` bound the saturated regions in the linear
    ``signal/(interference+noise)`` domain: a caller holding the ratio may
    return 0.0 / 1.0 without computing ``log10`` at all when

    * ``ratio >= ratio_one`` and ``0 <= bits <= bits_safe``  -> 1.0
    * ``ratio <= ratio_zero`` and ``bits > 0``               -> 0.0

    ``sinr_zero_db`` / ``sinr_one_db`` are the same regions in dB, without
    the guard margin (``FadeQuadrature`` bisects on them).

    Kernels built without grid support (non-NIST models, or inside
    ``reference_kernels()``) disable both regions by value (``-inf`` /
    ``+inf`` / 0.0), so the caller's comparisons simply never fire — no
    branching on None.
    """

    __slots__ = (
        "chunk",
        "ratio_zero",
        "ratio_one",
        "bits_safe",
        "sinr_zero_db",
        "sinr_one_db",
    )

    def __init__(
        self,
        chunk: Callable[[float, float], float],
        ratio_zero: float = -math.inf,
        ratio_one: float = math.inf,
        bits_safe: float = 0.0,
        sinr_zero_db: float = -math.inf,
        sinr_one_db: float = math.inf,
    ):
        self.chunk = chunk
        self.ratio_zero = ratio_zero
        self.ratio_one = ratio_one
        self.bits_safe = bits_safe
        self.sinr_zero_db = sinr_zero_db
        self.sinr_one_db = sinr_one_db


def null_chunk_kernel(chunk: Callable[[float, float], float]) -> ChunkKernel:
    """A kernel with both saturated regions disabled (exact path only)."""
    return ChunkKernel(chunk)


def _verify(
    chunk: Callable[[float, float], float],
    sinr_zero_db: float,
    sinr_one_db: float,
    ratio_zero: float,
    ratio_one: float,
) -> None:
    """Fail loudly at build time if a region boundary is not exact."""
    probes_one = [sinr_one_db, 10.0 * math.log10(ratio_one)]
    probes_one.append(10.0 * math.log10(math.nextafter(ratio_one, math.inf)))
    for s in probes_one:
        for bits in (1.0, REF_BITS, BITS_SAFE):
            if chunk(s, bits) != 1.0:
                raise RuntimeError(
                    f"chunk-grid exactness violated at the success boundary "
                    f"(sinr={s!r}, bits={bits!r}): libm erfc/exp on this "
                    f"platform breaks the X_ONE proof"
                )
    probes_zero = [sinr_zero_db, 10.0 * math.log10(ratio_zero)]
    probes_zero.append(10.0 * math.log10(math.nextafter(ratio_zero, 0.0)))
    for s in probes_zero:
        for bits in (1e-9, 1.0, BITS_SAFE):
            if chunk(s, bits) != 0.0:
                raise RuntimeError(
                    f"chunk-grid exactness violated at the failure boundary "
                    f"(sinr={s!r}, bits={bits!r}): libm erfc on this "
                    f"platform breaks the X_ZERO proof"
                )


def nist_chunk_kernel(
    steepness_per_db: float,
    sinr50_db: float,
    x50: float,
    chunk: Callable[[float, float], float],
) -> ChunkKernel:
    """Build the saturated-region kernel for one (NIST model, rate) pair.

    ``chunk`` must be the rate's exact fused closure
    (``NistErrorModel.chunk_fn(rate)``); it remains the off-region scorer,
    so region-enabled and region-free evaluation are bit-identical.
    """
    if steepness_per_db <= 0.0:
        raise ValueError("steepness must be positive")
    sinr_zero_db = sinr50_db + (X_ZERO - x50) / steepness_per_db
    sinr_one_db = sinr50_db + (X_ONE - x50) / steepness_per_db
    ratio_zero = 10.0 ** ((sinr_zero_db - _GUARD_DB) / 10.0)
    ratio_one = 10.0 ** ((sinr_one_db + _GUARD_DB) / 10.0)
    _verify(chunk, sinr_zero_db, sinr_one_db, ratio_zero, ratio_one)
    return ChunkKernel(
        chunk,
        ratio_zero=ratio_zero,
        ratio_one=ratio_one,
        bits_safe=BITS_SAFE,
        sinr_zero_db=sinr_zero_db,
        sinr_one_db=sinr_one_db,
    )
