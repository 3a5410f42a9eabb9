"""The seam between the simulator and its numerical kernels.

The simulator makes four reads here, all at object-build time:

* :func:`wrap_uniform_stream` — single-kind RNG streams are served from
  :class:`repro.kernels.rngbuf.BufferedUniformStream` (block refills,
  bit-identical; see the buffer refill determinism rule in that module).
* :func:`bind_stream` — a radio's stream: buffered when its coin is its
  only draw kind, else drawn by numpy's C functions (:mod:`.cdraws`).
* :data:`reference` — DCF's backoff draws its bounded integers over the
  stream's own ``next_uint32`` (:mod:`.cdraws`) unless it is set. A module
  read, not a call, so building a MAC adds nothing to a trial's Python
  call count.
* :func:`chunk_grids_enabled` — the erfc waterfall error model precomputes
  saturated-region chunk kernels (:mod:`repro.kernels.chunkgrid`,
  bit-identical by the grid exactness rule).

All are always on. :func:`reference_kernels` turns them off for the
duration of a ``with`` block so tests can build the scalar reference
(per-draw Generator methods, region-free chunk kernel) in-process and diff
it against the kernelised path. Objects bind their streams and chunk
kernels at construction, so build the reference network *inside* the block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

from repro.kernels.cdraws import BitGen
from repro.kernels.rngbuf import BufferedUniformStream

#: True inside :func:`reference_kernels`. Read it; never set it.
reference = False


def wrap_uniform_stream(rng: np.random.Generator):
    """Buffer a single-kind (``random``/``uniform``-only) stream.

    Returns ``rng`` unchanged when it is already buffered (or inside
    :func:`reference_kernels`), so call sites need no branching. The caller
    asserts the single-kind contract by calling this at all — see the
    buffer refill determinism rule.
    """
    if reference or isinstance(rng, BufferedUniformStream):
        return rng
    return BufferedUniformStream(rng)


def bind_stream(rng, fading) -> Tuple[object, object]:
    """``(stream, draw argument)`` for a radio on ``fading``'s channel.

    An RNG-free channel leaves the coin as the only kind: the stream is
    buffered and is its own argument. Otherwise the stream is the raw
    Generator (a buffer is detached, so draws resume bit-identically) and
    the argument its :class:`~repro.kernels.cdraws.BitGen`, or the Generator
    itself inside :func:`reference_kernels`. ``type(arg).random(arg)`` is
    the coin either way.
    """
    if fading is None or getattr(fading, "RNG_FREE", False):
        rng = wrap_uniform_stream(rng)
        return rng, rng
    if isinstance(rng, BufferedUniformStream):
        rng = rng.detach()
    if reference:
        return rng, rng
    # numpy's BitGenerator.ctypes interface: its bitgen_t *, cached.
    bitgen = BitGen(rng.bit_generator.ctypes.bit_generator.value)
    bitgen.generator = rng
    return rng, bitgen


def chunk_grids_enabled() -> bool:
    """Whether error models build grid-backed chunk kernels."""
    return not reference


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Build objects with per-draw RNG and region-free chunk kernels."""
    global reference
    previous, reference = reference, True
    try:
        yield
    finally:
        reference = previous
