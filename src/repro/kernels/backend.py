"""The seam between the simulator and its two numerical kernels.

The simulator makes two reads here, both at object-build time:

* :func:`wrap_uniform_stream` — single-kind RNG streams are served from
  :class:`repro.kernels.rngbuf.BufferedUniformStream` (block refills,
  bit-identical; see the buffer refill determinism rule in that module).
* :func:`chunk_grids_enabled` — the erfc waterfall error model precomputes
  saturated-region chunk kernels (:mod:`repro.kernels.chunkgrid`,
  bit-identical by the grid exactness rule).

Both are always on. :func:`reference_kernels` turns both off for the
duration of a ``with`` block so tests can build the scalar reference
(per-draw RNG, region-free chunk kernel) in-process and diff it against the
kernelised path. Objects bind their streams and chunk kernels at
construction, so build the reference network *inside* the block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.kernels.rngbuf import BufferedUniformStream

_reference = False


def wrap_uniform_stream(rng: np.random.Generator):
    """Buffer a single-kind (``random``/``uniform``-only) stream.

    Returns ``rng`` unchanged when it is already buffered (or inside
    :func:`reference_kernels`), so call sites need no branching. The caller
    asserts the single-kind contract by calling this at all — see the
    buffer refill determinism rule.
    """
    if _reference or isinstance(rng, BufferedUniformStream):
        return rng
    return BufferedUniformStream(rng)


def chunk_grids_enabled() -> bool:
    """Whether error models build grid-backed chunk kernels."""
    return not _reference


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Build objects with per-draw RNG and region-free chunk kernels."""
    global _reference
    previous, _reference = _reference, True
    try:
        yield
    finally:
        _reference = previous
