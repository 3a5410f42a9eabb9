"""Vectorized/batched numerical kernels.

This package is the simulator's numerical kernel layer (DESIGN.md
"Kernels"): block-buffered RNG streams (:mod:`repro.kernels.rngbuf`),
mixed-kind streams drawn through numpy's C distribution functions
(:mod:`repro.kernels.cdraws`) and precomputed chunk-success kernels for the
erfc waterfall (:mod:`repro.kernels.chunkgrid`), reached through the
build-time reads in :mod:`repro.kernels.backend`.
"""

from repro.kernels.backend import (  # noqa: F401
    bind_stream,
    chunk_grids_enabled,
    reference_kernels,
    wrap_uniform_stream,
)
from repro.kernels.cdraws import BitGen  # noqa: F401
from repro.kernels.chunkgrid import ChunkKernel, nist_chunk_kernel, null_chunk_kernel  # noqa: F401
from repro.kernels.rngbuf import BufferedUniformStream  # noqa: F401
