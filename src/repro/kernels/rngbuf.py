"""Block-refilled RNG buffers, bit-identical to per-draw generation.

The determinism foundation: for ``numpy.random.Generator``, an array draw
``gen.random(n)`` consumes the bit-generator stream exactly as ``n``
successive scalar ``gen.random()`` calls would, and produces the identical
doubles element-by-element. :class:`BufferedUniformStream` exploits that to
amortise the per-draw Generator call overhead: it pulls a block of uniforms
at once and drains it scalar-by-scalar, refilling when empty. Every value
handed out is the same bit pattern the wrapped generator would have produced
at the same point in the stream (the lockstep property tests in
``tests/test_kernels.py`` pin this across refill boundaries and forks).

Scope rule (the *buffer refill determinism rule*, see DESIGN.md "Kernels"):
only streams consumed through a **single distribution kind** may be
buffered. A stream that interleaves distributions (e.g. a radio stream
serving both ziggurat ``standard_normal`` fade draws and ``random()``
delivery flips) cannot be block-buffered bit-identically, because the block
draw advances the underlying bit-generator past state the other
distribution would have consumed — ziggurat draws consume a variable number
of raw outputs. Such streams draw one value at a time, through numpy's C
distribution functions rather than the Generator methods (same bits;
:mod:`repro.kernels.cdraws`). The two streams that qualify today:

* CMAP-family MAC streams — every draw is ``random()`` or
  ``uniform(lo, hi)``, and ``Generator.uniform(lo, hi)`` consumes exactly
  one double computed as ``lo + (hi - lo) * random()`` (the decomposition
  PR 2 lockstep-proved and ``core/cmap_mac.py`` already relies on).
* Radio streams on channels whose fading consumes no RNG
  (``config.fading is None`` or :class:`repro.phy.fading.NoFading`) —
  the only draw left is the per-delivery ``random()`` coin flip.

Buffers grow geometrically (64 → 4096 doubles) so idle streams don't pay a
4096-draw refill, while hot streams amortise to full blocks.
"""

from __future__ import annotations

import numpy as np

#: First refill size; doubles each refill up to the instance cap.
MIN_BLOCK = 64
#: Default steady-state refill size for hot streams.
MAX_BLOCK = 4096


class BufferedUniformStream:
    """A ``random()``/``uniform()``-only facade over a Generator.

    Draws are served from a pre-filled block (a plain Python list, so the
    hot path is a list index, not a numpy scalar extraction) and are
    bit-identical to scalar draws from the wrapped generator. Any other
    Generator method is deliberately *absent* — an ``AttributeError`` is
    the guard against a consumer silently desynchronising the stream by
    drawing a distribution the buffer doesn't model.
    """

    __slots__ = ("generator", "_buf", "_idx", "_len", "_block", "_cap", "_block_state")

    def __init__(self, generator: np.random.Generator, block: int = MAX_BLOCK):
        if isinstance(generator, BufferedUniformStream):
            raise TypeError("generator is already buffered")
        if block < 1:
            raise ValueError("block size must be >= 1")
        self.generator = generator
        self._buf: list = []
        self._idx = 0
        self._len = 0
        self._block = min(MIN_BLOCK, block)
        self._cap = block
        #: Bit-generator state snapshotted before the live block, for detach().
        self._block_state = None

    def _refill(self) -> None:
        gen = self.generator
        # Snapshot the bit-generator state *before* the block draw so
        # detach() can rewind and replay only the consumed prefix.
        self._block_state = gen.bit_generator.state
        block = self._block
        self._buf = gen.random(block).tolist()
        self._len = block
        self._idx = 0
        if block < self._cap:
            self._block = min(block * 2, self._cap)

    def random(self) -> float:
        """One uniform double in [0, 1); same bits as ``generator.random()``."""
        i = self._idx
        if i >= self._len:
            self._refill()
            i = 0
        self._idx = i + 1
        return self._buf[i]

    def uniform(self, low: float, high: float) -> float:
        """Uniform in [low, high); same bits as ``generator.uniform``.

        ``Generator.uniform(low, high)`` draws one double and computes
        ``low + (high - low) * u`` — the exact decomposition used here (and
        already relied on by ``core/cmap_mac.py``'s jitter draws).
        """
        i = self._idx
        if i >= self._len:
            self._refill()
            i = 0
        self._idx = i + 1
        return low + (high - low) * self._buf[i]

    def pending(self) -> int:
        """Buffered draws not yet handed out (diagnostics/tests)."""
        return self._len - self._idx

    def detach(self) -> np.random.Generator:
        """Return the wrapped generator positioned as if never buffered.

        The generator's bit stream is rewound to the start of the live
        block and advanced by exactly the draws this buffer handed out, so
        scalar consumption can continue bit-identically (e.g. when a radio
        config swap introduces a fading model that needs the raw stream).
        """
        gen = self.generator
        if self._block_state is not None:
            gen.bit_generator.state = self._block_state
            if self._idx:
                gen.random(self._idx)  # discard exactly the consumed prefix
        self._buf = []
        self._idx = 0
        self._len = 0
        self._block_state = None
        return gen
