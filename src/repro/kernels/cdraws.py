"""numpy's C distribution functions, called on a Generator's own bit generator.

A mixed-kind stream cannot be block-buffered (:mod:`.rngbuf`), so instead
of the Generator methods (0.5-0.8 us a draw, nearly all argument parsing
and locking) it calls the C functions they call — numpy's distribution
C-API, ``double random_standard_*(bitgen_t *)`` — on the same bit
generator: the same words in the same order, so the same bits. The library
is ``numpy.random._generator``'s own, opened with :class:`ctypes.PyDLL`,
which keeps the GIL held across a draw. There is no fallback: a numpy that
stops exporting these symbols fails here, at import (DESIGN.md "Kernels").

The draws are :class:`BitGen` class attributes named after the methods, so
``type(s).random(s)`` draws alike from a ``Generator``, a
``BufferedUniformStream`` and a ``BitGen`` (and they check nothing).

:data:`NextUint32` re-wraps a bit generator's own ``next_uint32`` pointer
(``bit_generator.ctypes.next_uint32``) as a ``PYFUNCTYPE``, so it too keeps
the GIL held; DCF's backoff runs numpy's bounded-integer rejection over it
(``DcfMac._maybe_begin``).
"""

from __future__ import annotations

import ctypes

import numpy.random._generator as _generator

_lib = ctypes.PyDLL(_generator.__file__)


def _c_draw(symbol: str):
    draw = getattr(_lib, symbol)
    draw.restype = ctypes.c_double
    return draw


class BitGen(ctypes.c_void_p):
    """A Generator's ``bitgen_t *``; holds the Generator so it cannot dangle."""

    __slots__ = ("generator",)

    standard_normal = _c_draw("random_standard_normal")
    standard_exponential = _c_draw("random_standard_exponential")
    random = _c_draw("random_standard_uniform")


#: ``uint32_t next_uint32(void *state)``, called with the GIL held.
NextUint32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
