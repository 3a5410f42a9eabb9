"""Span recorder: layer boundaries timed from outside the program.

``Recorder.wrap(owner, "method", layer)`` replaces a public method with a
wrapper that records one span per call — name, layer, start, end, the span
that caused it (a thread-local stack) and a trace id (one per trial, taken
from the call's arguments where a trial is in them, else inherited from the
caller). Spans stay in memory until :meth:`Recorder.write` dumps them as
JSON lines. A span's *self time* is its duration minus the part its child
spans cover; children run on the caller's thread inside the parent's
interval, so that is the plain sum of their durations.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = (
        "id",
        "name",
        "layer",
        "start",
        "end",
        "parent",
        "trace",
        "thread",
        "note",
    )

    def __init__(self, id, name, layer, start, parent, trace, thread):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.thread = thread
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, trace: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        with self._lock:
            span = Span(
                len(self.spans),
                name,
                layer,
                time.perf_counter(),
                None if parent is None else parent.id,
                trace,
                threading.get_ident(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        assert stack and stack[-1] is span, "spans must nest"
        stack.pop()

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        trace_of: Optional[Callable[..., Optional[str]]] = None,
        note_of: Optional[Callable[..., object]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper (undone by
        :meth:`unwrap_all`). ``trace_of(*args, **kwargs)`` names the trial
        a call belongs to, when its arguments say; ``note_of`` is called
        with the same arguments after the call returns and its value kept
        on the span (e.g. the size of the file a save just wrote)."""
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            trace = None if trace_of is None else trace_of(*args, **kwargs)
            span = recorder.begin(name, layer, trace)
            try:
                out = original(*args, **kwargs)
                if note_of is not None:
                    span.note = note_of(*args, **kwargs)
                return out
            finally:
                recorder.end(span)

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def count(self, owner, attr: str) -> List[int]:
        """Count calls of a method too hot to span (a span per call would
        cost more than the call): returns a one-element running total."""
        original = getattr(owner, attr)
        total = [0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            total[0] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))
        return total

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def self_times(
        self, window: Optional[Tuple[float, float]] = None
    ) -> Dict[int, float]:
        """span id -> duration minus its children's durations, each first
        clipped to ``window`` (a long-poll that began before the measured
        interval only counts for the part inside it)."""
        selfs = {s.id: clipped(s, window) for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                selfs[s.parent] -= clipped(s, window)
        return selfs

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")


def clipped(span: Span, window: Optional[Tuple[float, float]]) -> float:
    """The part of a span's duration that falls inside ``window``."""
    if window is None:
        return span.duration
    return max(0.0, min(span.end, window[1]) - max(span.start, window[0]))
