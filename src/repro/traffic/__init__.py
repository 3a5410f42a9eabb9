"""Traffic generation and delivery accounting."""

from repro.traffic.generators import (
    SaturatedSource,
    CbrSource,
    SinkRegistry,
    FlowRecord,
)

__all__ = [
    "SaturatedSource",
    "CbrSource",
    "SinkRegistry",
    "FlowRecord",
]
