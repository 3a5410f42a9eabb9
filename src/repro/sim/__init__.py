"""Discrete-event simulation engine (simpy is not available offline)."""

from repro.sim.engine import Simulator, Priority, TimerHandle

__all__ = ["Simulator", "Priority", "TimerHandle"]
