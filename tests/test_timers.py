"""Timer API: ``TimerHandle``, ``TimerRegistry`` and the engine's one heap.

* unit tests of the handle lifecycle — arm, cancel, re-arm in place, revive
  after cancel or fire — through both arm entry points (``call_at`` and
  ``call_later``);
* a cancel-storm test — hundreds of pseudo-random arm/cancel/reschedule
  operations checked against a list sorted by ``(time, priority, seq)``;
* a hypothesis state machine that drives every scheduling verb against the
  same sorted-list model and checks the seq-liveness rule after each step:
  no cancelled or superseded arm ever fires, no arm fires twice.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.mac.base import TimerRegistry
from repro.sim.engine import Priority, Simulator, TimerHandle


def arm(sim: Simulator, absolute: bool, delay: float, fn, *args) -> TimerHandle:
    """Arm through ``call_at`` (absolute) or ``call_later``."""
    if absolute:
        return sim.call_at(sim.now + delay, fn, *args)
    return sim.call_later(delay, fn, *args)


#: Test ids of the ``absolute`` axis, named after the arm entry point.
ARM_IDS = ["call_at", "call_later"]


# ----------------------------------------------------------------------
# TimerHandle unit behaviour
# ----------------------------------------------------------------------
class TestTimerHandle:
    @pytest.mark.parametrize("absolute", [True, False], ids=ARM_IDS)
    def test_call_later_fires_and_cancel_is_o1(self, absolute):
        sim = Simulator()
        fired = []
        h1 = arm(sim, absolute, 1.0, fired.append, "a")
        h2 = arm(sim, absolute, 2.0, fired.append, "b")
        assert isinstance(h1, TimerHandle) and h1.pending
        h2.cancel()
        assert not h2.pending and h2.cancelled
        sim.run()
        assert fired == ["a"]
        assert not h1.pending  # fired handles are no longer pending
        assert not h1.cancelled

    @pytest.mark.parametrize("absolute", [True, False], ids=ARM_IDS)
    def test_reschedule_in_place_retargets(self, absolute):
        sim = Simulator()
        fired = []
        h = arm(sim, absolute, 5.0, fired.append, "x")
        assert h.reschedule(1.0) is h
        assert h.pending and h.time == 1.0
        assert sim.pending_count() == 1  # the superseded arm is not live
        sim.run(until=2.0)
        assert fired == ["x"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["x"]  # the orphaned t=5 entry never fires
        assert sim.now == 2.0

    @pytest.mark.parametrize("absolute", [True, False], ids=ARM_IDS)
    def test_reschedule_after_fire_revives_handle(self, absolute):
        """The periodic-timer idiom: re-arm the handle from its callback."""
        sim = Simulator()
        fires = []
        holder = {}

        def tick():
            fires.append(sim.now)
            if len(fires) < 3:
                assert holder["h"].reschedule(1.0) is holder["h"]

        holder["h"] = arm(sim, absolute, 1.0, tick)
        sim.run()
        assert fires == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("absolute", [True, False], ids=ARM_IDS)
    def test_cancelled_then_rescheduled_never_double_fires(self, absolute):
        sim = Simulator()
        fired = []
        h = arm(sim, absolute, 1.0, fired.append, "first")
        h.cancel()
        assert h.reschedule(2.0) is h
        assert h.pending and not h.cancelled
        sim.run()
        assert fired == ["first"]
        assert sim.now == 2.0  # fired at the rescheduled time only

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-0.1, lambda: None)
        h = sim.call_later(1.0, lambda: None)
        with pytest.raises(ValueError):
            h.reschedule(-1.0)

    @pytest.mark.parametrize("absolute", [True, False], ids=ARM_IDS)
    def test_pending_count_tracks_live_arms(self, absolute):
        sim = Simulator()
        handles = [arm(sim, absolute, 0.5 + i, lambda: None) for i in range(10)]
        assert sim.pending_count() == 10
        for h in handles[:4]:
            h.cancel()
            h.cancel()  # idempotent: counted once
        assert sim.pending_count() == 6
        sim.run()
        assert sim.pending_count() == 0


class TestLockstep:
    def test_same_instant_priority_order_preserved(self):
        sim = Simulator()
        order = []
        sim.call_later(1.0, order.append, "late", priority=Priority.LATE)
        sim.call_later(1.0, order.append, "start", priority=Priority.FRAME_START)
        sim.schedule_call(1.0, order.append, ("normal",))
        sim.call_later(1.0, order.append, "end", priority=Priority.FRAME_END)
        sim.run()
        assert order == ["end", "normal", "start", "late"]


# ----------------------------------------------------------------------
# Cancel storm against a sorted-list reference
# ----------------------------------------------------------------------
class TestCancelStorm:
    @pytest.mark.parametrize("seed", [7, 77, 777])
    def test_random_arm_cancel_reschedule_storm(self, seed):
        """Invariants under a pseudo-random operation storm:

        * a cancelled arm never fires, every live arm fires exactly once;
        * ``pending_count`` equals the model's live-set size at every step;
        * the fire sequence equals the reference's — the model's live arms
          sorted by ``(time, priority, seq)`` (one priority here, and the
          model's arm counter advances exactly when the engine's seq does).
        """
        sim = Simulator()
        rng = np.random.default_rng(seed)
        fired: list = []
        expected: list = []
        handles: dict = {}  # uid -> handle
        live: dict = {}  # uid -> (time, arm order): the reference queue
        arms = 0

        def reference_run(until):
            due = sorted((key, uid) for uid, key in live.items() if key[0] <= until)
            for (time, _), uid in due:
                expected.append((time, uid))
                del live[uid]

        def fire(uid):
            fired.append((sim.now, uid))

        for _ in range(400):
            op = int(rng.integers(0, 10))
            if 5 <= op < 7 and live:  # cancel a live arm
                uid = list(live)[int(rng.integers(0, len(live)))]
                handles[uid].cancel()
                del live[uid]
            else:
                d = float(rng.integers(0, 1 << 14)) / 16384.0
                if op < 5 or not live:  # arm fresh
                    uid = len(handles)
                    handles[uid] = sim.call_later(d, fire, uid)
                else:  # reschedule a live arm
                    uid = list(live)[int(rng.integers(0, len(live)))]
                    assert handles[uid].reschedule(d) is handles[uid]
                live[uid] = (sim.now + d, arms)
                arms += 1
            assert sim.pending_count() == len(live)
            # Occasionally advance time so arms interleave with ops.
            if op == 9:
                sim.run(until=sim.now + 1e-3)
                reference_run(sim.now)
                assert fired == expected
        sim.run()
        reference_run(float("inf"))
        assert sim.pending_count() == 0
        assert fired == expected
        assert sim.events_processed == len(fired)
        fired_uids = [uid for _, uid in fired]
        assert len(fired_uids) == len(set(fired_uids))  # nothing double-fired


# ----------------------------------------------------------------------
# Every scheduling verb against the sorted-list model
# ----------------------------------------------------------------------
_DELAYS = st.integers(0, 64).map(lambda k: k / 1024.0)
_PRIORITIES = st.sampled_from(list(Priority))


class EngineMachine(RuleBasedStateMachine):
    """``Simulator`` vs. a dict of live arms sorted by (time, priority, order).

    Every arm (fresh or ``reschedule``) takes the next ``order`` in the
    model exactly where the engine takes its next seq, so the model's sort
    is the engine's contract. A handle's callback logs the handle's index;
    a superseded or cancelled arm that fired anyway, or an arm that fired
    twice, would show up as a log entry the model does not have.
    """

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.fired = []  # (time, key) as the engine ran them
        self.expected = []  # (time, key) as the model orders them
        self.handles = []  # every TimerHandle handed out; key = index
        self.live = {}  # key -> (time, priority, order)
        self.cancelled = set()  # handle keys cancelled and not re-armed
        self.order = 0
        self.now = 0.0

    def _fire(self, key):
        self.fired.append((self.sim.now, key))

    def _model_arm(self, key, time, priority):
        self.live[key] = (time, int(priority), self.order)
        self.order += 1
        self.cancelled.discard(key)

    def _model_pop_due(self, until):
        due = sorted((arm, key) for key, arm in self.live.items() if arm[0] <= until)
        for arm, key in due:
            self.expected.append((arm[0], key))
            del self.live[key]

    def _keys_in(self, state):
        keys = range(len(self.handles))
        if state == "pending":
            return [k for k in keys if k in self.live]
        if state == "cancelled":
            return [k for k in keys if k in self.cancelled]
        return [k for k in keys if k not in self.live and k not in self.cancelled]

    # -- arms ----------------------------------------------------------
    @rule(delay=_DELAYS, priority=_PRIORITIES)
    def call_later(self, delay, priority):
        key = len(self.handles)
        self.handles.append(
            self.sim.call_later(delay, self._fire, key, priority=priority)
        )
        self._model_arm(key, self.now + delay, priority)

    @rule(delay=_DELAYS, priority=_PRIORITIES)
    def call_at(self, delay, priority):
        key = len(self.handles)
        time = self.now + delay
        self.handles.append(
            self.sim.call_at(time, self._fire, key, priority=priority)
        )
        self._model_arm(key, time, priority)

    @rule(delay=_DELAYS, priority=_PRIORITIES)
    def schedule_call(self, delay, priority):
        key = ("call", self.order)  # unique: order advances on every arm
        self.sim.schedule_call(delay, self._fire, (key,), priority)
        self._model_arm(key, self.now + delay, priority)

    # -- cancel / re-arm -----------------------------------------------
    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(0, 1 << 16))
    def cancel(self, pick):
        key = pick % len(self.handles)
        self.handles[key].cancel()
        if self.live.pop(key, None) is not None:
            self.cancelled.add(key)

    @precondition(lambda self: self.handles)
    @rule(
        state=st.sampled_from(["pending", "cancelled", "fired"]),
        pick=st.integers(0, 1 << 16),
        delay=_DELAYS,
    )
    def reschedule(self, state, pick, delay):
        keys = self._keys_in(state)
        if not keys:
            return
        key = keys[pick % len(keys)]
        handle = self.handles[key]
        assert handle.reschedule(delay) is handle
        self._model_arm(key, self.now + delay, handle.priority)

    # -- the way off the heap ------------------------------------------
    @rule(delta=_DELAYS)
    def run_until(self, delta):
        self.now += delta
        self.sim.run(until=self.now)
        self._model_pop_due(self.now)

    @rule()
    def step(self):
        ran = self.sim.step()
        assert ran == bool(self.live)
        if ran:
            key = min(self.live, key=self.live.get)
            self.now = self.live.pop(key)[0]
            self.expected.append((self.now, key))

    @rule()
    def peek_time(self):
        # A rule, not an invariant: peek_time drops orphaned entries off the
        # head of the heap, which would hide them from step() and run().
        times = [arm[0] for arm in self.live.values()]
        assert self.sim.peek_time() == (min(times) if times else None)

    # -- checked after every step --------------------------------------
    @invariant()
    def engine_matches_model(self):
        assert self.fired == self.expected
        assert self.sim.now == self.now
        assert self.sim.pending_count() == len(self.live)
        for key, handle in enumerate(self.handles):
            assert handle.pending == (key in self.live)
            assert handle.cancelled == (key in self.cancelled)

    def teardown(self):
        self.sim.run()
        self._model_pop_due(float("inf"))
        assert self.fired == self.expected
        assert self.sim.pending_count() == 0
        assert self.sim._heap == []  # every orphaned entry was dropped


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


# ----------------------------------------------------------------------
# TimerRegistry semantics
# ----------------------------------------------------------------------
class TestTimerRegistry:
    def test_arm_supersedes_and_reuses_handle(self):
        sim = Simulator()
        reg = TimerRegistry(sim)
        fired = []
        cb = lambda: fired.append(sim.now)  # noqa: E731
        reg.arm("t", 5.0, cb)
        first = reg._timers["t"]
        reg.arm("t", 1.0, cb)  # supersede: earlier deadline wins
        assert reg._timers["t"] is first  # same-callback re-arm reuses
        sim.run()
        assert fired == [1.0]

    def test_cancel_then_rearm_revives(self):
        sim = Simulator()
        reg = TimerRegistry(sim)
        fired = []
        cb = lambda: fired.append(sim.now)  # noqa: E731
        reg.arm("t", 1.0, cb)
        reg.cancel("t")
        assert not reg.is_armed("t")
        reg.arm("t", 2.0, cb)
        assert reg.is_armed("t") and reg.fire_time("t") == 2.0
        sim.run()
        assert fired == [2.0]

    def test_cancel_all_drains(self):
        sim = Simulator()
        reg = TimerRegistry(sim)
        for i in range(5):
            reg.arm(("win", i), 1.0 + i, lambda: None, i)
        assert reg.pending_count() == 5
        reg.cancel_all()
        assert reg.pending_count() == 0
        sim.run()
        assert sim.now == 0.0  # nothing left to fire

    def test_tuple_names_are_independent(self):
        sim = Simulator()
        reg = TimerRegistry(sim)
        hits = []
        reg.arm(("win", 1), 1.0, hits.append, 1)
        reg.arm(("win", 2), 2.0, hits.append, 2)
        reg.cancel(("win", 1))
        sim.run()
        assert hits == [2]
