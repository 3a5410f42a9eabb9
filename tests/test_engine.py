"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Priority, Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        out = []
        sim.call_later(2.0, out.append, "b")
        sim.call_later(1.0, out.append, "a")
        sim.call_later(3.0, out.append, "c")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        out = []
        sim.call_at(5.0, out.append, "x")
        sim.run()
        assert out == ["x"] and sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda: None)

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        out = []

        def first():
            sim.call_later(0.0, out.append, "nested")
            out.append("first")

        sim.call_later(1.0, first)
        sim.run()
        assert out == ["first", "nested"]


class TestPriorities:
    def test_frame_end_before_frame_start_at_same_instant(self):
        sim = Simulator()
        out = []
        sim.call_later(1.0, out.append, "start", priority=Priority.FRAME_START)
        sim.call_later(1.0, out.append, "end", priority=Priority.FRAME_END)
        sim.call_later(1.0, out.append, "normal", priority=Priority.NORMAL)
        sim.run()
        assert out == ["end", "normal", "start"]

    def test_same_priority_fifo(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.call_later(1.0, out.append, i)
        sim.run()
        assert out == [0, 1, 2, 3, 4]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        out = []
        ev = sim.call_later(1.0, out.append, "x")
        ev.cancel()
        sim.run()
        assert out == []

    def test_cancel_from_within_earlier_event(self):
        sim = Simulator()
        out = []
        later = sim.call_later(2.0, out.append, "later")
        sim.call_later(1.0, later.cancel)
        sim.run()
        assert out == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        out = []
        ev = sim.call_later(1.0, out.append, "x")
        sim.run()
        ev.cancel()  # must not raise
        assert out == ["x"]

    def test_pending_count_skips_cancelled(self):
        sim = Simulator()
        ev1 = sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        ev1.cancel()
        assert sim.pending_count() == 1

    def test_pending_count_constant_time_under_cancels(self):
        """pending_count is a live counter: correct through heavy cancel
        traffic, double-cancels, and cancels of already-fired events."""
        sim = Simulator()
        events = [sim.call_later(float(i + 1), lambda: None) for i in range(100)]
        assert sim.pending_count() == 100
        for ev in events[::2]:
            ev.cancel()
        assert sim.pending_count() == 50
        for ev in events[::2]:
            ev.cancel()  # double-cancel must not double-decrement
        assert sim.pending_count() == 50
        sim.run()
        assert sim.pending_count() == 0
        for ev in events:
            ev.cancel()  # cancel-after-fire must not go negative
        assert sim.pending_count() == 0
        assert sim.events_processed == 50

    def test_pending_count_counts_mid_run_schedules(self):
        sim = Simulator()

        def first():
            sim.call_later(1.0, lambda: None)
            assert sim.pending_count() == 1

        sim.call_later(1.0, first)
        sim.run()
        assert sim.pending_count() == 0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        out = []
        sim.call_later(1.0, out.append, "a")
        sim.call_later(5.0, out.append, "b")
        sim.run(until=3.0)
        assert out == ["a"]
        assert sim.now == 3.0

    def test_run_until_advances_clock_when_queue_drains(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_resume_after_until(self):
        sim = Simulator()
        out = []
        sim.call_later(1.0, out.append, "a")
        sim.call_later(5.0, out.append, "b")
        sim.run(until=3.0)
        sim.run()
        assert out == ["a", "b"]

    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        out = []
        sim.call_later(3.0, out.append, "edge")
        sim.run(until=3.0)
        assert out == ["edge"]

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        ev = sim.call_later(2.0, lambda: None)
        assert sim.peek_time() == 2.0
        ev.cancel()
        assert sim.peek_time() is None

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.call_later(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestStep:
    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_runs_one_event(self):
        sim = Simulator()
        out = []
        sim.call_later(1.0, out.append, "a")
        sim.call_later(2.0, out.append, "b")
        assert sim.step() is True
        assert out == ["a"]


class TestFastPaths:
    def test_schedule_call_runs_in_order(self):
        sim = Simulator()
        out = []
        sim.schedule_call(2.0, out.append, ("b",))
        sim.call_later(1.0, out.append, "a")
        sim.schedule_call(3.0, out.append, ("c",))
        sim.run()
        assert out == ["a", "b", "c"]
        assert sim.events_processed == 3

    def test_schedule_call_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_call(-0.5, lambda: None)

    def test_schedule_fanout_orders_start_now_end_later(self):
        sim = Simulator()
        out = []
        sim.schedule_fanout(
            1.0, out.append, ("start",), out.append, ("end",)
        )
        sim.call_later(0.5, out.append, "mid")
        sim.run()
        assert out == ["start", "mid", "end"]
        assert sim.pending_count() == 0

    def test_schedule_fanout_end_priority_beats_same_time_normal(self):
        # A frame end at time T must run before a NORMAL event at T.
        sim = Simulator()
        out = []
        sim.call_later(1.0, out.append, "normal")
        sim.schedule_fanout(1.0, None, (), out.append, ("end",))
        sim.run()
        assert out == ["end", "normal"]

    def test_schedule_fanout_without_start(self):
        sim = Simulator()
        out = []
        sim.schedule_fanout(2.0, None, (), out.append, ("end",))
        assert sim.pending_count() == 1
        sim.run()
        assert out == ["end"]

    def test_credit_events_augments_logical_count(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: sim.credit_events(4))
        sim.run()
        # 1 heap event + 4 credited batched deliveries.
        assert sim.events_processed == 5


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
def test_property_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.call_later(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.sampled_from(list(Priority)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_priority_order_within_same_instant(items):
    sim = Simulator()
    fired = []
    for delay, prio in items:
        sim.call_later(delay, lambda d=delay, p=prio: fired.append((sim.now, p)), priority=prio)
    sim.run()
    # Within equal timestamps, priorities must be non-decreasing.
    for (t1, p1), (t2, p2) in zip(fired, fired[1:]):
        assert t1 <= t2
        if t1 == t2:
            assert p1 <= p2
