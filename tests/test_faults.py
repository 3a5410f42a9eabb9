"""Unit tests for the error taxonomy and the fault-injection plans."""

import json
import sqlite3
import time

import pytest

from repro.errors import (
    PermanentError,
    SimulatedCrash,
    TransientError,
    TrialHungError,
    classify,
    error_class,
    is_transient,
)
from repro.service.faults import (
    FaultPlan,
    FaultRule,
    build_soak_plan,
    canned_plan,
    describe,
    load_plan,
)

#: A site that no hook fires any more (the process pool's worker site):
#: plans written for it must fail to load, not inject nothing.
GONE_SITE = "pool.worker"


class TestTaxonomy:
    @pytest.mark.parametrize("exc", [
        OSError("disk"),
        ConnectionError("reset"),
        TimeoutError("slow"),
        sqlite3.OperationalError("database is locked"),
        EOFError(),
        TransientError("ours"),
        BrokenPipeError("peer gone"),
    ])
    def test_transient(self, exc):
        assert is_transient(exc)
        assert classify(exc) == "transient"

    @pytest.mark.parametrize("exc", [
        ValueError("bad input"),
        KeyError("missing"),
        RuntimeError("bug"),
        PermanentError("ours"),
        TrialHungError("wedged"),
        SimulatedCrash("injected"),
    ])
    def test_permanent(self, exc):
        assert not is_transient(exc)
        assert classify(exc) == "permanent"

    def test_broken_process_pool_is_permanent(self):
        """Only the ``cli --jobs`` pool raises it, and nothing retries
        there: the run ends and ``--resume`` continues it."""
        from concurrent.futures.process import BrokenProcessPool

        assert not is_transient(BrokenProcessPool("worker died"))

    def test_error_class_is_the_short_name(self):
        assert error_class(ValueError("x")) == "ValueError"
        assert error_class(TrialHungError("x")) == "TrialHungError"


class TestFaultRule:
    def test_nth_times_window(self):
        rule = FaultRule(site="worker.request", action="drop", nth=2, times=2)
        fired = []
        for _ in range(5):
            rule.calls += 1
            fired.append(rule.due())
        assert fired == [False, True, True, False, False]

    def test_times_zero_means_forever(self):
        rule = FaultRule(site="worker.request", action="drop", nth=3, times=0)
        rule.calls = 100
        assert rule.due()

    def test_key_matching(self):
        rule = FaultRule(site="worker.upload", action="drop", key="a")
        assert rule.matches("worker.upload", "a")
        assert not rule.matches("worker.upload", "b")
        assert not rule.matches("worker.request", "a")
        anykey = FaultRule(site="worker.upload", action="drop")
        assert anykey.matches("worker.upload", "whatever")

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="store.save", action="explode")
        with pytest.raises(ValueError, match="unknown exception"):
            FaultRule(site="store.save", action="raise", exc="MadeUpError")
        with pytest.raises(ValueError, match="1-based"):
            FaultRule(site="worker.request", action="drop", nth=0)

    @pytest.mark.parametrize("site", [GONE_SITE, "trial.runn", "s"])
    def test_unknown_site_is_rejected(self, site):
        """A rule no hook fires would inject nothing, and a chaos run
        would pass without its faults."""
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site=site, action="kill")

    def test_wire_round_trip(self):
        rule = FaultRule(site="trial.run", action="hang", key="t/3",
                         nth=2, times=0, hang_s=0.5, once=True)
        again = FaultRule.from_wire(rule.to_wire())
        assert again == rule


class TestFaultPlan:
    def test_raise_action(self):
        plan = FaultPlan([FaultRule(site="store.save", action="raise",
                                    exc="OSError", message="boom")])
        with pytest.raises(OSError, match="boom"):
            plan.fire("store.save", "any")
        # window exhausted: subsequent calls pass clean
        assert plan.fire("store.save", "any") is None

    def test_raise_sqlite_operational(self):
        plan = FaultPlan([FaultRule(site="runtable.execute", action="raise",
                                    exc="sqlite3.OperationalError",
                                    message="database is locked")])
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            plan.fire("runtable.execute")

    def test_crash_action_raises_simulated_crash(self):
        plan = FaultPlan([FaultRule(site="coordinator.record",
                                    action="crash")])
        with pytest.raises(SimulatedCrash):
            plan.fire("coordinator.record", "t/0")

    def test_hang_action_sleeps(self):
        plan = FaultPlan([FaultRule(site="trial.run", action="hang",
                                    hang_s=0.05)])
        t0 = time.monotonic()
        assert plan.fire("trial.run", "t/0") is None
        assert time.monotonic() - t0 >= 0.05

    def test_drop_rule_is_handed_back(self):
        plan = FaultPlan([FaultRule(site="client.request", action="drop",
                                    key="/jobs")])
        rule = plan.fire("client.request", "/jobs")
        assert rule is not None and rule.action == "drop"
        assert plan.fire("client.request", "/other") is None

    def test_unmatched_site_costs_nothing(self):
        plan = FaultPlan([FaultRule(site="store.save", action="raise")])
        assert plan.fire("trial.run", "t/0") is None
        assert plan.rules[0].calls == 0

    def test_wire_and_file_round_trip(self, tmp_path):
        plan = FaultPlan(
            [FaultRule(site="worker.request", action="drop"),
             FaultRule(site="coordinator.record", action="kill", once=True)],
            seed=7, state_dir=str(tmp_path / "tokens"),
        )
        again = FaultPlan.from_wire(plan.to_wire())
        assert again.rules == plan.rules
        assert (again.seed, again.state_dir) == (plan.seed, plan.state_dir)

        path = str(tmp_path / "plan.json")
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.rules == plan.rules

    def test_once_token_is_exactly_once_across_plans(self, tmp_path):
        """Two plans sharing a state_dir model one plan loaded by two
        processes (or a restart): the rule fires in exactly one of them."""
        state = str(tmp_path / "tokens")

        def make():
            return FaultPlan(
                [FaultRule(site="store.save", action="raise", exc="OSError",
                           once=True)],
                state_dir=state,
            )

        first = make()
        with pytest.raises(OSError):
            first.fire("store.save")
        # same plan, fresh process: the token is already claimed
        second = make()
        assert second.fire("store.save") is None

    def test_once_without_state_dir_uses_the_call_window(self):
        plan = FaultPlan([FaultRule(site="store.save", action="raise",
                                    exc="OSError", once=True)])
        with pytest.raises(OSError):
            plan.fire("store.save")
        assert plan.fire("store.save") is None


class TestCannedPlans:
    def test_soak_plan_victim_is_seed_deterministic(self):
        ids = [f"t/{i}" for i in range(10)]
        a = build_soak_plan(ids, seed=3)
        b = build_soak_plan(ids, seed=3)
        assert a.rules[0].key == b.rules[0].key
        assert a.rules[0].action == "hang" and a.rules[0].times == 0

    def test_soak_plan_needs_trials(self):
        with pytest.raises(ValueError):
            build_soak_plan([])

    def test_canned_names(self):
        assert canned_plan("none").rules == []
        smoke = canned_plan("smoke-chaos")
        assert {r.site for r in smoke.rules} == {
            "store.save", "runtable.execute", "coordinator.record",
        }
        with pytest.raises(ValueError, match="unknown canned"):
            canned_plan("nope")

    def test_load_plan_resolves_name_or_path(self, tmp_path):
        plan = load_plan("smoke-chaos", state_dir=str(tmp_path))
        assert plan.state_dir == str(tmp_path)

        path = str(tmp_path / "p.json")
        FaultPlan([FaultRule(site="client.request", action="drop")]).save(path)
        loaded = load_plan(path, state_dir=str(tmp_path))
        assert loaded.rules[0].site == "client.request"
        assert loaded.state_dir == str(tmp_path)

    def test_load_plan_rejects_an_unknown_site_in_one_line(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"rules": [
            {"site": GONE_SITE, "action": "kill", "key": "t/0"},
        ]}))
        with pytest.raises(ValueError) as exc:
            load_plan(str(path))
        assert f"unknown fault site {GONE_SITE!r}" in str(exc.value)
        assert "\n" not in str(exc.value)

        from repro.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(["work", "--url", "http://127.0.0.1:9",
                  "--fault-plan", str(path)])
        assert f"unknown fault site {GONE_SITE!r}" in exit_.value.code
        assert "\n" not in exit_.value.code

    def test_describe(self):
        assert describe(None) == "no faults"
        assert describe(FaultPlan()) == "no faults"
        text = describe(canned_plan("smoke-chaos"))
        assert "store.save" in text and "kill" in text
