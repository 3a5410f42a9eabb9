"""Deterministic fault injection for the sweep stack.

Persistence is a protocol, not an assumption — the only way to know the
coordinator survives a dead worker, a locked run-table, or a kill -9
mid-write is to inject exactly those faults and assert the recovery. A
:class:`FaultPlan` is a seedable, serializable list of :class:`FaultRule`
entries, each naming a *site* (a hook point in the stack), an optional
*key* (e.g. a trial id), the Nth matching call at which to fire, and an
action. Plans ride into subprocesses as JSON files, so one plan
describes a whole distributed failure script.

Hook contract (the tested surface — see DESIGN.md "Failure domains"):

==================== ============================ ========================
site                 key                          actions that make sense
==================== ============================ ========================
``store.save``       store path                   raise (OSError)
``runtable.execute`` None (every statement)       raise (OperationalError)
``trial.run``        trial id                     raise / hang / kill / crash
``client.request``   request path                 drop / truncate
``coordinator.record`` trial id                   kill / crash
``worker.request``   request path                 drop / delay / truncate
``worker.upload``    trial id                     drop / delay / truncate / duplicate
``worker.heartbeat`` job id                       drop / delay
==================== ============================ ========================

The three ``worker.*`` sites live in the remote worker daemon's transport
(see ``repro.service.worker``): ``drop`` fails the request before it is
sent (a partition), ``delay`` sleeps ``hang_s`` first (a slow link — the
request still goes out, late), ``truncate`` sends the request but loses
the response (the server processed it; the retry must deduplicate), and
``duplicate`` sends the same upload twice (exactly one row may land).

Every hookable object holds an optional ``fault_hook`` that defaults to
``None`` and is checked with a single ``is not None`` — production runs
pay nothing. ``fire(site, key)`` performs raise/hang/kill/crash actions
itself and *returns* the rule for caller-implemented actions (drop,
truncate, duplicate), so call sites stay one line.

Actions that must fire **exactly once across processes and restarts**
(killing the coordinator) set ``once=True`` and
the plan claims an ``O_CREAT|O_EXCL`` token file under ``state_dir``
before firing — the restarted process loads the same plan but finds the
token and stays alive. That is what makes a chaos run terminate.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import SimulatedCrash

#: Exit code used by the ``kill`` action, distinctive in waitpid output.
KILL_EXIT_CODE = 70

#: Exception factories the ``raise`` action can name on the wire.
_EXC_FACTORIES = {
    "OSError": OSError,
    "IOError": OSError,
    "ConnectionError": ConnectionError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "sqlite3.OperationalError": sqlite3.OperationalError,
}

_ACTIONS = frozenset(
    {"raise", "hang", "kill", "crash", "drop", "truncate", "delay",
     "duplicate"}
)

#: Every hook point the stack fires (the table above). A rule naming any
#: other site would never match, so a chaos run would pass without it.
_SITES = frozenset(
    {"store.save", "runtable.execute", "trial.run", "client.request",
     "coordinator.record", "worker.request", "worker.upload",
     "worker.heartbeat"}
)


@dataclass
class FaultRule:
    """One scripted fault: fire ``action`` at the ``nth``..``nth+times-1``
    matching call to ``fire(site, key)``. ``times=0`` means forever;
    ``once=True`` additionally caps the rule to a single firing across
    every process sharing the plan's ``state_dir``."""

    site: str
    action: str
    key: Optional[str] = None
    nth: int = 1
    times: int = 1
    exc: str = "OSError"
    message: str = "injected fault"
    hang_s: float = 0.0
    once: bool = False
    #: Runtime state, not serialized: matching-call count in this process.
    calls: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        if self.site not in _SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; want one of "
                f"{sorted(_SITES)}"
            )
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; want one of "
                f"{sorted(_ACTIONS)}"
            )
        if self.action == "raise" and self.exc not in _EXC_FACTORIES:
            raise ValueError(
                f"unknown exception {self.exc!r}; want one of "
                f"{sorted(_EXC_FACTORIES)}"
            )
        if self.nth < 1:
            raise ValueError(f"nth is 1-based, got {self.nth}")

    def matches(self, site: str, key: Optional[str]) -> bool:
        return self.site == site and (self.key is None or self.key == key)

    def due(self) -> bool:
        """Whether the current (just-counted) call falls in the fire window."""
        if self.calls < self.nth:
            return False
        return self.times == 0 or self.calls < self.nth + self.times

    def to_wire(self) -> dict:
        return {
            "site": self.site,
            "action": self.action,
            "key": self.key,
            "nth": self.nth,
            "times": self.times,
            "exc": self.exc,
            "message": self.message,
            "hang_s": self.hang_s,
            "once": self.once,
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "FaultRule":
        return cls(
            site=str(obj["site"]),
            action=str(obj["action"]),
            key=obj.get("key"),
            nth=int(obj.get("nth", 1)),
            times=int(obj.get("times", 1)),
            exc=str(obj.get("exc", "OSError")),
            message=str(obj.get("message", "injected fault")),
            hang_s=float(obj.get("hang_s", 0.0)),
            once=bool(obj.get("once", False)),
        )


class FaultPlan:
    """An ordered list of fault rules plus the shared exactly-once state.

    ``fire`` is thread-safe (the coordinator's workers and HTTP threads
    share one plan). ``seed`` exists so helpers like
    :func:`build_soak_plan` derive victims deterministically — two runs of
    the same plan against the same sweep inject the same faults.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule] = (),
        seed: int = 0,
        state_dir: Optional[str] = None,
    ):
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self.state_dir = state_dir
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def fire(self, site: str, key: Optional[str] = None) -> Optional[FaultRule]:
        """Count a call at ``site``/``key`` and perform any due rule.

        raise/hang/kill/crash are performed here, and so is the sleep half
        of ``delay`` (the caller then proceeds normally — a slow link, not
        a dead one); drop/truncate/duplicate are returned for the
        caller to implement (first due rule wins).
        """
        due: List[FaultRule] = []
        with self._lock:
            for rule in self.rules:
                if not rule.matches(site, key):
                    continue
                rule.calls += 1
                if rule.due() and self._claim(rule):
                    due.append(rule)
        handed_back: Optional[FaultRule] = None
        for rule in due:
            if rule.action == "raise":
                raise _EXC_FACTORIES[rule.exc](rule.message)
            if rule.action == "crash":
                raise SimulatedCrash(rule.message)
            if rule.action in ("hang", "delay"):
                time.sleep(rule.hang_s)
            elif rule.action == "kill":
                os._exit(KILL_EXIT_CODE)
            elif handed_back is None:
                handed_back = rule
        return handed_back

    def _claim(self, rule: FaultRule) -> bool:
        """Exactly-once gate: claim the rule's token file atomically.

        Rules without ``once`` always fire. With ``once`` but no
        ``state_dir``, the in-process call counter is the only gate (the
        single-process case). With both, the first claimer across every
        process and restart wins."""
        if not rule.once or self.state_dir is None:
            return True
        os.makedirs(self.state_dir, exist_ok=True)
        token = os.path.join(
            self.state_dir, f"fired-{self.rules.index(rule)}.token"
        )
        try:
            fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as f:
            f.write(f"{rule.site} {rule.key or ''} {rule.action}\n")
        return True

    # ------------------------------------------------------------------
    # Wire format (ships into subprocesses)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        return {
            "seed": self.seed,
            "state_dir": self.state_dir,
            "rules": [r.to_wire() for r in self.rules],
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "FaultPlan":
        return cls(
            rules=[FaultRule.from_wire(r) for r in obj.get("rules", [])],
            seed=int(obj.get("seed", 0)),
            state_dir=obj.get("state_dir"),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_wire(), f, indent=2)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as f:
            return cls.from_wire(json.load(f))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"


# ----------------------------------------------------------------------
# Canned plans
# ----------------------------------------------------------------------
def build_soak_plan(
    trial_ids: Sequence[str],
    seed: int = 0,
    state_dir: Optional[str] = None,
    hang_s: float = 0.3,
) -> FaultPlan:
    """The chaos-soak script: one hung trial (seed-chosen victim), one
    injected store error, a sqlite busy burst, and one simulated
    coordinator crash — the in-process counterpart of the subprocess
    ``smoke-chaos`` plan. The hang victim is derived from ``seed`` so the
    same plan hits the same trial every run."""
    if not trial_ids:
        raise ValueError("soak plan needs at least one trial id")
    rng = random.Random(seed)
    victim = trial_ids[rng.randrange(len(trial_ids))]
    return FaultPlan(
        rules=[
            FaultRule(site="trial.run", key=victim, action="hang",
                      hang_s=hang_s, times=0),
            FaultRule(site="store.save", action="raise", exc="OSError",
                      message="injected store write failure", nth=2),
            FaultRule(site="runtable.execute", action="raise",
                      exc="sqlite3.OperationalError",
                      message="database is locked (injected)",
                      nth=5, times=2),
            FaultRule(site="coordinator.record", action="crash",
                      message="injected coordinator crash", nth=2,
                      once=True),
        ],
        seed=seed,
        state_dir=state_dir,
    )


def canned_plan(name: str, state_dir: Optional[str] = None) -> FaultPlan:
    """Named plans for CI and the ``--fault-plan`` CLI flag.

    * ``smoke-chaos`` — the subprocess chaos-smoke script: one injected
      store write error (absorbed by the save retry), a sqlite busy burst
      (absorbed by the busy retry), and one coordinator ``kill`` after the
      second recorded trial (the harness restarts the server, which finds
      the token file and stays up).
    * ``worker-chaos`` — the remote-worker transport script: a delayed
      request (slow link), a dropped lease poll (brief partition — the
      poll loop retries), an upload sent twice (the fenced run-table may
      land exactly one row), an upload whose response is truncated (the
      server recorded it; the transport retry must deduplicate), and two
      dropped heartbeats (absorbed: the lease outlives them).
    * ``none`` — an empty plan (hook wiring with zero rules).
    """
    if name == "none":
        return FaultPlan(state_dir=state_dir)
    if name == "worker-chaos":
        return FaultPlan(
            rules=[
                FaultRule(site="worker.request", action="delay",
                          hang_s=0.05, nth=2, times=2),
                FaultRule(site="worker.request", action="drop", nth=5),
                FaultRule(site="worker.upload", action="duplicate", nth=1),
                FaultRule(site="worker.upload", action="truncate", nth=3),
                FaultRule(site="worker.heartbeat", action="drop", nth=1,
                          times=2),
            ],
            state_dir=state_dir,
        )
    if name == "smoke-chaos":
        return FaultPlan(
            rules=[
                FaultRule(site="store.save", action="raise", exc="OSError",
                          message="injected store write failure", nth=1),
                FaultRule(site="runtable.execute", action="raise",
                          exc="sqlite3.OperationalError",
                          message="database is locked (injected)",
                          nth=4, times=2),
                FaultRule(site="coordinator.record", action="kill", nth=2,
                          once=True),
            ],
            state_dir=state_dir,
        )
    raise ValueError(f"unknown canned fault plan {name!r}")


def load_plan(spec: str, state_dir: Optional[str] = None) -> FaultPlan:
    """Resolve a ``--fault-plan`` value: a canned name or a JSON file path.
    The plan's state dir defaults to ``state_dir`` when the wire/canned
    form does not pin one (exactly-once tokens need a stable home)."""
    if os.path.exists(spec):
        plan = FaultPlan.load(spec)
    else:
        plan = canned_plan(spec, state_dir=state_dir)
    if plan.state_dir is None:
        plan.state_dir = state_dir
    return plan


def describe(plan: Optional[FaultPlan]) -> str:
    if plan is None or not plan.rules:
        return "no faults"
    return ", ".join(
        f"{r.site}[{r.key or '*'}]#{r.nth}x{r.times or '∞'}:{r.action}"
        for r in plan.rules
    )


__all__ = [
    "FaultPlan",
    "FaultRule",
    "KILL_EXIT_CODE",
    "build_soak_plan",
    "canned_plan",
    "load_plan",
    "describe",
]

