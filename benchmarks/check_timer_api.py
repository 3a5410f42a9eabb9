"""CI gate: one way to arm a cancellable timer, one place MACs cancel it.

The engine has three ways onto its heap — ``call_later``/``call_at``
(cancellable :class:`repro.sim.engine.TimerHandle`), ``schedule_call``
(fire-and-forget) and ``schedule_fanout`` (frame pairs) — and MACs reach
the first only through ``self.timers`` (a
:class:`repro.mac.base.TimerRegistry` of named, handle-reusing timers
drained by the final ``MacBase.stop``). This lint walks the AST of every
file under ``src/repro/`` and fails when one of them:

* constructs ``Event(...)`` (``threading.Event`` excepted) or calls
  ``.schedule(...)`` / ``.schedule_at(...)`` — the raw-event API the engine
  no longer has, so a second scheduling path cannot grow back;

and, for files under ``src/repro/mac/`` plus ``src/repro/core/cmap_mac.py``,
when one of them:

* calls ``.cancel(...)`` on anything other than the timer registry
  (``*.timers.cancel(name)``). The registry's own implementation inside
  ``TimerRegistry`` is the one sanctioned place handles are cancelled.

Usage::

    python benchmarks/check_timer_api.py
"""

from __future__ import annotations

import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO, "src", "repro")
MAC_DIR = os.path.join(SRC_DIR, "mac")
MAC_FILES = [os.path.join(SRC_DIR, "core", "cmap_mac.py")]

BANNED_SCHEDULERS = {"schedule", "schedule_at"}


def is_mac_file(path: str) -> bool:
    return path.startswith(MAC_DIR + os.sep) or path in MAC_FILES


def lint_file(path: str, mac_rules: bool) -> list:
    """Return (line, message) violations for one file.

    ``mac_rules`` adds the cancel-only-through-the-registry rule.
    """
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)

    violations = []

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self._class_stack: list = []

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self._class_stack.append(node.name)
            self.generic_visit(node)
            self._class_stack.pop()

        def visit_Call(self, node: ast.Call) -> None:
            func = node.func
            if isinstance(func, ast.Name) and func.id == "Event":
                violations.append(
                    (node.lineno, "constructs a raw engine Event")
                )
            if isinstance(func, ast.Attribute):
                if func.attr == "Event":
                    owner = func.value
                    if not (
                        isinstance(owner, ast.Name) and owner.id == "threading"
                    ):
                        violations.append(
                            (node.lineno, "constructs a raw engine Event")
                        )
                elif func.attr in BANNED_SCHEDULERS:
                    violations.append(
                        (
                            node.lineno,
                            f"calls .{func.attr}(...) — use call_later / "
                            "call_at (self.timers.arm(name, ...) in a MAC), "
                            "or schedule_call for fire-and-forget",
                        )
                    )
                elif (
                    mac_rules
                    and func.attr == "cancel"
                    and "TimerRegistry" not in self._class_stack
                ):
                    receiver = func.value
                    timers_receiver = (
                        isinstance(receiver, ast.Attribute)
                        and receiver.attr == "timers"
                    )
                    if not timers_receiver:
                        violations.append(
                            (
                                node.lineno,
                                "cancels a raw handle — use "
                                "self.timers.cancel(name)",
                            )
                        )
            self.generic_visit(node)

    Visitor().visit(tree)
    return violations


def target_files() -> list:
    files = []
    for root, dirs, names in os.walk(SRC_DIR):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                files.append(os.path.join(root, name))
    return files


def main() -> int:
    failed = False
    checked = 0
    for path in target_files():
        checked += 1
        rel = os.path.relpath(path, REPO)
        for line, message in lint_file(path, is_mac_file(path)):
            failed = True
            print(f"{rel}:{line}: {message}")
    if failed:
        print("timer API lint FAILED")
        return 1
    print(f"timer API lint ok ({checked} files, zero raw-event sites)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
