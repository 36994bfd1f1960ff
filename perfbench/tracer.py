"""Per-layer tracing by patching the package's functions in place.

A function is wrapped at every module binding that holds it, because
``cli``, ``harness`` and ``verification`` import ``iterate``, ``step``
and friends by name; ``ConvergenceMonitor.update`` is wrapped on its
class.  Calls made once per command or per run record a span (name,
start, end, parent); calls made once per step or per sample only add
to aggregate counters, which keeps their overhead to two clock reads.
A span's self time is its duration minus the time of the spans and
counters called inside it.  The wrappers' own cost outside the clock
reads still lands in the caller's self time; ``trace.overhead_s``
reports the total.  The map and RK4
kernels are reached through ``nsfd._STEPPERS`` and a local variable and
cannot be wrapped; their per-step cost is the self time of ``iterate``
and ``simulate_continuous`` over the steps those runs took.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

PACKAGE = "nsfd_epi"


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: int = 0
    steps: int = 0
    converged_steps: list[int] = field(default_factory=list)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass(frozen=True)
class Probe:
    """One traced function: where it lives and how its calls are kept."""

    module: str
    attr: str
    name: str
    span: bool
    on_result: Callable[[Stat, Any, tuple, dict], None] | None = None
    owner: str | None = None  # class name when the function is a method


def _run_steps(stat: Stat, run: Any, args: tuple, kwargs: dict) -> None:
    stat.steps += run.verdict.at_step
    if run.verdict.converged:
        stat.converged_steps.append(run.verdict.at_step)


def _rk4_steps(stat: Stat, run: Any, args: tuple, kwargs: dict) -> None:
    # The package passes ``scheme`` by keyword or not at all.
    if kwargs.get("scheme", "rk4") == "rk4":
        _run_steps(stat, run, args, kwargs)


def _verification_probes() -> list[Probe]:
    """Every acceptance check: the module functions that return a CheckResult."""
    module = sys.modules[f"{PACKAGE}.verification"]
    return [
        Probe("verification", name, "verification", True)
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and fn.__annotations__.get("return") == "CheckResult"
    ]


def default_probes() -> list[Probe]:
    return [
        Probe("cli", "main", "cli", True),
        Probe("nsfd", "iterate", "nsfd.iterate", True, _run_steps),
        Probe("nsfd", "step", "nsfd.step", False),
        Probe("integrators", "simulate_continuous", "integrators.simulate_continuous", True, _rk4_steps),
        Probe("convergence", "update", "convergence.update", False, owner="ConvergenceMonitor"),
        Probe("equilibria", "all_equilibria", "equilibria.all_equilibria", True),
        Probe("stability", "stability_report", "stability.stability_report", True),
        Probe("stability", "jury_conditions", "stability.jury_conditions", False),
        Probe("harness", "step_size_sweep", "harness.step_size_sweep", True),
        Probe("harness", "first_negative_step", "harness.first_negative_step", True),
        *_verification_probes(),
    ]


class Tracer:
    """Install with ``with Tracer() as t:``; every binding is restored on exit."""

    def __init__(self) -> None:
        self.probes = default_probes()
        self.stats: dict[str, Stat] = {}
        self.spans: list[Span] = []
        self._stack: list[list] = [[0.0, 0.0, None]]
        self._leaf = [0.0]  # time spent in counter probes so far
        self.patched: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        while self.patched:
            holder, attr, original = self.patched.pop()
            setattr(holder, attr, original)

    def _install(self, probe: Probe) -> None:
        module = sys.modules[f"{PACKAGE}.{probe.module}"]
        if probe.owner is not None:
            cls = getattr(module, probe.owner)
            original = cls.__dict__[probe.attr]
            self._patch(cls, probe.attr, original, self._wrap(original, probe))
            return
        original = getattr(module, probe.attr)
        wrapper = self._wrap(original, probe)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, holder: Any, attr: str, original: Any, wrapper: Any) -> None:
        self.patched.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        wrapper = self._span(fn, probe) if probe.span else self._counter(fn, probe)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn: Callable, probe: Probe) -> Callable:
        """Calls and time only; the function must call no other probe."""
        stat, leaf = self._stat(probe.name), self._leaf

        def counter(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stat.calls += 1
                stat.total += elapsed
                leaf[0] += elapsed

        return counter

    def _span(self, fn: Callable, probe: Probe) -> Callable:
        stack, spans, leaf = self._stack, self.spans, self._leaf
        on_result = probe.on_result
        named_by_result = probe.module == "verification"
        stat = None if named_by_result else self._stat(probe.name)

        def span(*args, **kwargs):
            # frame: [time in nested spans, counter time inside those spans, own span index]
            frame = [0.0, 0.0, len(spans)]
            spans.append(Span(probe.name, 0.0, 0.0, stack[-1][2]))
            stack.append(frame)
            leaf_start = leaf[0]
            result, raised = None, True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                elapsed, in_counters = end - start, leaf[0] - leaf_start
                stack.pop()
                stack[-1][0] += elapsed
                stack[-1][1] += in_counters
                record = spans[frame[2]]
                record.start, record.end = start, end
                target = stat
                if named_by_result:
                    check = "unknown" if raised else result.name.replace(":", ".")
                    record.name = f"verification.{check}"
                    target = self._stat(record.name)
                target.calls += 1
                target.total += elapsed
                target.self_time += elapsed - frame[0] - (in_counters - frame[1])
                if raised:
                    target.errors += 1
                elif on_result is not None:
                    on_result(target, result, args, kwargs)

        return span
