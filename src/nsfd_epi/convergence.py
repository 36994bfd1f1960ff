"""Convergence detection shared by the discrete and continuous runners.

A trajectory is declared converged only when two things hold at once:
the per-step movement has stayed below ``tol_step`` for ``window``
consecutive steps (quiescence) and the current state lies within
``tol_eq`` of a known equilibrium.  Requiring both prevents false
positives during slow passages near saddle points.  A state whose
infinity norm exceeds ``divergence_factor * scale`` (scale is the
carrying capacity) is declared diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .equilibria import Equilibrium, EquilibriumKind, all_equilibria
from .model import BlowUpError, DomainError, HostParams, Kernel, ModelVariant, State

__all__ = [
    "ConvergenceMonitor",
    "ConvergenceSettings",
    "Trajectory",
    "Verdict",
    "VerdictStatus",
    "detect_limit",
]

DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class ConvergenceSettings:
    """Thresholds for the quiescence-plus-proximity detector.

    Defaults let the benchmark scenarios converge in well under 1e5
    discrete steps at h = 0.1.
    """

    tol_step: float = 1e-10
    window: int = 50
    tol_eq: float = 1e-3
    max_steps: int = 10**6

    def __post_init__(self) -> None:
        if not (self.tol_step > 0 and self.tol_eq > 0 and self.max_steps > 0 and self.window >= 1):
            raise ValueError(f"convergence settings must be positive with window >= 1: {self}")


class VerdictStatus(Enum):
    CONVERGED = "converged"
    MAX_STEPS = "max_steps"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a run; converged verdicts name the matched equilibrium."""

    status: VerdictStatus
    kind: EquilibriumKind | None = None
    point: State | None = None
    at_step: int = 0

    @property
    def converged(self) -> bool:
        return self.status is VerdictStatus.CONVERGED


@dataclass(frozen=True)
class Trajectory:
    """A recorded discrete orbit: iteration indices, times, states, verdict."""

    h: float
    steps: np.ndarray
    times: np.ndarray
    states: np.ndarray
    verdict: Verdict

    @property
    def final_state(self) -> State:
        return State(float(self.states[-1, 0]), float(self.states[-1, 1]))


class ConvergenceMonitor:
    """Online detector fed one state per step."""

    def __init__(
        self,
        settings: ConvergenceSettings,
        equilibria: Sequence[Equilibrium],
        scale: float,
    ) -> None:
        self.settings = settings
        self.known = [eq for eq in equilibria if eq.exists]
        self.limit = DIVERGENCE_FACTOR * max(scale, 0.0)
        self.quiet_run = 0

    def _diverged(self, s: tuple[float, float]) -> bool:
        return max(abs(s[0]), abs(s[1])) > self.limit

    def start(self, s0: tuple[float, float]) -> Verdict | None:
        if self._diverged(s0):
            return Verdict(VerdictStatus.DIVERGED, at_step=0)
        return None

    def update(self, prev: tuple[float, float], cur: tuple[float, float], step: int) -> Verdict | None:
        if self._diverged(cur):
            return Verdict(VerdictStatus.DIVERGED, at_step=step)
        movement = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]))
        self.quiet_run = self.quiet_run + 1 if movement < self.settings.tol_step else 0
        if self.quiet_run >= self.settings.window:
            nearest = self._nearest(cur)
            if nearest is not None:
                kind, point = nearest
                return Verdict(VerdictStatus.CONVERGED, kind=kind, point=point, at_step=step)
        return None

    def _nearest(self, s: tuple[float, float]) -> tuple[EquilibriumKind, State] | None:
        best: tuple[float, Equilibrium] | None = None
        for eq in self.known:
            d = max(abs(s[0] - eq.point.X), abs(s[1] - eq.point.Y))
            if best is None or d < best[0]:
                best = (d, eq)
        if best is not None and best[0] <= self.settings.tol_eq:
            return best[1].kind, best[1].point
        return None


def _run_monitored(
    advance: Kernel,
    params: HostParams,
    variant: ModelVariant,
    s0: tuple[float, float],
    n_steps: int,
    settings: ConvergenceSettings | None,
    record_every: int,
    scheme: str,
) -> tuple[np.ndarray, np.ndarray, Verdict]:
    """The run loop of the discrete and continuous runners: recorded steps, states and the verdict.

    Steps at most ``min(n_steps, settings.max_steps)`` times, records
    every ``record_every``-th state plus the first and last, and raises
    BlowUpError for a state that is not finite before recording it.
    """
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every!r}")
    if settings is None:
        settings = ConvergenceSettings()
    try:
        known = all_equilibria(params, variant)
    except DomainError:
        known = ()  # implausible parameters: no limit matching, divergence only
    monitor = ConvergenceMonitor(settings, known, params.K)
    s = (float(s0[0]), float(s0[1]))
    recorded_steps = [0]
    recorded_states = [s]
    verdict = monitor.start(s)
    n = 0
    n_limit = min(n_steps, settings.max_steps)
    while verdict is None and n < n_limit:
        n += 1
        prev = s
        s = advance(*prev)
        if not (math.isfinite(s[0]) and math.isfinite(s[1])):
            raise BlowUpError(f"{scheme} update overflowed at step {n} from {prev!r}")
        verdict = monitor.update(prev, s, n)
        if n % record_every == 0 or verdict is not None or n == n_limit:
            recorded_steps.append(n)
            recorded_states.append(s)
    if verdict is None:
        verdict = Verdict(VerdictStatus.MAX_STEPS, at_step=n)
    steps = np.asarray(recorded_steps, dtype=np.int64)
    return steps, np.asarray(recorded_states, dtype=np.float64), verdict


def detect_limit(
    states: Iterable[tuple[float, float]],
    settings: ConvergenceSettings,
    equilibria: Sequence[Equilibrium],
    scale: float | None = None,
) -> Verdict:
    """Classify an already-recorded state sequence.

    ``scale`` defaults to the largest known equilibrium coordinate (at
    least 1) when the caller does not pass the carrying capacity.
    """
    states = list(states)
    if scale is None:
        scale = max([1.0] + [max(abs(eq.point.X), abs(eq.point.Y)) for eq in equilibria if eq.exists])
    monitor = ConvergenceMonitor(settings, equilibria, scale)
    if not states:
        return Verdict(VerdictStatus.MAX_STEPS, at_step=0)
    verdict = monitor.start(states[0])
    if verdict is not None:
        return verdict
    for n in range(1, len(states)):
        verdict = monitor.update(states[n - 1], states[n], n)
        if verdict is not None:
            return verdict
    return Verdict(VerdictStatus.MAX_STEPS, at_step=len(states) - 1)
