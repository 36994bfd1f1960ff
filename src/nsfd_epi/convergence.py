"""Convergence detection shared by the discrete and continuous runners.

A trajectory is declared converged only when two things hold at once:
the per-step movement has stayed below ``tol_step`` for ``window``
consecutive steps (quiescence) and the current state lies within
``tol_eq`` of a known equilibrium.  Requiring both prevents false
positives during slow passages near saddle points.  A state whose
infinity norm exceeds ``divergence_factor * scale`` (scale is the
carrying capacity) is declared diverged.

The rule lives in one place, the run loop ``_scan``.  It tests
divergence, movement and the quiet-run count with local comparisons on
every step, and calls ``ConvergenceMonitor.update``, the proximity
test, only on steps where the run has been quiet for at least a window.
The runners (``nsfd.iterate``, ``integrators.simulate_continuous``)
reach the loop through ``_run_monitored``.  ``ConvergenceMonitor``
holds the settings, the known equilibria and the divergence limit.  It
stays a class with an ``update`` method because the benchmark's tracer
wraps ``ConvergenceMonitor.update`` to count proximity tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .equilibria import Equilibrium, EquilibriumKind, all_equilibria
from .model import BlowUpError, DomainError, HostParams, Kernel, ModelVariant, State

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConvergenceMonitor",
    "ConvergenceSettings",
    "Trajectory",
    "Verdict",
    "VerdictStatus",
]

DIVERGENCE_FACTOR = 1e6

# A record_every that no run reaches, so only the first and last states are kept.
ENDS_ONLY = sys.maxsize


@dataclass(frozen=True)
class ConvergenceSettings:
    """Thresholds for the quiescence-plus-proximity detector.

    Defaults let the benchmark scenarios converge in well under 1e5
    discrete steps at h = 0.1.
    """

    tol_step: float = 1e-10
    window: int = 50
    tol_eq: float = 1e-3

    def __post_init__(self) -> None:
        if not (self.tol_step > 0 and self.tol_eq > 0 and self.window >= 1):
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
    """A recorded run of either runner: step indices, times, states, verdict."""

    steps: np.ndarray
    times: np.ndarray
    states: np.ndarray
    verdict: Verdict

    @property
    def final_state(self) -> State:
        return State(float(self.states[-1, 0]), float(self.states[-1, 1]))


class ConvergenceMonitor:
    """The detector's fixed inputs and its proximity test."""

    def __init__(
        self,
        settings: ConvergenceSettings,
        equilibria: Sequence[Equilibrium],
        scale: float,
    ) -> None:
        self.settings = settings
        self.known = [eq for eq in equilibria if eq.exists]
        self.limit = DIVERGENCE_FACTOR * max(scale, 0.0)

    def update(self, s: tuple[float, float], step: int) -> Verdict | None:
        """A converged verdict if the nearest known equilibrium lies within ``tol_eq`` of s, else None.

        The run loop calls this once the run has been quiet for ``window`` steps.
        """
        best: tuple[float, Equilibrium] | None = None
        for eq in self.known:
            d = max(abs(s[0] - eq.point.X), abs(s[1] - eq.point.Y))
            if best is None or d < best[0]:
                best = (d, eq)
        if best is not None and best[0] <= self.settings.tol_eq:
            return Verdict(VerdictStatus.CONVERGED, kind=best[1].kind, point=best[1].point, at_step=step)
        return None


def _scan(
    monitor: ConvergenceMonitor,
    advance: Kernel,
    s0: tuple[float, float],
    n_limit: int,
    record_every: int,
    scheme: str,
) -> tuple[list[int], list[tuple[float, float]], Verdict]:
    """Step s0 by ``advance`` up to ``n_limit`` times under the convergence rule.

    Returns the recorded step indices and states (every
    ``record_every``-th one plus the first and last) and the verdict.
    Raises BlowUpError for a state that is not finite.  One chained
    comparison per component passes a state that is finite and not
    diverged; only a state that fails it is tested for finiteness.  Past
    that test the state is finite, so ``max(|dx|, |dy|) < tol`` is
    ``-tol < dx < tol and -tol < dy < tol``.
    """
    x, y = s0
    steps, states = [0], [s0]
    limit = monitor.limit
    # The start is finite: _run_monitored refuses any other.
    if max(abs(x), abs(y)) > limit:
        return steps, states, Verdict(VerdictStatus.DIVERGED, at_step=0)
    # A NaN or infinite limit never declares a finite state diverged.
    bound = limit if limit < math.inf else sys.float_info.max
    tol, window, update = monitor.settings.tol_step, monitor.settings.window, monitor.update
    verdict = None
    quiet = n = 0
    while n < n_limit:
        n += 1
        px, py = x, y
        x, y = advance(px, py)
        if not (-bound <= x <= bound and -bound <= y <= bound):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise BlowUpError(f"{scheme} update overflowed at step {n} from {(px, py)!r}")
            verdict = Verdict(VerdictStatus.DIVERGED, at_step=n)
            break
        if -tol < x - px < tol and -tol < y - py < tol:
            quiet += 1
            if quiet >= window:
                verdict = update((x, y), n)
                if verdict is not None:
                    break
        else:
            quiet = 0
        if n % record_every == 0:
            steps.append(n)
            states.append((x, y))
    if steps[-1] != n:
        steps.append(n)
        states.append((x, y))
    if verdict is None:
        verdict = Verdict(VerdictStatus.MAX_STEPS, at_step=n)
    return steps, states, verdict


def _run_monitored(
    advance: Kernel,
    params: HostParams,
    variant: ModelVariant,
    s0: tuple[float, float],
    n_steps: int,
    step_size: float,
    settings: ConvergenceSettings | None,
    record_every: int,
    scheme: str,
) -> Trajectory:
    """The run of the discrete and continuous runners.

    Steps at most ``n_steps`` times (0 gives the start alone) and
    matches the variant's equilibria; see ``_scan``.  Raises DomainError
    for a start that is not finite, whatever the budget.  Times are steps
    times ``step_size``; one that overflows is inf, without a warning.
    """
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every!r}")
    s = (float(s0[0]), float(s0[1]))
    if not (math.isfinite(s[0]) and math.isfinite(s[1])):
        raise DomainError(f"initial state {s!r} is not finite")
    if settings is None:
        settings = ConvergenceSettings()
    try:
        known = all_equilibria(params, variant)
    except DomainError:
        known = ()  # implausible parameters: no limit matching, divergence only
    monitor = ConvergenceMonitor(settings, known, params.K)
    recorded_steps, recorded_states, verdict = _scan(monitor, advance, s, n_steps, record_every, scheme)
    # Imported here, not at module level, so that the commands that build no
    # array (equilibria, stability, sweep, verify --list) start without numpy.
    import numpy as np

    steps = np.asarray(recorded_steps, dtype=np.int64)
    with np.errstate(over="ignore"):
        times = steps * step_size
    return Trajectory(steps, times, np.asarray(recorded_states, dtype=np.float64), verdict)

