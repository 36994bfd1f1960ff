"""Convergence detection shared by the discrete and continuous runners.

A trajectory is declared converged only when two things hold at once:
the per-step movement has stayed below ``tol_step`` for ``window``
consecutive steps (quiescence) and the current state lies within
``tol_eq`` of a known equilibrium.  Requiring both prevents false
positives during slow passages near saddle points.  A state whose
infinity norm exceeds ``divergence_factor * scale`` (scale is the
carrying capacity) is declared diverged.

Two loops apply the rule: ``_scan`` steps a one-step kernel (the NSFD
map, forward Euler), and ``integrators._rk4_scan`` holds the RK4 stages
itself, because RK4 runs most of the acceptance gate's steps.  Both
test divergence, movement and the quiet-run count with local
comparisons, and call ``ConvergenceMonitor.update``, the proximity
test, only once the run has been quiet for a window.  They share the
set-up and rare paths: ``_run_monitored``, ``_refused`` and ``_finish``.
``ConvergenceMonitor`` stays a class whose ``update`` is read once per
run, because the benchmark's tracer wraps it to count proximity tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

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
        # An infinite tol_eq would match every state to an equilibrium, a vacuous verdict.
        if not (0 < self.tol_step < math.inf and 0 < self.tol_eq < math.inf and self.window >= 1):
            raise ValueError(f"convergence settings need finite, positive tolerances and window >= 1: {self}")


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
        limit = DIVERGENCE_FACTOR * max(scale, 0.0)
        # A state beyond the bound has diverged; a NaN or infinite limit never declares a finite state so.
        self.bound = limit if limit < math.inf else sys.float_info.max

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


# A run loop's recorded step indices and states, and its verdict.
Recorded = tuple[list[int], list[tuple[float, float]], Verdict]


def _scan(
    advance: Kernel, scheme: str, monitor: ConvergenceMonitor, s0: tuple[float, float], n_limit: int, record_every: int
) -> Recorded:
    """Step s0, a finite start that has not diverged, by ``advance`` up to ``n_limit`` times under the rule.

    Records every ``record_every``-th state plus the first and last.  One
    chained comparison per component passes a state that is finite and
    not diverged, so that ``max(|dx|, |dy|) < tol`` can be tested as
    ``-tol < dx < tol and -tol < dy < tol``; ``_refused`` judges any other.
    """
    x, y = s0
    steps, states = [0], [s0]
    bound, tol, window, update = monitor.bound, monitor.settings.tol_step, monitor.settings.window, monitor.update
    verdict, quiet, n = None, 0, 0
    while n < n_limit:
        n += 1
        px, py = x, y
        x, y = advance(px, py)
        if not (-bound <= x <= bound and -bound <= y <= bound):
            verdict = _refused(scheme, n, px, py, x, y)
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
    return _finish(steps, states, n, x, y, verdict)


def _refused(scheme: str, n: int, px: float, py: float, x: float, y: float) -> Verdict:
    """Diverged at step n, whose state (x, y) left the bound; BlowUpError if that state is not finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise BlowUpError(f"{scheme} update overflowed at step {n} from {(px, py)!r}")
    return Verdict(VerdictStatus.DIVERGED, at_step=n)


def _finish(steps: list[int], states: list, n: int, x: float, y: float, verdict: Verdict | None) -> Recorded:
    """Record step n's state (x, y) if it is not yet; a run with no verdict stopped at its budget."""
    if steps[-1] != n:
        steps.append(n)
        states.append((x, y))
    return steps, states, Verdict(VerdictStatus.MAX_STEPS, at_step=n) if verdict is None else verdict


def _run_monitored(
    scan: Callable[[ConvergenceMonitor, tuple[float, float], int, int], Recorded],
    params: HostParams,
    variant: ModelVariant,
    s0: tuple[float, float],
    n_steps: int,
    step_size: float,
    settings: ConvergenceSettings | None,
    record_every: int,
) -> Trajectory:
    """The run of the discrete and continuous runners.

    Steps at most ``n_steps`` times by ``scan(monitor, s0, n_steps,
    record_every)`` (0 gives the start alone) and matches the variant's
    equilibria.  Raises DomainError for a start that is not finite,
    whatever the budget.  Times are steps times ``step_size``; one that
    overflows is inf, without a warning.
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
    if max(abs(s[0]), abs(s[1])) > monitor.bound:
        recorded_steps, recorded_states, verdict = [0], [s], Verdict(VerdictStatus.DIVERGED, at_step=0)
    else:
        recorded_steps, recorded_states, verdict = scan(monitor, s, n_steps, record_every)
    # Imported here, not at module level, so that the commands that build no
    # array (equilibria, stability, sweep, verify --list) start without numpy.
    import numpy as np

    steps = np.asarray(recorded_steps, dtype=np.int64)
    with np.errstate(over="ignore"):
        times = steps * step_size
    return Trajectory(steps, times, np.asarray(recorded_states, dtype=np.float64), verdict)
