"""Convergence detection shared by the discrete and continuous runners.

A trajectory is declared converged only when two things hold at once:
the per-step movement has stayed below ``tol_step`` for ``window``
consecutive steps (quiescence) and the current state lies within
``tol_eq`` of a known equilibrium.  Requiring both prevents false
positives during slow passages near saddle points.  A state whose
infinity norm exceeds ``divergence_factor * scale`` (scale is the
carrying capacity) is declared diverged.

One run loop applies the rule: ``_LOOP``, written once as source text
with the step left open.  ``loop`` splices in one step text (the NSFD
map's is ``nsfd.RATIO + nsfd.MAP``; Euler's and RK4's are built from
``model.FIELD``) and compiles it on the first run that takes it, so that
a step makes no Python call and an import compiles no loop.  The map's
and RK4's loops have C twins, which a run in their domain takes where
they loaded (see ``native``).
The loop tests divergence, movement and the quiet-run count with local
comparisons, and calls ``ConvergenceMonitor.update``, the proximity
test, only once the run has been quiet for a window.  Its set-up and
rare paths are plain functions: ``_run_monitored``, ``_refused`` and
``_finish``.  It records states only, flat, ``[x0, y0, x1, y1, ...]``,
which numpy reads about three times as fast as pairs; the recorded
steps are every ``record_every``-th from 0 and the last.
``ConvergenceMonitor`` stays
a class whose ``update`` is read once per run, because the benchmark's
tracer wraps it to count proximity tests.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, MutableSequence, Sequence

from .equilibria import Equilibrium, EquilibriumKind, all_equilibria
from .model import BlowUpError, DomainError, HostParams, ModelVariant, State, compiled, indented

if TYPE_CHECKING:
    import numpy as np

    from .native import Twin

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


# A run loop's recorded states, flat as [x0, y0, x1, y1, ...]: a list from the Python loop, whose append costs a
# quarter of array.append's, an array("d") from a C twin; and its verdict, whose at_step is the last step.
Recorded = tuple[MutableSequence[float], Verdict]


# The run loop, its step from (px, py) to (x, y) left open.  The chained bound test fails for a state
# that has diverged or is not finite, and ``_refused`` judges which.
_LOOP = """\
def {name}(constants, monitor, s0, n_limit, record_every):
    {constants} = constants
    x, y = s0
    states = [x, y]
    bound, tol, window, update = monitor.bound, monitor.settings.tol_step, monitor.settings.window, monitor.update
    nbound, ntol, due = -bound, -tol, record_every
    verdict, quiet, n = None, 0, 0
    for n in range(1, n_limit + 1):
        px, py = x, y
{step}
        if not (nbound <= x <= bound and nbound <= y <= bound):
            verdict = _refused({scheme!r}, n, px, py, x, y)
            break
        if ntol < x - px < tol and ntol < y - py < tol:
            quiet += 1
            if quiet >= window:
                verdict = update((x, y), n)
                if verdict is not None:
                    break
        else:
            quiet = 0
        if n == due:
            due += record_every
            states.append(x)
            states.append(y)
    return _finish(states, n, x, y, verdict, record_every)
"""


def loop(
    name: str, scheme: str, constants: str, step: str, namespace: dict[str, Any],
    native: Callable[[], Twin] | None = None,
) -> Callable[..., Recorded]:
    """The scheme's run ``(values, monitor, s0, n_limit, record_every) -> Recorded``.

    A run takes the twin that ``native()`` gives where it loaded and
    ``takes`` the run; else the loop ``name``, which unpacks ``values``
    into the names ``constants`` lists and runs ``step`` once a step.
    ``scheme`` names it in a blow-up's message.  The loop is compiled on
    its first run and kept in ``namespace``, which must hold ``_refused``
    and ``_finish``.
    """

    def python() -> Callable[..., Recorded]:
        built = namespace.get(name)
        if built is None:
            source = _LOOP.format(name=name, scheme=scheme, constants=constants, step=indented(step))
            built = compiled(name, source, namespace)
        return built

    def run(
        values: tuple[float, ...], monitor: ConvergenceMonitor, s0: tuple[float, float], n_limit: int,
        record_every: int,
    ) -> Recorded:
        if native is not None:
            twin = native()
            if twin.takes(values, n_limit, python()):
                return twin(values, monitor, s0, n_limit, record_every)
        return python()(values, monitor, s0, n_limit, record_every)

    return run


def _refused(scheme: str, n: int, px: float, py: float, x: float, y: float) -> Verdict:
    """Diverged at step n, whose state (x, y) left the bound; BlowUpError if that state is not finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise BlowUpError(f"{scheme} update overflowed at step {n} from {(px, py)!r}")
    return Verdict(VerdictStatus.DIVERGED, at_step=n)


def _finish(
    states: MutableSequence[float], n: int, x: float, y: float, verdict: Verdict | None, record_every: int
) -> Recorded:
    """Record step n's state (x, y) if it is not yet; a run with no verdict stopped at its budget.

    A loop records a multiple of ``record_every`` after its tests, so a
    run that stopped by a verdict has not recorded its last step.
    """
    if verdict is not None or n % record_every:
        states.extend((x, y))
    return states, Verdict(VerdictStatus.MAX_STEPS, at_step=n) if verdict is None else verdict


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
    equilibria.  Raises DomainError for a budget or ``record_every`` that
    is not an integer (a numpy integer is one) or is out of range, and for
    a start that is not finite, whatever the budget.  Times are steps times
    ``step_size``; one that overflows is inf, without a warning.
    """
    try:
        n_steps, record_every = operator.index(n_steps), operator.index(record_every)
    except TypeError:
        raise DomainError(f"n_max and record_every must be integers, got {n_steps!r} and {record_every!r}") from None
    if n_steps < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_steps!r}")
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every!r}")
    s = (float(s0[0]), float(s0[1]))
    if not (math.isfinite(s[0]) and math.isfinite(s[1])):
        raise DomainError(f"initial state {s!r} is not finite")
    if settings is None:
        settings = ConvergenceSettings()
    monitor = ConvergenceMonitor(settings, all_equilibria(params, variant), params.K)
    if max(abs(s[0]), abs(s[1])) > monitor.bound:
        recorded_states, verdict = list(s), Verdict(VerdictStatus.DIVERGED, at_step=0)
    else:
        recorded_states, verdict = scan(monitor, s, n_steps, record_every)
    # Imported here, not at module level, so that the commands that build no
    # array (equilibria, stability, sweep, verify --list) start without numpy.
    import numpy as np

    n = verdict.at_step
    steps = np.append(np.arange(0, n, record_every, dtype=np.int64), n)
    with np.errstate(over="ignore"):
        times = steps * step_size
    return Trajectory(steps, times, np.array(recorded_states, dtype=np.float64).reshape(-1, 2), verdict)
