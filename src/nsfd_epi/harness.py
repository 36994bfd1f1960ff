"""Dynamic-consistency experiments and step-size sweeps.

The qualitative agreement between the continuous flow and its
nonstandard discretization is operationalized as: from the same
initial point, both settle on the same equilibrium (within the match
radius of the convergence detector), for every tested step size.
Transient paths are deliberately not compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .convergence import (
    ConvergenceMonitor,
    ConvergenceSettings,
    Trajectory,
    Verdict,
    VerdictStatus,
    detect_limit,
)
from .equilibria import Equilibrium
from .integrators import euler_step, simulate_continuous
from .model import DomainError, HostParams, ModelVariant, State
from .nsfd import iterate, step
from .stability import Classification, Regime, classify, discrete_jacobian, eigenvalues2, stability_report

__all__ = [
    "ConsistencyCell",
    "ConsistencyReport",
    "ConvergenceMonitor",
    "ConvergenceSettings",
    "INITIAL_POINT_PRESETS",
    "SweepEntry",
    "SweepResult",
    "Trajectory",
    "Verdict",
    "VerdictStatus",
    "consistency_experiment",
    "detect_limit",
    "first_negative_step",
    "step_size_sweep",
]

# Named initial-point sets; "paper-initials" starts the benchmark phase portraits.
INITIAL_POINT_PRESETS: dict[str, tuple[State, ...]] = {
    "paper-initials": (
        State(0.1, 0.1),
        State(0.2, 0.4),
        State(0.7, 0.6),
        State(1.0, 0.4),
        State(1.2, 0.15),
    ),
}


@dataclass(frozen=True)
class ConsistencyCell:
    """Continuous vs discrete limits from one initial point."""

    initial: State
    continuous: Verdict | None
    continuous_final: State | None
    discrete: tuple[tuple[float, Verdict | None, State | None], ...]
    errors: tuple[str, ...]
    agree: bool


@dataclass(frozen=True)
class ConsistencyReport:
    scenario: str
    cells: tuple[ConsistencyCell, ...]
    verdict: bool


def _limits_agree(
    cell_states: list[State],
    verdicts: list[Verdict | None],
    tol_eq: float,
) -> bool:
    if any(v is None or not v.converged for v in verdicts):
        return False
    for i in range(len(cell_states)):
        for j in range(i + 1, len(cell_states)):
            a, b = cell_states[i], cell_states[j]
            if max(abs(a.X - b.X), abs(a.Y - b.Y)) > tol_eq:
                return False
    return True


def consistency_experiment(
    params: HostParams,
    variant: ModelVariant,
    initial_points: tuple[State, ...] | list[State],
    h_list: tuple[float, ...] | list[float],
    settings: ConvergenceSettings | None = None,
    dt: float = 0.01,
    t_max: float = 2000.0,
    n_max: int = 100_000,
    scenario: str = "",
) -> ConsistencyReport:
    """Run the flow once and the map at each h from every initial point.

    A failed run (domain error, blow-up) is recorded in the cell rather
    than aborting the experiment; a cell agrees only when every run
    converged and all limits coincide within ``tol_eq``.
    """
    if settings is None:
        settings = ConvergenceSettings()
    cells = []
    for point in initial_points:
        errors: list[str] = []
        cont_verdict: Verdict | None = None
        cont_final: State | None = None
        try:
            run = simulate_continuous(params, variant, point, dt=dt, t_max=t_max, settings=settings)
            cont_verdict, cont_final = run.verdict, run.final_state
        except (DomainError, ArithmeticError) as exc:
            errors.append(f"continuous: {exc}")
        discrete_entries: list[tuple[float, Verdict | None, State | None]] = []
        for h in h_list:
            try:
                traj = iterate(params, variant, h, point, n_max, settings=settings)
                discrete_entries.append((h, traj.verdict, traj.final_state))
            except (DomainError, ArithmeticError) as exc:
                errors.append(f"discrete h={h!r}: {exc}")
                discrete_entries.append((h, None, None))
        finals = [s for s in [cont_final] + [s for _, _, s in discrete_entries] if s is not None]
        verdicts = [cont_verdict] + [v for _, v, _ in discrete_entries]
        agree = not errors and len(finals) == 1 + len(h_list) and _limits_agree(finals, verdicts, settings.tol_eq)
        cells.append(
            ConsistencyCell(
                initial=State(*point),
                continuous=cont_verdict,
                continuous_final=cont_final,
                discrete=tuple(discrete_entries),
                errors=tuple(errors),
                agree=agree,
            )
        )
    return ConsistencyReport(scenario=scenario, cells=tuple(cells), verdict=all(c.agree for c in cells))


@dataclass(frozen=True)
class SweepEntry:
    h: float
    eigenvalues: tuple[complex, complex]
    classification: Classification


@dataclass(frozen=True)
class SweepResult:
    """Discrete classification of one equilibrium across step sizes."""

    equilibrium: Equilibrium
    entries: tuple[SweepEntry, ...]
    continuous: Classification
    uniform: bool
    matches_continuous: bool


def step_size_sweep(
    params: HostParams,
    variant: ModelVariant,
    equilibrium: Equilibrium,
    h_list: tuple[float, ...] | list[float] = (0.01, 0.1, 1.0, 10.0, 50.0),
) -> SweepResult:
    """Classify an equilibrium under the discrete map at each step size.

    ``uniform`` is true iff every h yields the same classification; the
    continuous classification is included for consistency checks.
    """
    if not equilibrium.exists:
        raise DomainError(f"cannot sweep a nonexistent equilibrium ({equilibrium.kind.value})")
    entries = []
    for h in h_list:
        m = discrete_jacobian(params, variant, equilibrium.point, h)
        eigs = eigenvalues2(m)
        entries.append(SweepEntry(h=h, eigenvalues=eigs, classification=classify(eigs, Regime.DISCRETE)))
    continuous = stability_report(params, variant, equilibrium, Regime.CONTINUOUS).classification
    classes = {entry.classification for entry in entries}
    uniform = len(classes) == 1
    return SweepResult(
        equilibrium=equilibrium,
        entries=tuple(entries),
        continuous=continuous,
        uniform=uniform,
        matches_continuous=uniform and classes == {continuous},
    )


def first_negative_step(
    params: HostParams,
    variant: ModelVariant,
    s0: tuple[float, float],
    h: float,
    scheme: str = "euler",
    max_steps: int = 10_000,
) -> int | None:
    """Index of the first iterate with a negative component, or None.

    ``scheme`` selects forward Euler (the demonstration target) or the
    nonstandard map (the control, which never returns an index).  The
    scan stops early once a state's magnitude is clearly diverging.
    """
    limit = 1e6 * max(params.K, 1.0)
    s = (float(s0[0]), float(s0[1]))
    for n in range(1, max_steps + 1):
        if scheme == "euler":
            s = euler_step(params, variant, s, h)
        elif scheme == "nsfd":
            s = step(params, variant, h, s)
        else:
            raise DomainError(f"unknown scheme {scheme!r}")
        if s[0] < 0 or s[1] < 0:
            return n
        if max(abs(s[0]), abs(s[1])) > limit:
            return None
    return None
