"""Initial-point presets, step-size sweeps and the Euler positivity demo.

``step_size_sweep`` classifies one equilibrium under the discrete map
at each step size of a list, and ``first_negative_step`` finds the
first iterate of forward Euler, or of the nonstandard map, with a
negative component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equilibria import Equilibrium
from .integrators import euler_kernel
from .model import DomainError, HostParams, ModelVariant, State
from .nsfd import map_kernel, step  # noqa: F401  # step is unused, but the benchmark's tracer patches harness.step
from .stability import Classification, StabilityReport, stability_report

__all__ = [
    "INITIAL_POINT_PRESETS",
    "SWEEP_H_LIST",
    "SweepResult",
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

# The step sizes of ``sweep`` without --h, and of the step-size-independence check.
SWEEP_H_LIST = (0.01, 0.1, 1.0, 10.0, 50.0)


@dataclass(frozen=True)
class SweepResult:
    """Discrete classification of one equilibrium across step sizes."""

    equilibrium: Equilibrium
    entries: tuple[StabilityReport, ...]
    continuous: Classification
    uniform: bool
    matches_continuous: bool


def step_size_sweep(
    params: HostParams,
    variant: ModelVariant,
    equilibrium: Equilibrium,
    h_list: tuple[float, ...] | list[float],
) -> SweepResult:
    """Classify an equilibrium under the discrete map at each step size.

    ``uniform`` is true iff every h yields the same classification; the
    continuous classification is included for consistency checks.
    """
    if not equilibrium.exists:
        raise DomainError(f"cannot sweep a nonexistent equilibrium ({equilibrium.kind.value})")
    continuous, *entries = stability_report(params, variant, equilibrium, h_list)
    classes = {entry.classification for entry in entries}
    uniform = len(classes) == 1
    return SweepResult(
        equilibrium=equilibrium,
        entries=tuple(entries),
        continuous=continuous.classification,
        uniform=uniform,
        matches_continuous=uniform and classes == {continuous.classification},
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
    Raises DomainError for a start that is not finite or an unknown
    scheme.
    """
    x, y = float(s0[0]), float(s0[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"state ({x!r}, {y!r}) is not finite")
    if scheme == "euler":
        advance = euler_kernel(params, variant, h)
    elif scheme == "nsfd":
        advance = map_kernel(params, variant, h)
    else:
        raise DomainError(f"unknown scheme {scheme!r}")
    limit = 1e6 * max(params.K, 1.0)
    for n in range(1, max_steps + 1):
        x, y = advance(x, y)
        if x < 0 or y < 0:
            return n
        if max(abs(x), abs(y)) > limit:
            return None
    return None
