"""Initial-point presets, step-size sweeps and the Euler positivity demo.

``step_size_sweep`` classifies every existing equilibrium of a model
under the flow and under the discrete map at each step size of a list,
and ``first_negative_step`` finds the first iterate of forward Euler,
or of the nonstandard map, with a negative component.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .equilibria import Equilibrium, all_equilibria
from .integrators import euler_kernel
from .model import DomainError, HostParams, ModelVariant, State
from .nsfd import map_kernel, step  # noqa: F401  # step is unused, but the benchmark's tracer patches harness.step
from .stability import StabilityReport, stability_report

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


class SweepResult(NamedTuple):
    """One equilibrium's report under the flow and under the map at each step size."""

    equilibrium: Equilibrium
    entries: tuple[StabilityReport, ...]
    continuous: StabilityReport
    uniform: bool
    matches_continuous: bool


def step_size_sweep(
    params: HostParams, variant: ModelVariant, h_list: tuple[float, ...] | list[float]
) -> list[SweepResult]:
    """Classify every existing equilibrium, in listing order, under the flow and the map at each step size.

    ``uniform`` is true iff every h yields the same classification, and
    ``matches_continuous`` iff that one classification is the flow's.
    """
    results = []
    for eq in all_equilibria(params, variant):
        if not eq.exists:
            continue
        continuous, *entries = stability_report(params, variant, eq, h_list)
        classes = {entry.classification for entry in entries}
        uniform = len(classes) == 1
        results.append(
            SweepResult(eq, tuple(entries), continuous, uniform, uniform and classes == {continuous.classification})
        )
    return results


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
