"""Reference continuous-time solvers: fixed-step RK4 and forward Euler.

RK4 serves as the trusted approximation of the flow; forward Euler is
kept deliberately naive to demonstrate the positivity failures the
nonstandard maps avoid.  Neither scheme clamps states: negative or
diverging trajectories are reported as-is.

Both schemes call the one vector-field expression, ``model.field_kernel``,
with the parameters bound once per run: RK4 for each of its four
stages, Euler once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .convergence import ConvergenceSettings, Verdict, _run_monitored
from .model import BlowUpError, DomainError, HostParams, Kernel, ModelVariant, State, field_kernel

__all__ = ["ContinuousRun", "euler_step", "rk4_step", "scheme_kernel", "simulate_continuous"]

def _rk4(field: Kernel, dt: float) -> Kernel:
    half, sixth = 0.5 * dt, dt / 6.0

    def advance(x: float, y: float) -> tuple[float, float]:
        k1x, k1y = field(x, y)
        k2x, k2y = field(x + half * k1x, y + half * k1y)
        k3x, k3y = field(x + half * k2x, y + half * k2y)
        k4x, k4y = field(x + dt * k3x, y + dt * k3y)
        return x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x), y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)

    return advance


def _euler(field: Kernel, dt: float) -> Kernel:
    def advance(x: float, y: float) -> tuple[float, float]:
        fx, fy = field(x, y)
        return x + dt * fx, y + dt * fy

    return advance


_SCHEMES = {"rk4": _rk4, "euler": _euler}


def scheme_kernel(params: HostParams, variant: ModelVariant, dt: float, scheme: str = "rk4") -> Kernel:
    """One unchecked step ``(X, Y) -> (X', Y')`` of ``scheme`` ("rk4" or "euler") at dt."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {dt!r}")
    if scheme not in _SCHEMES:
        raise DomainError(f"unknown continuous scheme {scheme!r}")
    return _SCHEMES[scheme](field_kernel(params, variant), dt)


def _step_once(params: HostParams, variant: ModelVariant, s: tuple[float, float], dt: float, scheme: str) -> State:
    advance = scheme_kernel(params, variant, dt, scheme)
    x, y = s
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"state ({x!r}, {y!r}) is not finite")
    return State(*advance(x, y))


def rk4_step(params: HostParams, variant: ModelVariant, s: tuple[float, float], dt: float) -> State:
    """One classical four-stage Runge-Kutta update.

    Raises BlowUpError if the update leaves the finite range (internal
    stages can overflow even when ``s`` itself is moderate; the NaN/inf
    then propagates to the result).
    """
    out = _step_once(params, variant, s, dt, "rk4")
    if not (math.isfinite(out.X) and math.isfinite(out.Y)):
        raise BlowUpError(f"RK4 update overflowed from state ({s[0]!r}, {s[1]!r}) at dt = {dt!r}")
    return out


def euler_step(params: HostParams, variant: ModelVariant, s: tuple[float, float], dt: float) -> State:
    """Forward Euler: s + dt * f(s).  May leave the positive quadrant."""
    return _step_once(params, variant, s, dt, "euler")


@dataclass(frozen=True)
class ContinuousRun:
    """A sampled continuous-time trajectory with its convergence verdict."""

    dt: float
    t_max: float
    steps: np.ndarray
    times: np.ndarray
    states: np.ndarray
    verdict: Verdict

    @property
    def final_state(self) -> State:
        return State(float(self.states[-1, 0]), float(self.states[-1, 1]))


def simulate_continuous(
    params: HostParams,
    variant: ModelVariant,
    s0: tuple[float, float],
    dt: float = 0.01,
    t_max: float = 2000.0,
    settings: ConvergenceSettings | None = None,
    scheme: str = "rk4",
    record_every: int = 1,
) -> ContinuousRun:
    """Integrate from s0 until convergence, divergence, or t_max.

    ``scheme`` is "rk4" (default) or "euler" (for the positivity
    demonstrations); both share the convergence monitor and run loop
    of the discrete runner.  BlowUpError is raised for the first update
    that is not finite.
    """
    advance = scheme_kernel(params, variant, dt, scheme)
    if t_max < dt:
        raise DomainError(f"t_max = {t_max!r} must be at least dt = {dt!r}")
    s = (float(s0[0]), float(s0[1]))
    if not (math.isfinite(s[0]) and math.isfinite(s[1])):
        raise DomainError(f"initial state {s!r} is not finite")
    n_steps = t_max / dt + 1e-9
    if not math.isfinite(n_steps):
        raise DomainError(f"t_max = {t_max!r} over dt = {dt!r} gives no finite step count")
    steps, times, states, verdict = _run_monitored(
        advance, params, variant, s, int(n_steps), dt, settings, record_every, scheme
    )
    return ContinuousRun(dt=dt, t_max=t_max, steps=steps, times=times, states=states, verdict=verdict)
