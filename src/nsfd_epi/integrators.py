"""Reference continuous-time solvers: fixed-step RK4 and forward Euler.

RK4 serves as the trusted approximation of the flow; forward Euler is
kept deliberately naive to demonstrate the positivity failures the
nonstandard maps avoid.  Neither scheme clamps states: negative or
diverging trajectories are reported as-is.

Euler calls the one vector-field expression, ``model.field_kernel``,
once per step.  RK4 writes the field out inline in its four stages for
speed (one Python call per step, not five); a test pins it bit for bit
against ``field_kernel`` composed four times.
"""

from __future__ import annotations

import math

from .convergence import ConvergenceSettings, Trajectory, _run_monitored
from .model import DomainError, HostParams, Kernel, ModelVariant, effective_rates, field_kernel

__all__ = ["scheme_kernel", "simulate_continuous"]

def _rk4(params: HostParams, variant: ModelVariant, dt: float) -> Kernel:
    e, beta = effective_rates(params, variant)
    b_x, b_y, u_x, u_y, big_k = params.b_x, params.b_y, params.u_x, params.u_y, params.K
    half, sixth = 0.5 * dt, dt / 6.0

    def advance(x: float, y: float) -> tuple[float, float]:
        # Each stage is field_kernel's expression, with the same operations in the same order.
        g = 1.0 - (x + y) / big_k
        k1x = (b_x * g - u_x - beta * y) * x + e * g * y
        k1y = (b_y * g - u_y + beta * x) * y
        x2, y2 = x + half * k1x, y + half * k1y
        g = 1.0 - (x2 + y2) / big_k
        k2x = (b_x * g - u_x - beta * y2) * x2 + e * g * y2
        k2y = (b_y * g - u_y + beta * x2) * y2
        x3, y3 = x + half * k2x, y + half * k2y
        g = 1.0 - (x3 + y3) / big_k
        k3x = (b_x * g - u_x - beta * y3) * x3 + e * g * y3
        k3y = (b_y * g - u_y + beta * x3) * y3
        x4, y4 = x + dt * k3x, y + dt * k3y
        g = 1.0 - (x4 + y4) / big_k
        k4x = (b_x * g - u_x - beta * y4) * x4 + e * g * y4
        k4y = (b_y * g - u_y + beta * x4) * y4
        return x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x), y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)

    return advance


def _euler(params: HostParams, variant: ModelVariant, dt: float) -> Kernel:
    field = field_kernel(params, variant)

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
    return _SCHEMES[scheme](params, variant, dt)


def simulate_continuous(
    params: HostParams,
    variant: ModelVariant,
    s0: tuple[float, float],
    dt: float = 0.01,
    t_max: float = 2000.0,
    settings: ConvergenceSettings | None = None,
    scheme: str = "rk4",
    record_every: int = 1,
) -> Trajectory:
    """Integrate from s0 until convergence, divergence, or t_max (0 gives the start alone).

    ``scheme`` is "rk4" (default) or "euler" (for the positivity
    demonstrations); both share the convergence monitor and run loop
    of the discrete runner.  BlowUpError is raised for the first update
    that is not finite.
    """
    advance = scheme_kernel(params, variant, dt, scheme)
    if t_max < 0:
        raise DomainError(f"t_max must be nonnegative, got {t_max!r}")
    # The relative slack absorbs the rounding of t_max = N * dt, so such
    # a t_max gives N steps for every N below about 1e12.
    n_steps = t_max / dt * (1.0 + 1e-12)
    if not math.isfinite(n_steps):
        raise DomainError(f"t_max = {t_max!r} over dt = {dt!r} gives no finite step count")
    return _run_monitored(advance, params, variant, s0, int(n_steps), dt, settings, record_every, scheme)
