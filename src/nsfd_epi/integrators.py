"""Reference continuous-time solvers: fixed-step RK4 and forward Euler.

RK4 serves as the trusted approximation of the flow; forward Euler is
kept deliberately naive to demonstrate the positivity failures the
nonstandard maps avoid.  Neither scheme clamps states: negative or
diverging trajectories are reported as-is.

Euler steps ``model.field_kernel`` in the shared loop ``convergence._scan``.
RK4 has its own loop, ``_rk4_scan``, with the field written out in its
four stages, so that an RK4 step makes no Python call; tests pin it bit
for bit against ``field_kernel`` composed four times.
"""

from __future__ import annotations

import math
from functools import partial

from .convergence import (
    ConvergenceMonitor, ConvergenceSettings, Recorded, Trajectory, _finish, _refused, _run_monitored, _scan
)
from .model import DomainError, HostParams, Kernel, ModelVariant, effective_rates, field_kernel

__all__ = ["euler_kernel", "simulate_continuous"]


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {dt!r}")


def euler_kernel(params: HostParams, variant: ModelVariant, dt: float) -> Kernel:
    """One unchecked forward Euler step ``(X, Y) -> (X', Y')`` at dt."""
    _check_dt(dt)
    field = field_kernel(params, variant)

    def advance(x: float, y: float) -> tuple[float, float]:
        fx, fy = field(x, y)
        return x + dt * fx, y + dt * fy

    return advance


def _rk4_scan(
    params: HostParams, e: float, beta: float, dt: float,
    monitor: ConvergenceMonitor, s0: tuple[float, float], n_limit: int, record_every: int,
) -> Recorded:
    """``convergence._scan`` with the RK4 step written in: the same rule, records, verdicts and errors."""
    b_x, b_y, u_x, u_y, big_k = params.b_x, params.b_y, params.u_x, params.u_y, params.K
    half, sixth = 0.5 * dt, dt / 6.0
    x, y = s0
    steps, states = [0], [s0]
    bound, tol, window, update = monitor.bound, monitor.settings.tol_step, monitor.settings.window, monitor.update
    verdict, quiet, n = None, 0, 0
    while n < n_limit:
        n += 1
        px, py = x, y
        # Each stage is field_kernel's expression, with the same operations in the same order.
        g = 1.0 - (px + py) / big_k
        k1x = (b_x * g - u_x - beta * py) * px + e * g * py
        k1y = (b_y * g - u_y + beta * px) * py
        x2, y2 = px + half * k1x, py + half * k1y
        g = 1.0 - (x2 + y2) / big_k
        k2x = (b_x * g - u_x - beta * y2) * x2 + e * g * y2
        k2y = (b_y * g - u_y + beta * x2) * y2
        x3, y3 = px + half * k2x, py + half * k2y
        g = 1.0 - (x3 + y3) / big_k
        k3x = (b_x * g - u_x - beta * y3) * x3 + e * g * y3
        k3y = (b_y * g - u_y + beta * x3) * y3
        x4, y4 = px + dt * k3x, py + dt * k3y
        g = 1.0 - (x4 + y4) / big_k
        k4x = (b_x * g - u_x - beta * y4) * x4 + e * g * y4
        k4y = (b_y * g - u_y + beta * x4) * y4
        x = px + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = py + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        if not (-bound <= x <= bound and -bound <= y <= bound):
            verdict = _refused("rk4", n, px, py, x, y)
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


def simulate_continuous(
    params: HostParams,
    variant: ModelVariant,
    s0: tuple[float, float],
    dt: float = 0.01,
    n_max: int = 200_000,
    settings: ConvergenceSettings | None = None,
    scheme: str = "rk4",
    record_every: int = 1,
) -> Trajectory:
    """Integrate from s0 by n_max steps of dt (0 gives the start alone), or until convergence or divergence.

    ``scheme`` is "rk4" (default) or "euler" (for the positivity demonstrations).
    BlowUpError is raised for the first update that is not finite.
    """
    _check_dt(dt)
    if scheme == "rk4":
        scan = partial(_rk4_scan, params, *effective_rates(params, variant), dt)
    elif scheme == "euler":
        scan = partial(_scan, euler_kernel(params, variant, dt), "euler")
    else:
        raise DomainError(f"unknown continuous scheme {scheme!r}")
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max!r}")
    return _run_monitored(scan, params, variant, s0, n_max, dt, settings, record_every)
