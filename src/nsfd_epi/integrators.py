"""Reference continuous-time solvers: fixed-step RK4 and forward Euler.

RK4 serves as the trusted approximation of the flow; forward Euler is
kept deliberately naive to demonstrate the positivity failures the
nonstandard maps avoid.  Neither scheme clamps states: negative or
diverging trajectories are reported as-is.

Both run in ``convergence``'s run loop with their step built from
``model.FIELD``, the full field at every rate: four stages for RK4, one
for Euler.  Each loop is compiled on its first run.  RK4's loop also
has a C twin, ``rk4_twin()`` (see ``native``): built by the first RK4
run of a process and taken only where its canary matched the Python
loop bit for bit, it runs every RK4 run at K != 0.  The Python loop is
the canary's reference and runs the rest, as where no compiler is
found.  Tests pin both schemes bit for bit against ``field_kernel``
composed four times and against ``euler_kernel`` (the one-step Euler
kernel), each stepped by a reference loop, and RK4 through the twin
and the Python loop alike.
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import TYPE_CHECKING, Sequence

from .convergence import ConvergenceSettings, Trajectory, _run_monitored, loop
from .convergence import _finish, _refused  # noqa: F401  # read by the loops compiled here
from .model import FIELD, RATE_NAMES, DomainError, HostParams, Kernel, ModelVariant, field_kernel, rates

if TYPE_CHECKING:
    from .native import CanaryRun, Twin

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


def _rk4_step(field: str) -> str:
    """RK4's step: ``field`` at each of the four stages, then their weighted sum, one assignment a line.

    Each line is then also a C statement without its ``;`` (see ``native``).
    """
    return "".join([
        field.format(x="px", y="py", dx="k1x", dy="k1y"),
        "x2 = px + half * k1x\ny2 = py + half * k1y\n",
        field.format(x="x2", y="y2", dx="k2x", dy="k2y"),
        "x3 = px + half * k2x\ny3 = py + half * k2y\n",
        field.format(x="x3", y="y3", dx="k3x", dy="k3y"),
        "x4 = px + dt * k3x\ny4 = py + dt * k3y\n",
        field.format(x="x4", y="y4", dx="k4x", dy="k4y"),
        "x = px + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)\n",
        "y = py + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)\n",
    ])


_RK4_CONSTANTS = f"{RATE_NAMES}, dt, half, sixth"


def _rk4_constants(values: tuple[float, ...], dt: float) -> tuple[float, ...]:
    """The RK4 loop's constants, named as in _RK4_CONSTANTS: the rates, then dt, dt / 2 and dt / 6."""
    return (*values, dt, 0.5 * dt, dt / 6.0)


def _canary() -> list[CanaryRun]:
    """The C twin's canary runs, recorded at every step, through each of its returns to Python.

    At dt = 0.1 the general run is quiet from its first step and its
    proximity test converges at step 12, or the run stops at its budget
    of 13; it leaves the bound, still finite, at step 28 when X grows
    without bound, and overflows at K = 1e100 and dt = 10.  The last
    starts from X = -0.0, which the field writes as 0.0.
    """
    from .native import CanaryMonitor

    general, quiet = (0.6, 0.4, 0.1, 0.2, 1.0, 0.02, 0.3), ConvergenceSettings(tol_step=0.05, window=3)
    return [
        (_rk4_constants(general, 0.1), CanaryMonitor(1e6, quiet, 12), (0.3, 0.2), 40),
        (_rk4_constants(general, 0.1), CanaryMonitor(1e6, quiet, 99), (0.3, 0.2), 13),
        (_rk4_constants((0.0, 0.0, -0.5, 0.0, 1.0, 0.0, 0.0), 1.0), CanaryMonitor(1e6, quiet, 99), (1.0, 0.0), 40),
        (_rk4_constants((*general[:4], 1e100, *general[5:]), 10.0), CanaryMonitor(1e106, quiet, 99), (1.2, 0.15), 9),
        (_rk4_constants((0.6, 0.4, 0.1, 0.2, 1.0, 0.0, 0.1), 0.01), CanaryMonitor(1e6, quiet, 99), (-0.0, 0.5), 7),
    ]


def _nonzero_k(values: Sequence[float]) -> bool:
    """Whether K, the one divisor of RK4's step (the fifth constant), is not 0, where Python raises ZeroDivisionError."""
    return values[4] != 0.0


@cache
def rk4_twin() -> Twin:
    """The C twin of RK4's loop, one per process; ``native`` is imported by the first RK4 run."""
    from .native import Twin

    return Twin("_rk4_loop", "rk4", _RK4_CONSTANTS, _rk4_step(FIELD), _nonzero_k, _canary)


# RK4 with its C twin; forward Euler, the step euler_kernel takes.
_rk4_run = loop("_rk4_scan", "rk4", _RK4_CONSTANTS, _rk4_step(FIELD), globals(), rk4_twin)
_euler_run = loop("_euler_scan", "euler", f"{RATE_NAMES}, dt", (
    FIELD.format(x="px", y="py", dx="dx", dy="dy") + "x = px + dt * dx\ny = py + dt * dy\n"
), globals())


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
    if scheme not in ("rk4", "euler"):
        raise DomainError(f"unknown continuous scheme {scheme!r}")
    values = rates(params, variant)
    if scheme == "rk4":
        scan = partial(_rk4_run, _rk4_constants(values, dt))
    else:
        scan = partial(_euler_run, (*values, dt))
    return _run_monitored(scan, params, variant, s0, n_max, dt, settings, record_every)
