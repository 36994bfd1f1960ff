"""Positivity-preserving nonstandard finite difference maps.

The discretization replaces dX/dt by (X_{n+1} - X_n)/phi1(h) and
dY/dt by (Y_{n+1} - Y_n)/phi2(h) and approximates each product term
nonlocally (loss terms at the new time level, gains at the old) so the
update solves explicitly with a positive numerator over a positive
denominator.  The denominator functions are

    phi1(h) = b_y (1 - exp(-beta K u_y h / b_y)) / (beta K u_y)
    phi2(h) = h

with phi1 -> h as beta -> 0.  One map serves the whole model family:

    X_{n+1} = [X_n (1 + phi1 b_x) + phi1 e Y_n]
              / [1 + phi1 (b_x X_n/K + b_x Y_n/K + u_x + beta Y_n
                           + e Y_n/K + e Y_n^2 / (K X_n))]
    Y_{n+1} = Y_n [1 + phi2 (b_y + beta X_n)]
              / [1 + phi2 (b_y X_n/K + b_y Y_n/K + u_y)]

The horizontal variant is this map with e = 0, the vertical one with
e = 0 and beta = 0 (so phi1 = h).  Their zero rates make the e and beta
terms +0.0, and adding +0.0 changes no value other than -0.0, so each
variant keeps the bits of a map written for it alone.  The Y^2/X ratio
is formed only for the general variant with Y != 0; at X = 0 it is
infinite, and 0 * inf would turn the horizontal map's invariant X = 0
axis into NaN.  The general map refuses X <= 0 with Y > 0 and extends
continuously along the X axis (Y = 0).

Every term on each side is nonnegative for states in the positive
quadrant, so positivity holds for every step size h > 0, and the fixed
points coincide with the continuous equilibria.

The update is written once, as the text ``MAP``, and compiled at import
into ``_map_update`` and ``_map_scan``.  ``map_kernel`` runs
``_map_update`` on one checked state; ``map_lanes`` runs it on float64
arrays, one element per (params, variant, h) lane, with the same bits
per lane.  Lanes pay off only in bulk: below about 30 lanes one numpy
step costs more than the scalar steps it replaces.  ``iterate`` runs
``_map_scan``, ``convergence``'s run loop with ``map_kernel``'s
refusals and ``MAP`` as its step; tests pin it bit for bit, and error
for error, against ``map_kernel`` stepped by a reference loop.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .convergence import ConvergenceSettings, Trajectory, _run_monitored, loop
from .convergence import _finish, _refused  # noqa: F401  # read by the loop compiled here
from .model import DomainError, HostParams, Kernel, ModelVariant, State, compiled, effective_rates, indented

if TYPE_CHECKING:
    import numpy as np

    LanesKernel = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

__all__ = [
    "denominators",
    "iterate",
    "map_kernel",
    "map_lanes",
    "step",
]

# Below this value of (beta K u_y / b_y) * h the closed form for phi1 is
# evaluated by its second-order series to avoid 0/0 cancellation.
PHI1_SERIES_CUTOFF = 1e-8


class DenominatorPair(NamedTuple):
    phi1: float
    phi2: float


def denominators(params: HostParams, variant: ModelVariant, h: float) -> DenominatorPair:
    """Denominator functions (phi1, phi2) for a variant at step size h.

    phi1 is strictly increasing in h, equals h + O(h^2) for small h,
    and saturates at b_y / (beta K u_y); the vertical variant (and any
    parameter set with beta K u_y = 0) uses phi1 = h exactly.
    """
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"step size must be finite and positive, got {h!r}")
    _, beta = effective_rates(params, variant)
    decay = beta * params.K * params.u_y
    if decay == 0.0:
        return DenominatorPair(h, h)
    if params.b_y <= 0:
        raise DomainError(f"phi1 needs b_y > 0 when beta*K*u_y > 0, got b_y = {params.b_y!r}")
    rate = decay / params.b_y
    z = rate * h
    if z < PHI1_SERIES_CUTOFF:
        phi1 = h * (1.0 - 0.5 * z)
    else:
        phi1 = -math.expm1(-z) / rate
    return DenominatorPair(phi1, h)


def _map_constants(params: HostParams, variant: ModelVariant, h: float) -> tuple[float, ...]:
    """One lane's constants of the map, in ``_MAP_CONSTANTS`` order.

    Checks the parameters and h; phi1 comes from ``denominators`` (so
    from ``math.expm1``) whichever operand type the update runs on.
    """
    e, beta = effective_rates(params, variant)
    phi1, phi2 = denominators(params, variant, h)
    b_x, b_y, big_k = params.b_x, params.b_y, params.K
    return (1.0 + phi1 * b_x, phi1 * e, phi1, b_x / big_k, params.u_x, beta, e / big_k, phi2, b_y, b_y / big_k, params.u_y)


# The map's update, its one expression: from (px, py) and the caller's ratio py^2/px
# to (x, y), the constants named as in _MAP_CONSTANTS.  Floats and float64 arrays (one
# element per lane) go through it alike, each + * / rounded once, so lanes keep the scalar bits.
MAP = """\
x = (px * gain_x + phi1_e * py) / (1.0 + phi1 * (bx_k * px + bx_k * py + u_x + beta * py + e_k * py + e_k * ratio))
y = py * (1.0 + phi2 * (b_y + beta * px)) / (1.0 + phi2 * (by_k * px + by_k * py + u_y))
"""
_MAP_CONSTANTS = "gain_x, phi1_e, phi1, bx_k, u_x, beta, e_k, phi2, b_y, by_k, u_y"
# map_kernel and map_lanes read _map_update as a module global when they build their update.
_map_update = compiled("_map_update", f"""\
def _map_update({_MAP_CONSTANTS}):
    def update(px, py, ratio):
{indented(MAP)}
        return x, y
    return update
""", globals())


def map_kernel(params: HostParams, variant: ModelVariant, h: float) -> Kernel:
    """The variant's update ``(X_n, Y_n) -> (X_{n+1}, Y_{n+1})`` at step size h.

    Checks the parameters and h and computes phi1 and phi2 once.  The
    update raises DomainError for a state that is not finite, leaves the
    nonnegative quadrant, or has X = 0 < Y under the general variant.
    """
    update = _map_update(*_map_constants(params, variant, h))
    general = variant is ModelVariant.GENERAL

    def advance(x: float, y: float) -> tuple[float, float]:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"state ({x!r}, {y!r}) is not finite")
        if x < 0 or y < 0:
            raise _refused_state(x, y)
        ratio = 0.0
        if general and y != 0:
            if x == 0:
                raise _refused_state(x, y)
            ratio = y * y / x
        return update(x, y, ratio)

    return advance


def _refused_state(x: float, y: float) -> DomainError:
    """The error for a finite state the map refuses: outside the quadrant, or X = 0 < Y under the general variant."""
    if x < 0 or y < 0:
        return DomainError(f"state ({x!r}, {y!r}) leaves the nonnegative quadrant")
    return DomainError("general map is undefined at X = 0 with Y > 0 (contains Y^2/X)")


# map_kernel's refusals, then MAP.  The loop's bound test passes only finite
# states, so map_kernel's finiteness test is not repeated.
_map_scan = loop("_map_scan", "nsfd", f"{_MAP_CONSTANTS}, general", """\
if px < 0 or py < 0:
    raise _refused_state(px, py)
ratio = 0.0
if general and py != 0:
    if px == 0:
        raise _refused_state(px, py)
    ratio = py * py / px
""" + MAP, globals())


def map_lanes(lanes: Sequence[tuple[HostParams, ModelVariant, float]]) -> LanesKernel:
    """One map update for many ``(params, variant, h)`` lanes at once, on float64 arrays.

    Each lane's constants are checked as by ``map_kernel``, and from a
    state the scalar update accepts, lane i steps exactly as
    ``map_kernel(*lanes[i])`` would, bit for bit.  Nothing checks the
    states: from a state the scalar update refuses (not finite, outside
    the quadrant, or X = 0 < Y under the general variant) a lane steps
    on to whatever the arithmetic gives, without a numpy warning, so
    the caller tests the states it gets back.
    """
    import numpy as np

    general = np.array([variant is ModelVariant.GENERAL for _, variant, _ in lanes])
    update = _map_update(*np.array([_map_constants(*lane) for lane in lanes], dtype=np.float64).T.copy())

    def advance(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            return update(x, y, np.where(general & (y != 0), y * y / x, 0.0))

    return advance


def step(params: HostParams, variant: ModelVariant, h: float, s: tuple[float, float]) -> State:
    """One update of the variant's map from s (see map_kernel)."""
    return State(*map_kernel(params, variant, h)(*s))


def iterate(
    params: HostParams,
    variant: ModelVariant,
    h: float,
    s0: tuple[float, float],
    n_max: int,
    settings: ConvergenceSettings | None = None,
    record_every: int = 1,
) -> Trajectory:
    """Run the variant's map from s0 for up to n_max steps (0 gives the start alone).

    Stops early once the convergence monitor matches a known
    equilibrium of the variant (or flags divergence).  Every state is
    recorded unless ``record_every`` thins the output; the initial and
    final states are always present.
    """
    scan = partial(_map_scan, (*_map_constants(params, variant, h), variant is ModelVariant.GENERAL))
    return _run_monitored(scan, params, variant, s0, n_max, h, settings, record_every)
