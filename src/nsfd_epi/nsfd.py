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
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .convergence import ConvergenceSettings, Trajectory, _run_monitored
from .model import DomainError, HostParams, Kernel, ModelVariant, State, effective_rates

__all__ = [
    "DenominatorPair",
    "denominators",
    "iterate",
    "map_kernel",
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


def map_kernel(params: HostParams, variant: ModelVariant, h: float) -> Kernel:
    """The variant's update ``(X_n, Y_n) -> (X_{n+1}, Y_{n+1})`` at step size h.

    Checks the parameters and h and computes phi1 and phi2 once.  The
    update raises DomainError for a state that is not finite, leaves the
    nonnegative quadrant, or has X = 0 < Y under the general variant.
    """
    e, beta = effective_rates(params, variant)
    phi1, phi2 = denominators(params, variant, h)
    general = variant is ModelVariant.GENERAL
    b_x, b_y, u_x, u_y = params.b_x, params.b_y, params.u_x, params.u_y
    gain_x, phi1_e = 1.0 + phi1 * b_x, phi1 * e
    bx_k, by_k, e_k = b_x / params.K, b_y / params.K, e / params.K

    def advance(x: float, y: float) -> tuple[float, float]:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"state ({x!r}, {y!r}) is not finite")
        if x < 0 or y < 0:
            raise DomainError(f"state ({x!r}, {y!r}) leaves the nonnegative quadrant")
        ratio = 0.0
        if general and y != 0:
            if x == 0:
                raise DomainError("general map is undefined at X = 0 with Y > 0 (contains Y^2/X)")
            ratio = y * y / x
        num_x = x * gain_x + phi1_e * y
        den_x = 1.0 + phi1 * (bx_k * x + bx_k * y + u_x + beta * y + e_k * y + e_k * ratio)
        num_y = y * (1.0 + phi2 * (b_y + beta * x))
        den_y = 1.0 + phi2 * (by_k * x + by_k * y + u_y)
        return num_x / den_x, num_y / den_y

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
    """Run the variant's map from s0 for up to n_max steps.

    Stops early once the convergence monitor matches a known
    equilibrium of the variant (or flags divergence).  Every state is
    recorded unless ``record_every`` thins the output; the initial and
    final states are always present.
    """
    if n_max <= 0:
        raise DomainError(f"n_max must be positive, got {n_max!r}")
    advance = map_kernel(params, variant, h)
    steps, times, states, verdict = _run_monitored(
        advance, params, variant, s0, n_max, h, settings, record_every, "nsfd"
    )
    return Trajectory(h=h, steps=steps, times=times, states=states, verdict=verdict)
