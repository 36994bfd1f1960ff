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
e = 0 and beta = 0 (so phi1 = h); every variant steps the whole map.
The Y^2/X ratio is formed only where its coefficient e/K is nonzero and
Y != 0; at X = 0 it is infinite, and 0 * inf would turn the invariant X = 0
axis of a map with e = 0 into NaN.  With e > 0 the map refuses X <= 0
with Y > 0, and it extends continuously along the X axis (Y = 0).

Every term on each side is nonnegative for states in the positive
quadrant, so positivity holds for every step size h > 0, and the fixed
points coincide with the continuous equilibria.

What the map decides is written once, as text: ``RATIO`` (its refusal
of a state outside the quadrant, then of X = 0 < Y, and Y^2/X), ``D1``
and ``D2`` (the brackets of its denominators), ``MAP`` (the update) and
``FINITE`` (a finiteness test).

    map_kernel    returns _map_step     FINITE + RATIO + MAP
    iterate       runs _map_scan        RATIO + MAP in convergence's run loop,
                  or map_twin()         the same text as C (see native)
    map_lanes     runs _map_update      MAP, the caller's ratio, on float64 lanes
    map_weights   reads _brackets       FINITE + RATIO, then D1 and D2

The functions in the second column are compiled at import, except the
run loop, compiled on its first run (see ``convergence.loop``), and its
C twin, built by the first run of a process that takes it: a run whose
map constants are all finite and >= 0, so that both denominators are
>= 1.  The Python loop is the canary's reference and the loop where no
compiler is found, and runs the rest, as at a negative rate.
The run loop's bound test passes only finite states.  Each lane keeps the
scalar bits; below about 30 lanes one numpy step costs more than the scalar
steps it replaces.  Tests pin the Python loop and its twin to
``map_kernel`` bit for bit and error for error, the lanes bit for bit,
and ``map_weights``'s refusals to ``map_kernel``'s.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Sequence

from .convergence import ConvergenceSettings, Trajectory, _run_monitored, loop
from .convergence import _finish, _refused  # noqa: F401  # read by the loops compiled here
from .model import DomainError, HostParams, Kernel, ModelVariant, State, compiled, effective_rates, indented

if TYPE_CHECKING:
    import numpy as np

    from .native import CanaryRun, Twin

    LanesKernel = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

__all__ = [
    "denominators",
    "iterate",
    "map_kernel",
    "map_lanes",
    "map_weights",
    "step",
]

# Below this value of (beta K u_y / b_y) * h the closed form for phi1 is
# evaluated by its second-order series to avoid 0/0 cancellation.
PHI1_SERIES_CUTOFF = 1e-8


def denominators(params: HostParams, variant: ModelVariant, h: float) -> tuple[float, float]:
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
        return h, h
    if params.b_y <= 0:
        raise DomainError(f"phi1 needs b_y > 0 when beta*K*u_y > 0, got b_y = {params.b_y!r}")
    rate = decay / params.b_y
    z = rate * h
    if z < PHI1_SERIES_CUTOFF:
        phi1 = h * (1.0 - 0.5 * z)
    else:
        phi1 = -math.expm1(-z) / rate
    return phi1, h


def _map_constants(params: HostParams, variant: ModelVariant, h: float) -> tuple[float, ...]:
    """One lane's constants of the map, in ``_MAP_CONSTANTS`` order.

    Checks the parameters and h; phi1 comes from ``denominators`` (so
    from ``math.expm1``) whichever operand type the update runs on.
    """
    e, beta = effective_rates(params, variant)
    phi1, phi2 = denominators(params, variant, h)
    b_x, b_y, big_k = params.b_x, params.b_y, params.K
    return (1.0 + phi1 * b_x, phi1 * e, phi1, b_x / big_k, params.u_x, beta, e / big_k, phi2, b_y, b_y / big_k, params.u_y)


# The map's refusal of a state (px, py) outside the quadrant, then its ratio py^2/px where the
# coefficient e/K is nonzero, which refuses X = 0 < Y.
RATIO = """\
if px < 0 or py < 0:
    raise _refused_state(px, py)
ratio = 0.0
if e_k and py != 0:
    if px == 0:
        raise _refused_state(px, py)
    ratio = py * py / px
"""
# The brackets of the map's denominators 1 + phi1 D1 and 1 + phi2 D2; they do not depend on h.
D1 = "bx_k * px + bx_k * py + u_x + beta * py + e_k * py + e_k * ratio"
D2 = "by_k * px + by_k * py + u_y"
# The map's update, its one expression: from (px, py) and the ratio to (x, y), the constants named as
# in _MAP_CONSTANTS.  Floats and float64 arrays (one element per lane) go through it alike, each + * /
# rounded once, so lanes keep the scalar bits.
MAP = f"""\
x = (px * gain_x + phi1_e * py) / (1.0 + phi1 * ({D1}))
y = py * (1.0 + phi2 * (b_y + beta * px)) / (1.0 + phi2 * ({D2}))
"""
FINITE = """\
if not (math.isfinite(px) and math.isfinite(py)):
    raise DomainError(f"state ({px!r}, {py!r}) is not finite")
"""
_MAP_CONSTANTS = "gain_x, phi1_e, phi1, bx_k, u_x, beta, e_k, phi2, b_y, by_k, u_y"
# map_kernel, map_lanes and map_weights read these factories as module globals when they build.
_map_update = compiled("_map_update", f"""\
def _map_update({_MAP_CONSTANTS}):
    def update(px, py, ratio):
{indented(MAP)}
        return x, y
    return update
""", globals())
_map_step = compiled("_map_step", f"""\
def _map_step({_MAP_CONSTANTS}):
    def advance(px, py):
{indented(FINITE + RATIO + MAP)}
        return x, y
    return advance
""", globals())
_brackets = compiled("_brackets", f"""\
def _brackets({_MAP_CONSTANTS}, px, py):
{indented(FINITE + RATIO)}
        return {D1}, {D2}
""", globals())


def map_kernel(params: HostParams, variant: ModelVariant, h: float) -> Kernel:
    """The variant's update ``(X_n, Y_n) -> (X_{n+1}, Y_{n+1})`` at step size h.

    Checks the parameters and h and computes phi1 and phi2 once.  The
    update raises DomainError for a state that is not finite, leaves the
    nonnegative quadrant, or has X = 0 < Y where e/K is nonzero.
    """
    return _map_step(*_map_constants(params, variant, h))


def _refused_state(x: float, y: float) -> DomainError:
    """The error for a finite state the map refuses: outside the quadrant, or X = 0 < Y where e/K is nonzero."""
    if x < 0 or y < 0:
        return DomainError(f"state ({x!r}, {y!r}) leaves the nonnegative quadrant")
    return DomainError("general map is undefined at X = 0 with Y > 0 (contains Y^2/X)")


def _nonnegative(values: Sequence[float]) -> bool:
    """Whether every map constant is finite and >= 0: then both denominators are >= 1, and C divides by no 0."""
    return all(0.0 <= value < math.inf for value in values)


def _canary() -> list[CanaryRun]:
    """The C twin's canary runs, recorded at every step, through each of its returns to Python.

    At h = 0.1 the general run is quiet from its first step and its
    proximity test converges at step 12, or the run stops at its budget
    of 13.  At K = 10 and h = 1, Y passes a bound of 1 at step 8; at
    K = 1e300 and h = 1000 the update overflows at step 2.  The last
    three start from X = 1e-320, which rounds to 0 at step 1 so that
    the step refuses X = 0 < Y at step 2; from Y < 0, refused at step
    1; and from X = -0.0 at e = 0, which the map writes as 0.0.
    """
    from .native import CanaryMonitor

    quiet = ConvergenceSettings(tol_step=0.05, window=3)

    def constants(h: float, **rates: float) -> tuple[float, ...]:
        general = HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=0.3)
        return _map_constants(replace(general, **rates), ModelVariant.GENERAL, h)

    return [
        (constants(0.1), CanaryMonitor(1e6, quiet, 12), (0.3, 0.2), 40),
        (constants(0.1), CanaryMonitor(1e6, quiet, 99), (0.3, 0.2), 13),
        (constants(1.0, K=10.0), CanaryMonitor(1.0, quiet, 99), (0.3, 0.2), 40),
        (constants(1000.0, K=1e300, u_y=0.0), CanaryMonitor(1e306, quiet, 99), (1e305, 0.1), 9),
        (constants(1.0), CanaryMonitor(1e6, quiet, 99), (1e-320, 1.0), 9),
        (constants(0.1), CanaryMonitor(1e6, quiet, 99), (0.3, -1e-300), 5),
        (constants(0.1, e=0.0), CanaryMonitor(1e6, quiet, 99), (-0.0, 0.5), 7),
    ]


@cache
def map_twin() -> Twin:
    """The C twin of the map's run loop, one per process; ``native`` is imported by the first map run."""
    from .native import Twin

    return Twin("_map_loop", "nsfd", _MAP_CONSTANTS, RATIO + MAP, _nonnegative, _canary, _refused_state)


_map_run = loop("_map_scan", "nsfd", _MAP_CONSTANTS, RATIO + MAP, globals(), map_twin)


def map_weights(
    params: HostParams, variant: ModelVariant, point: tuple[float, float]
) -> Callable[[float], tuple[float, float]]:
    """The diagonal W(h) of J - I = W Jc at a fixed point of the variant's map.

    The increments are phi_i f_i / (1 + phi_i D_i), with f the vector
    field and D_i the brackets of the map's denominators, so where f = 0
    their derivatives are W_i = phi_i/(1 + phi_i D_i) times those of f_i.
    D1 and D2 are computed once, from the map's own text, at a point the
    map accepts (else its DomainError).  W(h) raises DomainError for an
    entry that is not finite or is 0.
    """
    x, y = point
    d1, d2 = _brackets(*_map_constants(params, variant, 1.0), x, y)  # any h: the brackets do not read phi

    def weights(h: float) -> tuple[float, float]:
        phi1, phi2 = denominators(params, variant, h)
        den1, den2 = 1.0 + phi1 * d1, 1.0 + phi2 * d2  # 0 where a bracket is -1/phi: an infinite entry
        w1, w2 = (phi1 / den1, phi2 / den2) if den1 and den2 else (math.inf, math.inf)
        if not (math.isfinite(w1) and math.isfinite(w2) and w1 != 0.0 and w2 != 0.0):
            raise DomainError(f"discrete linearization at ({x!r}, {y!r}) with h = {h!r} is out of floating-point range")
        return w1, w2

    return weights


def map_lanes(lanes: Sequence[tuple[HostParams, ModelVariant, float]]) -> LanesKernel:
    """One map update for many ``(params, variant, h)`` lanes at once, on float64 arrays.

    Each lane's constants are checked as by ``map_kernel``, and from a
    state the scalar update accepts, lane i steps exactly as
    ``map_kernel(*lanes[i])`` would, bit for bit.  Nothing checks the
    states: from a state the scalar update refuses (not finite, outside
    the quadrant, or X = 0 < Y where e/K is nonzero) a lane steps on to
    whatever the arithmetic gives, without a numpy warning, so the
    caller tests the states it gets back.
    """
    import numpy as np

    constants = np.array([_map_constants(*lane) for lane in lanes], dtype=np.float64).T.copy()
    update, has_ratio = _map_update(*constants), constants[6] != 0  # e/K, the coefficient of Y^2/X

    def advance(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(all="ignore"):
            return update(x, y, np.where(has_ratio & (y != 0), y * y / x, 0.0))

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
    scan = partial(_map_run, _map_constants(params, variant, h))
    return _run_monitored(scan, params, variant, s0, n_max, h, settings, record_every)
