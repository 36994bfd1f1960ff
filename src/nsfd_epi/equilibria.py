"""Closed-form equilibria and the basic reproduction number.

Every variant has the trivial equilibrium E0 = (0, 0) and, when
b_x > u_x, the disease-free equilibrium E1 = (K(1 - u_x/b_x), 0).
The sub-variants with perfect vertical transmission (e = 0) add the
susceptible-free equilibrium E2 = (0, K(1 - u_y/b_y)) when b_y > u_y.

A coexistence (interior) equilibrium exists under conditions tied to
the basic reproduction number R0 = V0 + H0, the expected number of
secondary infections per infected host near the disease-free state,
split into a vertical part V0 = (b_y/b_x)(u_x/u_y) and a horizontal
part H0 = (beta/u_y) K (1 - u_x/b_x).  For the general model the
interior X coordinate is the positive root of a quadratic
A X^2 + B X + C = 0; with e = 0 the coordinates collapse to rational
closed forms.

Existence conditions are reported with signed margins (distance from
the inequality boundary) so near-degenerate parameter sets are visible
to callers; existence itself uses exact strict comparisons.  A number
undefined at the given rates, such as R0 at u_y = 0, reads NaN, as a margin does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .model import (
    DegenerateQuadraticError,
    HostParams,
    ModelVariant,
    NotAnEquilibriumError,
    State,
    effective_rates,
)

__all__ = [
    "Condition",
    "Equilibrium",
    "EquilibriumKind",
    "InteriorCoefficients",
    "ReproductionNumbers",
    "all_equilibria",
    "disease_free_equilibrium",
    "horizontal_threshold",
    "interior_coefficients",
    "interior_equilibrium",
    "reproduction_numbers",
    "susceptible_free_equilibrium",
    "trivial_equilibrium",
]


class EquilibriumKind(Enum):
    TRIVIAL = "trivial"
    DISEASE_FREE = "disease_free"
    SUSCEPTIBLE_FREE = "susceptible_free"
    INTERIOR = "interior"


class Condition(NamedTuple):
    """An existence/stability predicate with its signed boundary margin.

    ``margin`` > 0 means the strict inequality holds with that much
    room; NaN marks a condition that could not be evaluated.
    """

    name: str
    holds: bool
    margin: float


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium candidate with its existence verdict.

    ``point`` is the algebraic solution even when ``exists`` is False
    (it may then lie outside the nonnegative quadrant, or be NaN when
    no real solution exists).
    """

    kind: EquilibriumKind
    point: State
    exists: bool
    conditions: tuple[Condition, ...] = ()

    def failed_conditions(self) -> tuple[Condition, ...]:
        return tuple(c for c in self.conditions if not c.holds)


class InteriorCoefficients(NamedTuple):
    """Coefficients of the interior-equilibrium quadratic A X^2 + B X + C."""

    A: float
    B: float
    C: float


class ReproductionNumbers(NamedTuple):
    """R0 = V0 + H0 split into vertical and horizontal components.

    ``xbar_negative`` flags b_x < u_x, where the disease-free density
    K(1 - u_x/b_x) entering H0 is negative and H0 loses its usual
    interpretation (the formula value is reported unclamped).
    """

    V0: float
    H0: float
    R0: float
    xbar_negative: bool = False


def reproduction_numbers(params: HostParams) -> ReproductionNumbers:
    """Basic reproduction number decomposition at the disease-free state; all NaN unless b_x and u_y are positive."""
    if not (params.b_x > 0 and params.u_y > 0):
        return ReproductionNumbers(math.nan, math.nan, math.nan)
    v0 = (params.b_y / params.b_x) * (params.u_x / params.u_y)
    headroom = 1.0 - params.u_x / params.b_x
    h0 = (params.beta / params.u_y) * params.K * headroom
    return ReproductionNumbers(v0, h0, v0 + h0, xbar_negative=headroom < 0)


def trivial_equilibrium() -> Equilibrium:
    """The extinction equilibrium (0, 0); exists for all parameters."""
    return Equilibrium(EquilibriumKind.TRIVIAL, State(0.0, 0.0), True)


def disease_free_equilibrium(params: HostParams) -> Equilibrium:
    """(K(1 - u_x/b_x), 0); exists iff b_x > u_x.

    With b_x <= 0, which permissive validation lets through, there is no
    such point: the candidate does not exist, at (nan, 0), and a
    condition b_x > 0 fails beside b_x > u_x.
    """
    cond = Condition("b_x > u_x", params.b_x > params.u_x, params.b_x - params.u_x)
    if params.b_x <= 0:
        no_births = Condition("b_x > 0", False, params.b_x)
        return Equilibrium(EquilibriumKind.DISEASE_FREE, State(math.nan, 0.0), False, (cond, no_births))
    xbar = params.K * (1.0 - params.u_x / params.b_x)
    return Equilibrium(EquilibriumKind.DISEASE_FREE, State(xbar, 0.0), cond.holds, (cond,))


def susceptible_free_equilibrium(params: HostParams, variant: ModelVariant) -> Equilibrium:
    """(0, K(1 - u_y/b_y)); exists iff b_y > u_y.  Requires e = 0.

    With e != 0 infected hosts shed (or, at e < 0, withdraw) uninfected
    offspring, so dX/dt = e*Y*(1 - Y/K) on the Y axis, which is not
    invariant, and no susceptible-free equilibrium exists: asking for one
    under the general variant raises NotAnEquilibriumError.
    With b_y <= 0 it does not exist, at (0, nan), and b_y > 0 fails beside b_y > u_y.
    """
    if variant is ModelVariant.GENERAL and params.e != 0.0:
        raise NotAnEquilibriumError(
            "the Y axis is not invariant when e != 0; the general model has no susceptible-free equilibrium"
        )
    cond = Condition("b_y > u_y", params.b_y > params.u_y, params.b_y - params.u_y)
    if params.b_y <= 0:
        no_births = Condition("b_y > 0", False, params.b_y)
        return Equilibrium(EquilibriumKind.SUSCEPTIBLE_FREE, State(0.0, math.nan), False, (cond, no_births))
    ybar = params.K * (1.0 - params.u_y / params.b_y)
    return Equilibrium(EquilibriumKind.SUSCEPTIBLE_FREE, State(0.0, ybar), cond.holds, (cond,))


def horizontal_threshold(params: HostParams) -> float:
    """b_x u_y/b_y - (u_x + beta K (1 - u_y/b_y)): uninfected hosts' growth rate at E2 (e = 0), NaN for b_y <= 0."""
    b_x, b_y, u_x, u_y = params.b_x, params.b_y, params.u_x, params.u_y
    return b_x * u_y / b_y - (u_x + params.beta * params.K * (1.0 - u_y / b_y)) if b_y > 0 else math.nan


def interior_coefficients(params: HostParams) -> InteriorCoefficients:
    """Quadratic coefficients for the general model's interior X.

    A carries a factor beta and C a factor e, so the quadratic
    degenerates in the sub-variants (handled by interior_equilibrium).
    All three are NaN when b_y <= 0, or when K or b_y is so large or so
    small that a coefficient's squares overflow or divide by zero.
    """
    if not params.b_y > 0:
        return InteriorCoefficients(math.nan, math.nan, math.nan)
    b_x, b_y, u_x, u_y, big_k, e, beta = (
        params.b_x,
        params.b_y,
        params.u_x,
        params.u_y,
        params.K,
        params.e,
        params.beta,
    )
    try:
        a = beta * big_k / b_y**2 * (b_y * (b_x - b_y - e) + beta * big_k * (b_y + e))
        b = (
            -big_k * (b_x - u_x)
            + big_k * (b_x + beta * big_k + e) * (b_y - u_y) / b_y
            + 2.0 * e * big_k * (beta * big_k - b_y) * (b_y - u_y) / b_y**2
            - e * big_k * (beta * big_k - b_y) / b_y
        )
        c = -e * big_k**2 * (b_y - u_y) * u_y / b_y**2
    except (OverflowError, ZeroDivisionError):
        # K**2 overflows above about 1.3e154; b_y**2 underflows to 0 below about 1.5e-154.
        return InteriorCoefficients(math.nan, math.nan, math.nan)
    return InteriorCoefficients(a, b, c)


def _positive_quadratic_root(coeffs: InteriorCoefficients) -> tuple[float, float]:
    """The (-B + sqrt(B^2 - 4AC)) / 2A root, evaluated without cancellation.

    Returns (root, discriminant); the root is NaN when the discriminant
    is negative.  When B > 0 the direct formula subtracts two nearly
    equal quantities (C can be tiny), so the algebraically equivalent
    form -2C / (B + sqrt(disc)) is used instead.
    """
    a, b, c = coeffs
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return math.nan, disc
    root_disc = math.sqrt(disc)
    if b > 0:
        # denom >= B > 0.  Where 2C overflows, |C|/denom >= 1/2, so doubling it is exact.
        denom, two_c = b + root_disc, 2.0 * c
        x = -two_c / denom if math.isfinite(two_c) else -c / denom * 2.0
    else:
        x = (-b + root_disc) / (2.0 * a)
    return x, disc


def interior_equilibrium(params: HostParams, variant: ModelVariant) -> Equilibrium:
    """The coexistence equilibrium of the general or horizontal variant.

    General variant: X* is the positive quadratic root and
    Y* = (beta K - b_y) X*/b_y + K(b_y - u_y)/b_y; it exists iff
    b_x > u_x, b_y > u_y, b_y > beta K and K/X* > (b_y - beta K)/(b_y - u_y),
    with the root additionally required to satisfy 0 < X* < K.  When the
    quadratic's coefficients, its discriminant, X* or Y* leave the
    floating-point range (as at K = 1e300 or b_x = 1e300), the candidate
    does not exist, at (nan, nan), and its last condition,
    "coefficients in floating-point range" (b_y > 0 where b_y <= 0), fails.

    Horizontal variant (e = 0): rational closed forms; exists iff
    b_x > u_x, b_y > u_y, b_x u_y / b_y > u_x + beta K (1 - u_y/b_y)
    and R0 > 1 (with a positive closed-form denominator).

    Raises:
        NotAnEquilibriumError: for the vertical variant (no interior
            equilibrium exists when e = 0 and beta = 0).
        DegenerateQuadraticError: when the defining algebra degenerates
            (general with A = 0, e.g. beta = 0; horizontal with beta = 0
            or b_y = b_x + beta K); the message points to the variant
            that covers the degenerate case.
    """
    if variant is ModelVariant.VERTICAL:
        raise NotAnEquilibriumError("the vertical variant has no interior equilibrium")
    b_x, b_y, u_x, u_y, big_k = params.b_x, params.b_y, params.u_x, params.u_y, params.K

    if variant is ModelVariant.GENERAL:
        conditions = [
            Condition("b_x > u_x", b_x > u_x, b_x - u_x),
            Condition("b_y > u_y", b_y > u_y, b_y - u_y),
            Condition("b_y > beta*K", b_y > params.beta * big_k, b_y - params.beta * big_k),
        ]
        if not b_y > 0:
            conditions.append(Condition("b_y > 0", False, b_y))
            return Equilibrium(EquilibriumKind.INTERIOR, State(math.nan, math.nan), False, tuple(conditions))
        coeffs = interior_coefficients(params)
        if coeffs.A == 0.0:
            raise DegenerateQuadraticError(
                "interior quadratic degenerates (A = 0, typically beta = 0); "
                "use the horizontal or vertical variant for this parameter set"
            )
        x, disc = _positive_quadratic_root(coeffs)
        y = (params.beta * big_k - b_y) * x / b_y + big_k * (b_y - u_y) / b_y
        # The coefficients, B^2 or the point itself can overflow although every rate is finite.
        if not math.isfinite(disc) or (disc >= 0 and not (math.isfinite(x) and math.isfinite(y))):
            conditions.append(Condition("coefficients in floating-point range", False, math.nan))
            return Equilibrium(EquilibriumKind.INTERIOR, State(math.nan, math.nan), False, tuple(conditions))
        conditions.append(Condition("B^2 - 4AC >= 0", disc >= 0, disc))
        # With B^2 - 4AC < 0, X* and Y* are NaN, and so are the margins below.
        conditions.append(Condition("0 < X* < K", 0 < x < big_k, min(x, big_k - x)))
        if x > 0 and b_y != u_y:
            margin = big_k / x - (b_y - params.beta * big_k) / (b_y - u_y)
            holds = margin > 0 and b_y > u_y
        else:
            margin, holds = math.nan, False
        conditions.append(Condition("K/X* > (b_y - beta*K)/(b_y - u_y)", holds, margin))
        exists = all(c.holds for c in conditions)
        return Equilibrium(EquilibriumKind.INTERIOR, State(x, y), exists, tuple(conditions))

    # Horizontal variant: rational closed forms.
    denom = params.beta * (params.beta * big_k + b_x - b_y)
    if params.beta == 0.0 or denom == 0.0:
        raise DegenerateQuadraticError(
            "interior closed form degenerates (beta = 0 or b_y = b_x + beta*K); "
            "use the vertical variant for beta = 0"
        )
    x = (b_x * u_y - b_y * u_x - params.beta * big_k * (b_y - u_y)) / denom
    y = (b_y * u_x - b_x * u_y + params.beta * big_k * (b_x - u_x)) / denom
    r0 = reproduction_numbers(params).R0
    threshold = horizontal_threshold(params)
    conditions = [
        Condition("b_x > u_x", b_x > u_x, b_x - u_x),
        Condition("b_y > u_y", b_y > u_y, b_y - u_y),
        Condition("b_x*u_y/b_y > u_x + beta*K*(1 - u_y/b_y)", threshold > 0, threshold),
        Condition("R0 > 1", r0 > 1, r0 - 1.0),
        Condition("beta*(beta*K + b_x - b_y) > 0", denom > 0, denom),
    ]
    exists = all(c.holds for c in conditions)
    return Equilibrium(EquilibriumKind.INTERIOR, State(x, y), exists, tuple(conditions))


def all_equilibria(params: HostParams, variant: ModelVariant) -> tuple[Equilibrium, ...]:
    """Every equilibrium candidate of the variant, existence flags included.

    Each constructor decides whether the variant has its point: one that
    raises NotAnEquilibriumError (the general susceptible-free point at
    e != 0, the vertical interior) or DegenerateQuadraticError (see
    interior_equilibrium) is omitted.  VariantParameterError as in effective_rates.
    """
    effective_rates(params, variant)
    out = [trivial_equilibrium(), disease_free_equilibrium(params)]
    for candidate in (susceptible_free_equilibrium, interior_equilibrium):
        try:
            out.append(candidate(params, variant))
        except (NotAnEquilibriumError, DegenerateQuadraticError):
            pass
    return tuple(out)
