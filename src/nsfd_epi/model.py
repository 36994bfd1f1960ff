"""Parameters, state, and vector fields of the host-parasite models.

Two host classes share a habitat: uninfected hosts with density X and
infected hosts with density Y.  Births are density-limited through the
crowding factor (1 - (X+Y)/K), infection passes vertically at birth and
horizontally by mass-action contact.  The general model is

    dX/dt = [b_x (1 - (X+Y)/K) - u_x - beta Y] X + e (1 - (X+Y)/K) Y
    dY/dt = [b_y (1 - (X+Y)/K) - u_y + beta X] Y

where e is the rate at which infected hosts produce *uninfected*
offspring (imperfect vertical transmission) and beta the horizontal
transmission coefficient.  Two sub-models specialize it:

    HORIZONTAL  perfect vertical transmission, e = 0
    VERTICAL    perfect vertical transmission and no contact
                transmission, e = 0 and beta = 0

All operations here are pure functions and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Literal, NamedTuple

__all__ = [
    "BlowUpError",
    "DegenerateQuadraticError",
    "DomainError",
    "HostParams",
    "Kernel",
    "ModelVariant",
    "NotAnEquilibriumError",
    "RATES",
    "State",
    "ValidationMode",
    "VariantParameterError",
    "Violation",
    "effective_rates",
    "field_kernel",
    "validate_params",
    "vector_field",
]


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class BlowUpError(ArithmeticError):
    """A numerical update produced a non-finite state."""


class VariantParameterError(ValueError):
    """Parameter set contradicts a structural zero of the chosen variant."""


class NotAnEquilibriumError(DomainError):
    """The requested point is not an equilibrium of the chosen variant."""


class DegenerateQuadraticError(DomainError):
    """The interior-equilibrium quadratic degenerates for these parameters."""


class State(NamedTuple):
    """A point (X, Y): densities of uninfected and infected hosts."""

    X: float
    Y: float


@dataclass(frozen=True)
class HostParams:
    """The seven model parameters.

    Attributes:
        b_x: Birth rate of uninfected hosts (1/time).
        b_y: Birth rate of infected hosts (1/time).
        u_x: Death rate of uninfected hosts (1/time).
        u_y: Death rate of infected hosts (1/time).
        K: Carrying capacity (host density), must be positive.
        e: Rate at which infected hosts produce uninfected offspring
            (1/time); e = 0 means perfect vertical transmission.
        beta: Horizontal transmission coefficient (1/(density * time)).

    Rates carry no enforced unit system.  Biological plausibility
    (infected hosts die faster, u_y > u_x, and bear no more offspring
    than uninfected ones, b_x >= b_y + e) is checked by
    :func:`validate_params`, not by the constructor, so that diagnostic
    and demonstration runs with implausible values remain expressible.
    """

    b_x: float
    b_y: float
    u_x: float
    u_y: float
    K: float
    e: float = 0.0
    beta: float = 0.0


# Each rate's short name in flags, config files and fixtures, mapped to
# its HostParams field, in the order that output lists them.
RATES = {"bx": "b_x", "by": "b_y", "ux": "u_x", "uy": "u_y", "K": "K", "e": "e", "beta": "beta"}


class ModelVariant(Enum):
    """Which member of the model family is being analyzed.

    The variant is explicit rather than inferred from zero parameters:
    running GENERAL with e = 0 is permitted (useful for cross-checks)
    but the sub-variants insist their structurally absent rates are
    exactly zero.
    """

    GENERAL = "general"
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


ValidationMode = Literal["strict", "permissive"]

# A one-step update or a vector field: (X, Y) -> a pair of floats.
Kernel = Callable[[float, float], tuple[float, float]]


@dataclass(frozen=True)
class Violation:
    """A failed parameter predicate, named after the predicate itself."""

    predicate: str
    message: str

    def __str__(self) -> str:
        return f"{self.predicate}: {self.message}"


def validate_params(params: HostParams, mode: ValidationMode = "strict") -> list[Violation]:
    """Diagnose a parameter set; returns the violated predicates.

    Strict mode (the default) enforces finiteness, nonnegativity, K > 0,
    and the biological assumptions u_y > u_x and b_x >= b_y + e that the
    stability theory relies on.  Permissive mode keeps only finiteness
    and K > 0 as hard violations, downgrading the rest to warnings so
    that deliberately implausible demonstration runs can proceed
    (callers can recover the downgraded set by diffing against strict).
    """
    violations: list[Violation] = []
    for name in RATES.values():
        value = getattr(params, name)
        if not math.isfinite(value):
            violations.append(Violation(f"{name} finite", f"{name} = {value!r} is not finite"))
    if math.isfinite(params.K) and params.K <= 0:
        violations.append(Violation("K > 0", f"carrying capacity K = {params.K!r} must be positive"))
    if mode == "strict":
        for name in RATES.values():
            value = getattr(params, name)
            if math.isfinite(value) and value < 0 and name != "K":
                violations.append(Violation(f"{name} >= 0", f"{name} = {value!r} is negative"))
        if math.isfinite(params.u_x) and math.isfinite(params.u_y) and not params.u_y > params.u_x:
            violations.append(
                Violation("u_y > u_x", f"infected death rate u_y = {params.u_y!r} does not exceed u_x = {params.u_x!r}")
            )
        if (
            math.isfinite(params.b_x)
            and math.isfinite(params.b_y)
            and math.isfinite(params.e)
            and not params.b_x >= params.b_y + params.e
        ):
            violations.append(
                Violation(
                    "b_x >= b_y + e",
                    f"uninfected birth rate b_x = {params.b_x!r} is below b_y + e = {params.b_y + params.e!r}",
                )
            )
    elif mode != "permissive":
        raise ValueError(f"unknown validation mode {mode!r}")
    return violations


def effective_rates(params: HostParams, variant: ModelVariant) -> tuple[float, float]:
    """The (e, beta) pair a variant actually uses.

    Raises VariantParameterError if a structurally-zero rate is nonzero
    in ``params`` (e.g. HORIZONTAL with e != 0).
    """
    if variant is ModelVariant.GENERAL:
        return params.e, params.beta
    if variant is ModelVariant.HORIZONTAL:
        if params.e != 0.0:
            raise VariantParameterError(
                f"horizontal variant requires e = 0 (perfect vertical transmission), got e = {params.e!r}"
            )
        return 0.0, params.beta
    if variant is ModelVariant.VERTICAL:
        if params.e != 0.0 or params.beta != 0.0:
            raise VariantParameterError(
                f"vertical variant requires e = 0 and beta = 0, got e = {params.e!r}, beta = {params.beta!r}"
            )
        return 0.0, 0.0
    raise ValueError(f"unknown variant {variant!r}")


def field_kernel(params: HostParams, variant: ModelVariant) -> Kernel:
    """The variant's right-hand side ``(X, Y) -> (dX/dt, dY/dt)``, parameters bound once.

    The returned function does not check the state.  Raises
    VariantParameterError if ``params`` contradicts ``variant``.
    """
    e, beta = effective_rates(params, variant)
    b_x, b_y, u_x, u_y, big_k = params.b_x, params.b_y, params.u_x, params.u_y, params.K

    def field(x: float, y: float) -> tuple[float, float]:
        crowding = 1.0 - (x + y) / big_k
        dx = (b_x * crowding - u_x - beta * y) * x + e * crowding * y
        dy = (b_y * crowding - u_y + beta * x) * y
        return dx, dy

    return field


def vector_field(params: HostParams, variant: ModelVariant, s: tuple[float, float]) -> tuple[float, float]:
    """Right-hand side (dX/dt, dY/dt) of the variant's ODE system at s.

    Defined for every finite state, including negative ones (needed to
    follow positivity-violating trajectories of naive discretizations).

    Raises:
        DomainError: if either component of ``s`` is not finite.
        VariantParameterError: if ``params`` contradicts ``variant``.
    """
    x, y = s
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"state ({x!r}, {y!r}) is not finite")
    return field_kernel(params, variant)(x, y)
