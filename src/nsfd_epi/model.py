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

import linecache
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple

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
    "VariantParameterError",
    "Violation",
    "effective_rates",
    "field_kernel",
    "validate_params",
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


# A one-step update or a vector field: (X, Y) -> a pair of floats.
Kernel = Callable[[float, float], tuple[float, float]]


@dataclass(frozen=True)
class Violation:
    """A failed parameter predicate, named after the predicate itself; ``hard`` if no run may proceed past it."""

    predicate: str
    message: str
    hard: bool = False

    def __str__(self) -> str:
        return f"{self.predicate}: {self.message}"


def validate_params(params: HostParams) -> list[Violation]:
    """Diagnose a parameter set; returns every violated predicate once, the hard ones first.

    The hard violations are a rate that is not finite and K <= 0.  The
    others are a negative rate and the biological assumptions u_y > u_x
    and b_x >= b_y + e that the stability theory relies on; the CLI's
    --permissive downgrades those to warnings, so that deliberately
    implausible demonstration runs can proceed.
    """
    violations: list[Violation] = []
    for name in RATES.values():
        value = getattr(params, name)
        if not math.isfinite(value):
            violations.append(Violation(f"{name} finite", f"{name} = {value!r} is not finite", hard=True))
    if math.isfinite(params.K) and params.K <= 0:
        violations.append(Violation("K > 0", f"carrying capacity K = {params.K!r} must be positive", hard=True))
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


# The vector field's one expression: g, then {dx} and {dy} at ({x}, {y}), the rates named as
# in RATE_NAMES.  field_kernel, the Euler and RK4 loops of integrators and the RK4 loop's C twin
# are compiled from it, whole at every rate.
FIELD = """\
g = 1.0 - ({x} + {y}) / big_k
{dx} = (b_x * g - u_x - beta * {y}) * {x} + e * g * {y}
{dy} = (b_y * g - u_y + beta * {x}) * {y}
"""
RATE_NAMES = "b_x, b_y, u_x, u_y, big_k, e, beta"


def rates(params: HostParams, variant: ModelVariant) -> tuple[float, ...]:
    """The variant's rates in RATE_NAMES order, e and beta as it uses them (see effective_rates)."""
    return (params.b_x, params.b_y, params.u_x, params.u_y, params.K, *effective_rates(params, variant))


def indented(snippet: str) -> str:
    """The snippet's lines indented by 8 spaces, two levels deep, without a final newline."""
    return "\n".join("        " + line for line in snippet.splitlines())


def compiled(name: str, source: str, namespace: dict[str, Any]) -> Any:
    """Execute ``source``, which defines ``name``, in ``namespace`` and return what it defines.

    It builds every generated function: at import, ``_field`` here from ``FIELD`` and
    ``nsfd._map_update``, ``_map_step`` and ``_brackets`` from ``nsfd``'s snippets; on first use,
    each run loop from ``convergence._LOOP`` (see ``convergence.loop``).  The text is
    registered in ``linecache`` as ``<nsfd_epi.NAME>``, so tracebacks and ``inspect.getsource`` show it.
    """
    filename = f"<nsfd_epi.{name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


_field = compiled("_field", f"""\
def _field({RATE_NAMES}):
    def field(x, y):
{indented(FIELD.format(x="x", y="y", dx="dx", dy="dy"))}
        return dx, dy
    return field
""", globals())


def field_kernel(params: HostParams, variant: ModelVariant) -> Kernel:
    """The variant's right-hand side ``(X, Y) -> (dX/dt, dY/dt)``, parameters bound once.

    The returned function, compiled from ``FIELD``, does not check the
    state.  Raises VariantParameterError if ``params`` contradicts ``variant``.
    """
    return _field(*rates(params, variant))
