"""Linear stability analysis of the continuous and discrete systems.

The continuous variational matrix at (X, Y) has entries

    a11 = b_x g - b_x X/K - u_x - beta Y - e Y/K
    a12 = -b_x X/K - beta X + e g - e Y/K
    a21 = -b_y Y/K + beta Y
    a22 = b_y g - b_y Y/K - u_y + beta X,     g = 1 - (X+Y)/K

and the discrete map's variational matrix follows from quotient-rule
differentiation of the update (closed forms below, cross-checked in
the test suite against finite differences of the map itself).

Classification is by eigenvalues: sign of the real parts in the
continuous regime, modulus against the unit circle in the discrete
one.  For 2x2 discrete maps with diagonal entries in (0, 1), both
eigenvalues lie inside the unit circle iff 1 - det > 0 and
1 - trace + det > 0 (jury_conditions).  theorem_prediction evaluates
the closed-form stability criteria of each equilibrium kind, which are
the same inequalities in both regimes, so they can be cross-checked
against the eigenvalue classification at any step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import nsfd
from .equilibria import Condition, Equilibrium, EquilibriumKind, reproduction_numbers
from .model import DomainError, HostParams, ModelVariant, effective_rates

__all__ = [
    "Classification",
    "JuryConditions",
    "Matrix2",
    "Regime",
    "StabilityConditions",
    "StabilityReport",
    "TheoremPrediction",
    "classify",
    "continuous_jacobian",
    "discrete_jacobian",
    "eigenvalues2",
    "jury_conditions",
    "prediction_matches",
    "stability_conditions",
    "stability_report",
    "theorem_prediction",
]

# Relative tolerance for declaring an eigenvalue on the stability
# boundary; the theory assumes strict inequalities throughout.
EPS_HYPERBOLIC = 1e-9


class Matrix2(NamedTuple):
    a11: float
    a12: float
    a21: float
    a22: float

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21


class Regime(Enum):
    CONTINUOUS = "continuous"
    DISCRETE = "discrete"


class Classification(Enum):
    """Fixed-point types by eigenvalues, as ``classify`` returns them."""

    STABLE = "stable"
    SADDLE = "saddle"
    SOURCE = "source"
    NONHYPERBOLIC = "nonhyperbolic"


class TheoremPrediction(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    NOT_COVERED = "not_covered"


def continuous_jacobian(params: HostParams, variant: ModelVariant, point: tuple[float, float]) -> Matrix2:
    """Variational matrix of the ODE system at a point."""
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"point ({x!r}, {y!r}) is not finite")
    e, beta = effective_rates(params, variant)
    b_x, b_y, u_x, u_y, big_k = params.b_x, params.b_y, params.u_x, params.u_y, params.K
    g = 1.0 - (x + y) / big_k
    a11 = b_x * g - b_x * x / big_k - u_x - beta * y - e * y / big_k
    a12 = -b_x * x / big_k - beta * x + e * g - e * y / big_k
    a21 = -b_y * y / big_k + beta * y
    a22 = b_y * g - b_y * y / big_k - u_y + beta * x
    return Matrix2(a11, a12, a21, a22)


def discrete_jacobian(params: HostParams, variant: ModelVariant, point: tuple[float, float], h: float) -> Matrix2:
    """Variational matrix of the variant's update map at a point.

    Along the X axis (Y = 0) the Y/X ratio terms vanish identically and
    the closed forms extend continuously, so boundary equilibria
    (including the origin) are handled; X <= 0 with Y > 0 is refused
    for the general variant, where the map itself is undefined there.
    DomainError is also raised when a denominator or its square leaves
    the floating-point range (overflow, or zero after underflow).
    """
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"point ({x!r}, {y!r}) is not finite")
    e, beta = effective_rates(params, variant)
    phi1, phi2 = nsfd.denominators(params, variant, h)
    b_x, b_y, u_x, u_y, big_k = params.b_x, params.b_y, params.u_x, params.u_y, params.K

    try:
        if e != 0.0 and y != 0.0:
            if x <= 0.0:
                raise DomainError("discrete variational matrix needs X > 0 when e > 0 and Y > 0 (contains Y^2/X^2)")
            ratio1, ratio2, ratio3 = y * y / x, y * y / (x * x), y / x
        else:
            ratio1 = ratio2 = ratio3 = 0.0

        den1 = 1.0 + phi1 * (b_x / big_k * x + b_x / big_k * y + u_x + beta * y + e / big_k * y + e / big_k * ratio1)
        num1 = x * (1.0 + phi1 * b_x) + phi1 * e * y
        a11 = (1.0 + phi1 * b_x) / den1 - num1 * phi1 * (b_x / big_k - e / big_k * ratio2) / den1**2
        a12 = phi1 * e / den1 - num1 * phi1 * (b_x / big_k + beta + e / big_k + 2.0 * e / big_k * ratio3) / den1**2

        den2 = 1.0 + phi2 * (b_y / big_k * x + b_y / big_k * y + u_y)
        num2 = 1.0 + phi2 * (b_y + beta * x)
        a21 = phi2 * beta * y / den2 - y * num2 * phi2 * (b_y / big_k) / den2**2
        a22 = num2 / den2 - y * num2 * phi2 * (b_y / big_k) / den2**2
    except (OverflowError, ZeroDivisionError):
        # A squared denominator overflows, a denominator is 0, or X * X underflows to 0.
        raise DomainError(
            f"discrete variational matrix at ({x!r}, {y!r}) with h = {h!r} is out of floating-point range"
        ) from None
    return Matrix2(a11, a12, a21, a22)


def _characteristic_roots(m: Matrix2) -> tuple[complex, complex]:
    """The roots of lambda^2 - trace lambda + det, in the cancellation-free form."""
    tr, det = m.trace, m.det
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        root = math.sqrt(disc)
        if tr >= 0:
            r1 = 0.5 * (tr + root)
        else:
            r1 = 0.5 * (tr - root)
        r2 = det / r1 if r1 != 0.0 else tr - r1
        return complex(r1), complex(r2)
    re, im = 0.5 * tr, 0.5 * math.sqrt(-disc)
    return complex(re, im), complex(re, -im)


def _moduli_finite(eigs: tuple[complex, complex]) -> bool:
    return all(math.isfinite(math.hypot(z.real, z.imag)) for z in eigs)


def eigenvalues2(m: Matrix2) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix via its characteristic quadratic.

    Evaluated in the cancellation-free form (larger root first by
    modulus, ties broken by descending real then imaginary part).  When
    the quadratic leaves the float range (the squared trace or the
    determinant overflows) but every entry is finite, the matrix is
    divided by the power of two 2^k that brings its largest entry below
    2, solved, and the eigenvalues are multiplied by 2^k.  Both scalings
    are exact unless an entry turns subnormal; no other matrix is
    scaled.  Raises DomainError when an eigenvalue or its modulus is
    still not finite.
    """
    eigs = _characteristic_roots(m)
    if not _moduli_finite(eigs) and all(math.isfinite(a) for a in m):
        scale = 2.0 ** min(math.frexp(max(abs(a) for a in m))[1], 1023)
        scaled = _characteristic_roots(Matrix2(*(a / scale for a in m)))
        eigs = tuple(complex(z.real * scale, z.imag * scale) for z in scaled)  # type: ignore[assignment]
    if not _moduli_finite(eigs):
        raise DomainError(f"eigenvalues of {tuple(m)!r}: the characteristic quadratic is out of floating-point range")
    return tuple(sorted(eigs, key=lambda z: (-abs(z), -z.real, -z.imag)))  # type: ignore[return-value]


def classify(eigs: tuple[complex, complex], regime: Regime, eps: float = EPS_HYPERBOLIC) -> Classification:
    """Eigenvalue classification for the given regime.

    Continuous: both real parts negative is stable, both positive a
    source, mixed a saddle.  Discrete: the same with moduli measured
    against the unit circle.  Anything within ``eps`` (relative) of the
    boundary is nonhyperbolic.
    """
    if regime is Regime.CONTINUOUS:
        signed = [z.real for z in eigs]
    else:
        signed = [abs(z) - 1.0 for z in eigs]
    if any(abs(v) <= eps * (1.0 + abs(z)) for v, z in zip(signed, eigs)):
        return Classification.NONHYPERBOLIC
    if all(v < 0 for v in signed):
        return Classification.STABLE
    if all(v > 0 for v in signed):
        return Classification.SOURCE
    return Classification.SADDLE


class JuryConditions(NamedTuple):
    """The four quantities of the 2x2 inside-the-unit-circle test."""

    one_minus_det: float
    one_minus_trace_plus_det: float
    a11: float
    a22: float
    verdict: bool


def jury_conditions(m: Matrix2) -> JuryConditions:
    """The 2x2 inside-the-unit-circle test.

    For a matrix whose diagonal entries lie in (0, 1), both eigenvalue
    moduli are < 1 iff 1 - det > 0 and 1 - tr + det > 0.  The diagonal
    range is a hypothesis of that rule, not a consequence: the verdict
    is True only when all three hold, and False for any matrix with a
    diagonal entry outside (0, 1).  The entries may be floats (the
    verdict is then a bool) or float64 arrays of matrices (one verdict
    per element).
    """
    one_minus_det = 1.0 - m.det
    one_minus_trace_plus_det = 1.0 - m.trace + m.det
    verdict = (
        (one_minus_det > 0)
        & (one_minus_trace_plus_det > 0)
        & (0 < m.a11)
        & (m.a11 < 1)
        & (0 < m.a22)
        & (m.a22 < 1)
    )
    return JuryConditions(one_minus_det, one_minus_trace_plus_det, m.a11, m.a22, verdict)


@dataclass(frozen=True)
class StabilityConditions:
    """A closed-form prediction and the inequalities behind it.

    ``side_conditions`` are hypotheses the stability argument needs on
    top of the existence clause (recorded separately because they are
    standing biological assumptions rather than per-equilibrium
    criteria); the prediction requires both lists to hold.
    """

    prediction: TheoremPrediction
    conditions: tuple[Condition, ...]
    side_conditions: tuple[Condition, ...] = ()
    notes: tuple[str, ...] = ()

    def margins(self) -> tuple[float, ...]:
        return tuple(c.margin for c in self.conditions + self.side_conditions)


def stability_conditions(params: HostParams, variant: ModelVariant, eq: Equilibrium) -> StabilityConditions:
    """Evaluate the closed-form stability criteria for one equilibrium."""
    b_x, b_y, u_x, u_y, big_k = params.b_x, params.b_y, params.u_x, params.u_y, params.K
    e, beta = effective_rates(params, variant)

    if eq.kind is EquilibriumKind.TRIVIAL:
        conds = (
            Condition("b_x < u_x", b_x < u_x, u_x - b_x),
            Condition("b_y < u_y", b_y < u_y, u_y - b_y),
        )
        if all(c.holds for c in conds):
            return StabilityConditions(TheoremPrediction.STABLE, conds)
        return StabilityConditions(TheoremPrediction.NOT_COVERED, conds)

    if eq.kind is EquilibriumKind.DISEASE_FREE:
        if b_x <= 0 or u_y <= 0:
            return StabilityConditions(TheoremPrediction.NOT_COVERED, ())
        r = reproduction_numbers(params)
        conds = (
            Condition("b_x > u_x", b_x > u_x, b_x - u_x),
            Condition("R0 < 1", r.R0 < 1, 1.0 - r.R0),
        )
        if conds[0].holds and conds[1].holds:
            return StabilityConditions(TheoremPrediction.STABLE, conds)
        if conds[0].holds and r.R0 > 1:
            return StabilityConditions(TheoremPrediction.UNSTABLE, conds)
        return StabilityConditions(TheoremPrediction.NOT_COVERED, conds)

    if eq.kind is EquilibriumKind.SUSCEPTIBLE_FREE:
        if variant is ModelVariant.VERTICAL or beta == 0.0:
            # Uninfected hosts invade when b_x u_y / b_y > u_x, making the
            # point a saddle; strict parameter sets always have it.
            margin = b_x * u_y / b_y - u_x if b_y > 0 else math.nan
            side = (Condition("b_x*u_y/b_y > u_x", not math.isnan(margin) and margin > 0, margin),)
            prediction = TheoremPrediction.UNSTABLE if side[0].holds else TheoremPrediction.NOT_COVERED
            return StabilityConditions(prediction, (), side)
        margin = b_x * u_y / b_y - (u_x + beta * big_k * (1.0 - u_y / b_y)) if b_y > 0 else math.nan
        conds = (
            Condition("b_y > u_y", b_y > u_y, b_y - u_y),
            Condition(
                "b_x*u_y/b_y < u_x + beta*K*(1 - u_y/b_y)",
                not math.isnan(margin) and margin < 0,
                -margin,
            ),
        )
        if all(c.holds for c in conds):
            return StabilityConditions(TheoremPrediction.STABLE, conds)
        return StabilityConditions(TheoremPrediction.NOT_COVERED, conds)

    # Interior equilibrium: stable whenever it exists (the same
    # inequalities decide both regimes).
    conds = eq.conditions
    if variant is ModelVariant.GENERAL:
        margin = b_x - (b_y + e)
        side = (Condition("b_x >= b_y + e", margin >= 0, margin),)
        notes = ("the negative-trace/positive-determinant argument uses b_x >= b_y + e beyond existence",)
        if all(c.holds for c in conds) and margin >= 0:
            return StabilityConditions(TheoremPrediction.STABLE, conds, side, notes)
        return StabilityConditions(TheoremPrediction.NOT_COVERED, conds, side, notes)
    notes = (
        "endemic stability threshold uses beta*K*(1 - u_y/b_y); the u_x/b_x "
        "variant sometimes quoted is inconsistent with the closed-form equilibrium",
    )
    if all(c.holds for c in conds):
        return StabilityConditions(TheoremPrediction.STABLE, conds, (), notes)
    return StabilityConditions(TheoremPrediction.NOT_COVERED, conds, (), notes)


def theorem_prediction(params: HostParams, variant: ModelVariant, eq: Equilibrium) -> TheoremPrediction:
    """Stability verdict from the closed-form criteria, if they apply.

    The criteria are identical for the continuous system and the
    discrete maps, so one verdict serves both regimes.  Returns
    NOT_COVERED when the equilibrium does not exist or no criterion's
    hypotheses are met.
    """
    if not eq.exists:
        return TheoremPrediction.NOT_COVERED
    return stability_conditions(params, variant, eq).prediction


def prediction_matches(prediction: TheoremPrediction, classification: Classification) -> bool:
    """Does a coarse stable/unstable prediction agree with a classification?"""
    if prediction is TheoremPrediction.STABLE:
        return classification is Classification.STABLE
    if prediction is TheoremPrediction.UNSTABLE:
        return classification in (Classification.SADDLE, Classification.SOURCE)
    return False


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalue analysis of one equilibrium in one regime."""

    regime: Regime
    h: float | None
    matrix: Matrix2
    eigenvalues: tuple[complex, complex]
    classification: Classification
    prediction: TheoremPrediction
    agree: bool
    conditions: tuple[Condition, ...] = ()
    side_conditions: tuple[Condition, ...] = ()
    notes: tuple[str, ...] = field(default=())


def stability_report(
    params: HostParams,
    variant: ModelVariant,
    eq: Equilibrium,
    regime: Regime,
    h: float | None = None,
    eps: float = EPS_HYPERBOLIC,
) -> StabilityReport:
    """Classify an equilibrium and cross-check the closed-form criteria."""
    if regime is Regime.DISCRETE:
        if h is None:
            raise DomainError("discrete stability reports need a step size h")
        matrix = discrete_jacobian(params, variant, eq.point, h)
    else:
        h = None
        matrix = continuous_jacobian(params, variant, eq.point)
    eigs = eigenvalues2(matrix)
    classification = classify(eigs, regime, eps)
    if eq.exists:
        crit = stability_conditions(params, variant, eq)
    else:
        crit = StabilityConditions(TheoremPrediction.NOT_COVERED, ())
    agree = crit.prediction is not TheoremPrediction.NOT_COVERED and prediction_matches(
        crit.prediction, classification
    )
    return StabilityReport(
        regime=regime,
        h=h,
        matrix=matrix,
        eigenvalues=eigs,
        classification=classification,
        prediction=crit.prediction,
        agree=agree,
        conditions=crit.conditions,
        side_conditions=crit.side_conditions,
        notes=crit.notes,
    )
