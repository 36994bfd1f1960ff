"""Linear stability analysis of the continuous and discrete systems.

The continuous variational matrix at (X, Y) has entries

    a11 = b_x g - b_x X/K - u_x - beta Y - e Y/K
    a12 = -b_x X/K - beta X + e g - e Y/K
    a21 = -b_y Y/K + beta Y
    a22 = b_y g - b_y Y/K - u_y + beta X,     g = 1 - (X+Y)/K

and the discrete map's variational matrix at a fixed point follows
from it: J - I = W Jc, W = diag(phi1/(1 + phi1 D1), phi2/(1 + phi2 D2))
positive (``nsfd.map_weights``, from the map's own text), the
elementary-stability argument of Anguelov & Lubuma (2001) in matrix form.

Both verdicts are sign rules read from one split of Jc
(``classifications``), with det Jc and tr Jc at their own exponents.
The flow's is Routh-Hurwitz: det Jc < 0 is a saddle, det Jc > 0 stable
for tr Jc < 0 and a source for tr Jc > 0.  The map's is the 2x2
Schur-Cohn (Jury) test of J = I + M, M = W Jc (``jury_conditions``): with
P the characteristic polynomial of J, both multipliers lie inside the unit
circle iff P(1) = det M = w1 w2 det Jc, P(-1) = 4 + 2 tr M + det M and
1 - det J = -(tr M + det M) are all positive; P(1) P(-1) < 0 is a saddle,
any other case a source.  Nothing is subtracted from 1.  Both read
nonhyperbolic where det Jc is exactly 0; the flow also where tr Jc is within
EPS_HYPERBOLIC of 0 relative to |a11| + |a22|, the map where a real multiplier
is within about 4 EPS_HYPERBOLIC of -1, or a complex pair's 1 - det J within
EPS_HYPERBOLIC of 0 relative to |tr M| + |det M|.  The closed-form
criteria (stability_conditions), the same in both regimes, cross-check both.
A Jc entry that is not finite has no sign to read and is refused.  No
verdict reads an eigenvalue: only ``spectrum`` solves those of Jc and the
multipliers 1 + eig(M), the numbers ``stability`` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .equilibria import Condition, Equilibrium, EquilibriumKind, horizontal_threshold, reproduction_numbers
from .model import DomainError, HostParams, ModelVariant, effective_rates
from .nsfd import map_weights

__all__ = [
    "Classification",
    "JuryConditions",
    "Matrix2",
    "Regime",
    "StabilityConditions",
    "StabilityReport",
    "TheoremPrediction",
    "classifications",
    "continuous_jacobian",
    "eigenvalues2",
    "jury_conditions",
    "prediction_matches",
    "spectrum",
    "stability_conditions",
    "stability_report",
]

# Relative band of the sign rules, read from one split of Jc: tr Jc for the flow,
# P(-1) and 1 - det J for the map; the theory assumes strict inequalities throughout.
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
    """Fixed-point types, as the sign rules of ``classifications`` read them from one split of Jc."""

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


def _characteristic_roots(m: Matrix2) -> tuple[complex, complex]:
    """The roots of lambda^2 - trace lambda + det, in the cancellation-free form."""
    tr, det = m.trace, m.det
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        root = math.sqrt(disc)
        r1 = 0.5 * (tr + root) if tr >= 0 else 0.5 * (tr - root)
        r2 = det / r1 if r1 != 0.0 else tr - r1
        return complex(r1), complex(r2)
    re, im = 0.5 * tr, 0.5 * math.sqrt(-disc)
    return complex(re, im), complex(re, -im)


def _moduli_finite(eigs: tuple[complex, complex]) -> bool:
    z1, z2 = eigs
    return math.isfinite(math.hypot(z1.real, z1.imag)) and math.isfinite(math.hypot(z2.real, z2.imag))


def _out_of_range(m: Matrix2) -> DomainError:
    return DomainError(f"eigenvalues of {tuple(m)!r}: the characteristic quadratic is out of floating-point range")


def eigenvalues2(m: Matrix2) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix, larger modulus first, ties broken by descending real then imaginary part.

    A triangular matrix (a12 or a21 exactly 0) gives its exact diagonal;
    any other, the roots of its characteristic quadratic in the
    cancellation-free form, solved for m / 2^k if the squared trace or
    the determinant overflows (2^k brings the largest entry below 2).
    DomainError if an eigenvalue is not finite.
    """
    if m.a12 == 0.0 or m.a21 == 0.0:
        eigs = (complex(m.a11), complex(m.a22))
    else:
        eigs = _characteristic_roots(m)
        if not _moduli_finite(eigs) and all(math.isfinite(a) for a in m):
            scale = 2.0 ** min(math.frexp(max(abs(a) for a in m))[1], 1023)
            scaled = _characteristic_roots(Matrix2(*(a / scale for a in m)))
            eigs = tuple(complex(z.real * scale, z.imag * scale) for z in scaled)  # type: ignore[assignment]
    if not _moduli_finite(eigs):
        raise _out_of_range(m)
    return _by_modulus(eigs)


def _by_modulus(eigs: tuple[complex, complex]) -> tuple[complex, complex]:
    """Larger modulus first, then larger real and imaginary part; a tie keeps the given order."""
    z1, z2 = eigs
    return (z2, z1) if (abs(z1), z1.real, z1.imag) < (abs(z2), z2.real, z2.imag) else eigs


class JuryConditions(NamedTuple):
    """The signs of ``jury_conditions`` and their verdict."""

    p_one: float
    p_minus_one: float
    one_minus_det: float
    hyperbolic: bool
    verdict: bool


def jury_conditions(m: Matrix2, k: int = 0) -> JuryConditions:
    """The Jury test of J = I + M: P(1), P(-1), 1 - det J and their verdict.

    ``m`` is M / 2^k; the numbers come divided by 4^k, max(1, 4^k) and
    2^k max(1, 2^k).  ``verdict`` (both multipliers inside the circle)
    needs all three positive and ``hyperbolic`` (bands in the module
    docstring).  Entries may be floats or float64 arrays of matrices.
    """
    a, b = (2.0**-k, 1.0) if k > 0 else (1.0, 2.0**k)
    tr, det = m.trace, m.det
    p_minus_one = 4.0 * a * a + 2.0 * a * b * tr + b * b * det
    one_minus_det = -(a * tr + b * det)
    # A real multiplier within about e of -1 gives |P(-1)| <= e (|P'(-1)| + e), P'(-1) = -(4 + tr M).
    # det J = 1 puts a multiplier on the circle only as a complex pair, where P(1) and P(-1) are positive.
    e = 4.0 * EPS_HYPERBOLIC * a
    hyperbolic = (
        (det != 0)
        & (abs(p_minus_one) > e * (abs(4.0 * a + b * tr) + e))
        & ((abs(one_minus_det) > EPS_HYPERBOLIC * (a * abs(tr) + b * abs(det))) | (det < 0) | (p_minus_one < 0))
    )
    verdict = hyperbolic & (det > 0) & (p_minus_one > 0) & (one_minus_det > 0)
    return JuryConditions(det, p_minus_one, one_minus_det, hyperbolic, verdict)


def classifications(jc: Matrix2) -> tuple[Classification, Callable[[float, float], Classification]]:
    """The flow's type of Jc, and the map's type of I + M, M = diag(w1, w2) Jc, as a function of w1, w2 > 0.

    Jc is split once.  The flow reads the signs of det Jc and tr Jc at their own exponents (module
    docstring).  The map forms tr M = w1 a11 + w2 a22 and det M = w1 w2 det Jc, the same det Jc, at
    their own exponents, and reads the companion matrix of M / 2^j, 2^j bringing the larger of |tr M|
    and sqrt|det M| into [1, 2); past the multipliers' float range, where 2^-j would be subnormal, 4^j
    brings the larger of |2 tr M| and |det M| into [1/4, 1) instead, so that P(-1) and 1 - det J keep
    their signs.  Only a 1 - det J = -det M below 2^-2148 (tr M = 0) is lost.
    DomainError for a Jc entry that is not finite, which has no sign to read.
    """
    (m11, e11), (m12, e12), (m21, e21), (m22, e22) = map(math.frexp, jc)
    if not math.isfinite(m11 + m12 + m21 + m22):  # the mantissas of finite entries are below 1 in size
        raise _out_of_range(jc)
    p, q, ep, eq = m11 * m22, m12 * m21, e11 + e22, e12 + e21
    det_e = max(ep, eq) if p and q else ep if p else eq
    det_jc = math.ldexp(p, ep - det_e) - math.ldexp(q, eq - det_e)  # det Jc / 2^det_e
    diag_e = max(e11, e22) if m11 and m22 else e11 if m11 else e22
    t11, t22 = math.ldexp(m11, e11 - diag_e), math.ldexp(m22, e22 - diag_e)  # a11 / 2^diag_e, a22 / 2^diag_e
    if det_jc < 0:
        flow = Classification.SADDLE
    elif det_jc == 0 or abs(t11 + t22) <= EPS_HYPERBOLIC * (abs(t11) + abs(t22)):
        flow = Classification.NONHYPERBOLIC
    else:
        flow = Classification.STABLE if t11 + t22 < 0 else Classification.SOURCE

    def classification(w1: float, w2: float) -> Classification:
        (v1, f1), (v2, f2) = math.frexp(w1), math.frexp(w2)
        t1, t2, g1, g2 = v1 * m11, v2 * m22, f1 + e11, f2 + e22
        top = max(g1, g2) if t1 and t2 else g1 if t1 else g2
        tr, tr_e = math.frexp(math.ldexp(t1, g1 - top) + math.ldexp(t2, g2 - top))
        det, de = math.frexp(v1 * v2 * det_jc)
        tr_e, de = tr_e + top, de + f1 + f2 + det_e  # tr M = tr 2^tr_e, det M = det 2^de
        j = max(tr_e if tr else -5000, (de + 1) // 2 if det else -5000) - 1  # M = 0 reads nonhyperbolic at any j
        if j > 1022:
            j = (max(tr_e + 1, de) + 1) // 2
        det = math.ldexp(det, de - 2 * j) or math.copysign(math.ulp(0.0) * (det != 0), det)
        jury = jury_conditions(Matrix2(math.ldexp(tr, tr_e - j), -det, 1.0, 0.0), j)
        if not jury.hyperbolic:
            return Classification.NONHYPERBOLIC
        if jury.verdict:
            return Classification.STABLE
        return Classification.SADDLE if (jury.p_one > 0) != (jury.p_minus_one > 0) else Classification.SOURCE

    return flow, classification


@dataclass(frozen=True)
class StabilityConditions:
    """A closed-form prediction and the inequalities its theorem adds to existence.

    Existence is the listing's job: the criteria are read only for a
    point that exists, and ``conditions`` hold what stability needs
    beyond that, each with its margin.
    """

    prediction: TheoremPrediction
    conditions: tuple[Condition, ...]
    notes: tuple[str, ...] = ()


def stability_conditions(params: HostParams, variant: ModelVariant, eq: Equilibrium) -> StabilityConditions:
    """Evaluate the closed-form stability criteria for one equilibrium (none for one that does not exist)."""
    if not eq.exists:
        return StabilityConditions(TheoremPrediction.NOT_COVERED, ())
    b_x, b_y, u_x, u_y = params.b_x, params.b_y, params.u_x, params.u_y
    e, beta = effective_rates(params, variant)
    notes: tuple[str, ...] = ()
    if eq.kind is EquilibriumKind.TRIVIAL:
        conds = (Condition("b_x < u_x", b_x < u_x, u_x - b_x), Condition("b_y < u_y", b_y < u_y, u_y - b_y))
    elif eq.kind is EquilibriumKind.DISEASE_FREE:
        r0 = reproduction_numbers(params).R0  # NaN where undefined: neither < 1 nor > 1
        conds = (Condition("R0 < 1", r0 < 1, 1.0 - r0),)
        if r0 > 1:
            return StabilityConditions(TheoremPrediction.UNSTABLE, conds)
    elif eq.kind is EquilibriumKind.SUSCEPTIBLE_FREE and (variant is ModelVariant.VERTICAL or beta == 0.0):
        # Uninfected hosts invade when b_x u_y / b_y > u_x, making the point a saddle; strict parameter sets
        # always have it.  Not horizontal_threshold: 0 * (1 - u_y/b_y) is NaN where u_y/b_y overflows.
        margin = b_x * u_y / b_y - u_x
        prediction = TheoremPrediction.UNSTABLE if margin > 0 else TheoremPrediction.NOT_COVERED
        return StabilityConditions(prediction, (Condition("b_x*u_y/b_y > u_x", margin > 0, margin),))
    elif eq.kind is EquilibriumKind.SUSCEPTIBLE_FREE:
        margin = horizontal_threshold(params)
        conds = (Condition("b_x*u_y/b_y < u_x + beta*K*(1 - u_y/b_y)", margin < 0, -margin),)
    elif variant is ModelVariant.GENERAL:  # the interior points: the same inequalities decide both regimes
        margin = b_x - (b_y + e)
        conds = (Condition("b_x >= b_y + e", margin >= 0, margin),)
        notes = ("the negative-trace/positive-determinant argument uses b_x >= b_y + e beyond existence",)
    else:
        conds = ()
        notes = (
            "endemic stability threshold uses beta*K*(1 - u_y/b_y); the u_x/b_x "
            "variant sometimes quoted is inconsistent with the closed-form equilibrium",
        )
    prediction = TheoremPrediction.STABLE if all(c.holds for c in conds) else TheoremPrediction.NOT_COVERED
    return StabilityConditions(prediction, conds, notes)


def prediction_matches(prediction: TheoremPrediction, classification: Classification) -> bool:
    """Does a coarse stable/unstable prediction agree with a classification?"""
    if prediction is TheoremPrediction.STABLE:
        return classification is Classification.STABLE
    if prediction is TheoremPrediction.UNSTABLE:
        return classification in (Classification.SADDLE, Classification.SOURCE)
    return False


class StabilityReport(NamedTuple):
    """The sign-rule type of one equilibrium in one regime (h None for the flow), and Jc and W(h) for ``spectrum``."""

    regime: Regime
    h: float | None
    classification: Classification
    prediction: TheoremPrediction
    agree: bool
    conditions: tuple[Condition, ...]
    notes: tuple[str, ...]
    jacobian: Matrix2
    weights: tuple[float, float] | None


def stability_report(
    params: HostParams, variant: ModelVariant, eq: Equilibrium, h_list: Sequence[float]
) -> list[StabilityReport]:
    """Classify an equilibrium under the flow, then under the map at each h, and cross-check the closed-form criteria.

    Jc and the criteria are set up once, and Jc is split once
    (``classifications``): the flow's type is the sign rule of that
    det Jc and tr Jc, and at each h the map's rule takes the weights of
    M = W(h) Jc (see ``map_weights``) with the same det Jc.  No
    eigenvalue is solved; ``spectrum`` solves those a report prints.
    """
    jc = continuous_jacobian(params, variant, eq.point)
    crit = stability_conditions(params, variant, eq)

    def report(regime: Regime, h: float | None, classification: Classification, w: tuple | None) -> StabilityReport:
        agree = prediction_matches(crit.prediction, classification)
        return StabilityReport(regime, h, classification, crit.prediction, agree, crit.conditions, crit.notes, jc, w)

    flow, verdict = classifications(jc)
    reports = [report(Regime.CONTINUOUS, None, flow, None)]
    weights = map_weights(params, variant, eq.point) if h_list else None
    for h in h_list:
        w = weights(h)
        reports.append(report(Regime.DISCRETE, h, verdict(*w), w))
    return reports


def spectrum(report: StabilityReport) -> tuple[complex, complex]:
    """What ``stability`` prints for a report, larger modulus first: eig(Jc), or the multipliers 1 + eig(W(h) Jc).

    M = W(h) Jc is formed from Jc and W scaled (exactly) by a power of two near 1,
    and solved by ``eigenvalues2``.  DomainError where an eigenvalue or a multiplier is not a finite
    double; no verdict reads them, and ``stability`` solves them only after every point is classified.
    """
    jc = report.jacobian
    if report.weights is None:
        return eigenvalues2(jc)
    w1, w2 = report.weights
    k = min(math.frexp(max(abs(w1), abs(w2)))[1], 1023)
    s1, s2, scale = math.ldexp(w1, -k), math.ldexp(w2, -k), math.ldexp(1.0, k)
    nus = eigenvalues2(Matrix2(s1 * jc.a11, s1 * jc.a12, s2 * jc.a21, s2 * jc.a22))
    multipliers = (1.0 + nus[0] * scale, 1.0 + nus[1] * scale)
    if not _moduli_finite(multipliers):
        raise DomainError(f"multipliers {multipliers!r} at h = {report.h!r} are out of floating-point range")
    return _by_modulus(multipliers)
