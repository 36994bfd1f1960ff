"""Acceptance scenarios and the checks behind the ``verify`` command.

Each check is deterministic (randomized ones use fixed seeds) and
desk-scale.  The benchmark parameter set is b_x=0.6, b_y=0.4, u_x=0.1,
u_y=0.2 with K=1, e=0.02 for the general model and K=1.2, e=0 for the
sub-models; expected limits are quoted to the four decimals used in
the benchmark phase portraits, hence the default match tolerance of
1e-3.  Tightening the match tolerance below the quoting precision
(e.g. ``verify --tol-eq 1e-9``) is the documented forced-failure demo.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .convergence import ENDS_ONLY
from .equilibria import (
    EquilibriumKind,
    all_equilibria,
    interior_coefficients,
    interior_equilibrium,
    reproduction_numbers,
)
from .harness import INITIAL_POINT_PRESETS, SWEEP_H_LIST, first_negative_step, step_size_sweep
from .integrators import _check_dt, simulate_continuous
from .model import (
    RATES, DomainError, HostParams, ModelVariant, State, effective_rates, field_kernel, validate_params
)
from .nsfd import denominators, iterate, map_kernel, map_lanes
from .readers import integer, list_of, number
from .stability import (
    Classification,
    Matrix2,
    TheoremPrediction,
    jury_conditions,
    stability_report,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CheckResult",
    "FixtureError",
    "Scenario",
    "SCENARIOS",
    "acceptance_check_names",
    "benchmark_params",
    "load_fixture_scenarios",
    "run_acceptance",
]

SEED = 987134834

# The strict sampler draws a variant as an index into this tuple, and
# reads index 0 as general and 2 as vertical.
_VARIANTS = (ModelVariant.GENERAL, ModelVariant.HORIZONTAL, ModelVariant.VERTICAL)

# Samples per batch of map lanes in positivity_check, and matrices per
# batch in jury_oracle_check: big enough that numpy's per-call cost is
# spread thin, small enough that the temporaries stay a few hundred kB.
POSITIVITY_BLOCK = 1_000
JURY_BLOCK = 10_000


def benchmark_params(variant: ModelVariant, beta: float) -> HostParams:
    """The benchmark parameter set for a variant, at a given beta."""
    if variant is ModelVariant.GENERAL:
        return HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.0, e=0.02, beta=beta)
    return HostParams(b_x=0.6, b_y=0.4, u_x=0.1, u_y=0.2, K=1.2, e=0.0, beta=beta)


@dataclass(frozen=True)
class Scenario:
    """A convergence benchmark: all preset starts reach one equilibrium."""

    name: str
    params: HostParams
    variant: ModelVariant
    expected_kind: EquilibriumKind
    expected_point: tuple[float, float]
    h: float = 0.1
    dt: float = 0.01
    t_max: float = 2000.0
    max_steps: int = 100_000
    initial_points: tuple[State, ...] = INITIAL_POINT_PRESETS["paper-initials"]


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "general-disease-free",
        benchmark_params(ModelVariant.GENERAL, 0.1),
        ModelVariant.GENERAL,
        EquilibriumKind.DISEASE_FREE,
        (0.8333, 0.0),
    ),
    Scenario(
        "general-endemic",
        benchmark_params(ModelVariant.GENERAL, 0.3),
        ModelVariant.GENERAL,
        EquilibriumKind.INTERIOR,
        (0.1818, 0.4545),
    ),
    Scenario(
        "horizontal-disease-free",
        benchmark_params(ModelVariant.HORIZONTAL, 0.1),
        ModelVariant.HORIZONTAL,
        EquilibriumKind.DISEASE_FREE,
        (1.0, 0.0),
    ),
    Scenario(
        "horizontal-endemic",
        benchmark_params(ModelVariant.HORIZONTAL, 0.3),
        ModelVariant.HORIZONTAL,
        EquilibriumKind.INTERIOR,
        (0.0476, 0.5952),
    ),
    Scenario(
        "horizontal-susceptible-free",
        benchmark_params(ModelVariant.HORIZONTAL, 0.42),
        ModelVariant.HORIZONTAL,
        EquilibriumKind.SUSCEPTIBLE_FREE,
        (0.0, 0.6),
    ),
    Scenario(
        "vertical-disease-free",
        benchmark_params(ModelVariant.VERTICAL, 0.0),
        ModelVariant.VERTICAL,
        EquilibriumKind.DISEASE_FREE,
        (1.0, 0.0),
    ),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str


def _fail(name: str, details: str) -> CheckResult:
    return CheckResult(name, False, details)


def _ok(name: str, details: str) -> CheckResult:
    return CheckResult(name, True, details)


def convergence_check(scenario: Scenario, match_tol: float = 1e-3) -> CheckResult:
    """Both schemes converge from every start to a point of the scenario's kind, near its expected point."""
    name = f"converges:{scenario.name}"
    worst = 0.0
    ex, ey = scenario.expected_point
    p, variant, dt, t_max = scenario.params, scenario.variant, scenario.dt, scenario.t_max
    _check_dt(dt)
    if t_max < 0:
        raise DomainError(f"t_max must be nonnegative, got {t_max!r}")
    n_rk4 = t_max / dt * (1.0 + 1e-12)  # the slack absorbs the rounding of t_max = N * dt for N up to about 1e12
    if not math.isfinite(n_rk4):
        raise DomainError(f"t_max = {t_max!r} over dt = {dt!r} gives no finite step count")
    # Only the final state and the verdict are read: record just the ends.
    for s0 in scenario.initial_points:
        for label, start in (
            ("continuous", lambda: simulate_continuous(p, variant, s0, dt, int(n_rk4), record_every=ENDS_ONLY)),
            ("discrete", lambda: iterate(p, variant, scenario.h, s0, scenario.max_steps, record_every=ENDS_ONLY)),
        ):
            run = start()
            if not run.verdict.converged:
                return _fail(name, f"{label} run from {tuple(s0)} ended {run.verdict.status.value}")
            if run.verdict.kind is not scenario.expected_kind:
                got, wanted = run.verdict.kind.value, scenario.expected_kind.value
                return _fail(name, f"{label} run from {tuple(s0)} converged to the {got} point, not the {wanted} point")
            d = max(abs(run.final_state.X - ex), abs(run.final_state.Y - ey))
            worst = max(worst, d)
            if d > match_tol:
                return _fail(name, f"{label} run from {tuple(s0)} ended at {tuple(run.final_state)}, off by {d:.3g}")
    return _ok(
        name,
        f"{2 * len(scenario.initial_points)} runs reached "
        f"({ex}, {ey}) within {match_tol:g} (worst {worst:.2e})",
    )


def interior_algebra_check() -> CheckResult:
    """Quadratic and vector-field residuals; closed form to 6 decimals."""
    name = "interior-equilibrium-algebra"
    params = benchmark_params(ModelVariant.GENERAL, 0.3)
    eq = interior_equilibrium(params, ModelVariant.GENERAL)
    a, b, c = interior_coefficients(params)
    x, y = eq.point
    quad_res = abs(a * x * x + b * x + c)
    quad_tol = 1e-10 * max(abs(a), abs(b), abs(c))
    dx, dy = field_kernel(params, ModelVariant.GENERAL)(*eq.point)
    vf_res = max(abs(dx), abs(dy))
    vf_tol = 1e-9 * (1.0 + max(abs(x), abs(y)))
    if not eq.exists:
        return _fail(name, "endemic equilibrium unexpectedly missing")
    if quad_res > quad_tol:
        return _fail(name, f"quadratic residual {quad_res:.3e} exceeds {quad_tol:.3e}")
    if vf_res > vf_tol:
        return _fail(name, f"vector-field residual {vf_res:.3e} exceeds {vf_tol:.3e}")
    eq_h = interior_equilibrium(benchmark_params(ModelVariant.HORIZONTAL, 0.3), ModelVariant.HORIZONTAL)
    if abs(eq_h.point.X - 0.047619) > 1e-6 or abs(eq_h.point.Y - 0.595238) > 1e-6:
        return _fail(name, f"closed form {tuple(eq_h.point)} differs from (0.047619, 0.595238)")
    return _ok(
        name,
        f"quadratic residual {quad_res:.1e}, field residual {vf_res:.1e}, closed form matches to 6 decimals",
    )


def reproduction_threshold_check() -> CheckResult:
    """R0 values and the stability switch of the disease-free point."""
    name = "reproduction-number-threshold"
    low = benchmark_params(ModelVariant.GENERAL, 0.1)
    high = benchmark_params(ModelVariant.GENERAL, 0.3)
    r_low = reproduction_numbers(low)
    r_high = reproduction_numbers(high)
    if abs(r_low.R0 - 0.75) > 1e-12:
        return _fail(name, f"R0 at beta=0.1 is {r_low.R0!r}, expected 0.75")
    if abs(r_high.R0 - 19.0 / 12.0) > 1e-12 or abs(r_high.R0 - 1.58333) > 1e-5:
        return _fail(name, f"R0 at beta=0.3 is {r_high.R0!r}, expected 19/12 = 1.58333...")
    for params, wanted in ((low, Classification.STABLE), (high, Classification.SADDLE)):
        eq = [e for e in all_equilibria(params, ModelVariant.GENERAL) if e.kind is EquilibriumKind.DISEASE_FREE][0]
        for rep in stability_report(params, ModelVariant.GENERAL, eq, (0.1,)):
            if rep.classification is not wanted:
                return _fail(
                    name,
                    f"disease-free point at beta={params.beta} classified "
                    f"{rep.classification.value} ({rep.regime.value}), expected {wanted.value}",
                )
    if not interior_equilibrium(high, ModelVariant.GENERAL).exists:
        return _fail(name, "endemic equilibrium should exist at beta=0.3")
    return _ok(name, "R0 = 0.75 keeps the disease-free point stable; R0 = 1.58333 destabilizes it (both regimes)")


def _draw_strict_block(
    rng: np.random.Generator, size: int
) -> tuple[list[tuple[HostParams, ModelVariant, float]], list[tuple[float, float]]]:
    """``size`` random strict samples: their ``(params, variant, h)`` lanes and their starts.

    Each field is drawn as one array, then converted to Python floats.
    Lanes that fail strict validation are dropped and drawn again until
    the block is full.
    """
    import numpy as np

    lanes: list[tuple[HostParams, ModelVariant, float]] = []
    starts: list[tuple[float, float]] = []
    while len(lanes) < size:
        n = size - len(lanes)
        kind = rng.integers(len(_VARIANTS), size=n)
        b_x = rng.uniform(0.05, 2.0, n)
        b_y = rng.uniform(0.02, b_x)
        e = np.where(kind == 0, rng.uniform(0.0, b_x - b_y), 0.0)
        u_x = rng.uniform(0.01, 1.0, n)
        u_y = u_x + rng.uniform(0.01, 1.0, n)
        big_k = rng.uniform(0.2, 5.0, n)
        beta = np.where(kind == 2, 0.0, rng.uniform(0.01, 1.5, n))
        h = rng.uniform(1e-3, 100.0, n)
        x0 = rng.uniform(1e-6, 2.0 * big_k)
        y0 = np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(0.0, 2.0 * big_k))
        columns = (kind, b_x, b_y, u_x, u_y, big_k, e, beta, h, x0, y0)
        for k, *rates, step, x, y in zip(*(column.tolist() for column in columns)):
            params = HostParams(*rates)
            if not validate_params(params):
                lanes.append((params, _VARIANTS[k], step))
                starts.append((x, y))
    return lanes, starts


def _first_lane_failure(
    lanes: Sequence[tuple[HostParams, ModelVariant, float]], starts: Sequence[tuple[float, float]], n_steps: int
) -> tuple[int, int, tuple[float, float]] | None:
    """The lowest-numbered lane that fails, its first failing step and its state there; None if none fails.

    A lane fails at a step that leaves it not finite or outside the
    quadrant; a general lane also fails at X = 0.
    """
    import numpy as np

    advance = map_lanes(lanes)
    general = np.array([variant is ModelVariant.GENERAL for _, variant, _ in lanes])
    x, y = np.array(starts, dtype=np.float64).T.copy()
    failed_at = np.zeros(len(lanes), dtype=np.int64)
    failed_x, failed_y = np.zeros(len(lanes)), np.zeros(len(lanes))
    for n in range(1, n_steps + 1):
        x, y = advance(x, y)
        with np.errstate(invalid="ignore"):
            bad = ~(np.isfinite(x) & np.isfinite(y)) | (y < 0) | (x < 0) | (general & (x <= 0))
        new = bad & (failed_at == 0)
        if new.any():
            failed_at[new], failed_x[new], failed_y[new] = n, x[new], y[new]
    failed = np.flatnonzero(failed_at)
    if failed.size == 0:
        return None
    i = int(failed[0])
    return i, int(failed_at[i]), (float(failed_x[i]), float(failed_y[i]))


def positivity_check(n_samples: int = 10_000, n_steps: int = 50) -> CheckResult:
    """Random nonstandard runs stay in the quadrant; Euler does not.

    The samples are drawn ``POSITIVITY_BLOCK`` at a time, each block as
    arrays by ``_draw_strict_block``, and each block runs as lanes
    of one map.
    """
    import numpy as np

    name = "positivity"
    rng = np.random.default_rng(SEED)
    for first in range(0, n_samples, POSITIVITY_BLOCK):
        lanes, starts = _draw_strict_block(rng, min(POSITIVITY_BLOCK, n_samples - first))
        failure = _first_lane_failure(lanes, starts, n_steps)
        if failure is not None:
            lane, n, s = failure
            i, (_, variant, h) = first + lane, lanes[lane]
            if not (math.isfinite(s[0]) and math.isfinite(s[1])):
                return _fail(name, f"sample {i}: state became non-finite at step {n}")
            return _fail(name, f"sample {i} ({variant.value}, h={h:.3g}): state {s} left the quadrant at step {n}")
    demo = benchmark_params(ModelVariant.GENERAL, 0.3)
    euler_idx = first_negative_step(demo, ModelVariant.GENERAL, (0.1, 0.9), 10.0, scheme="euler")
    nsfd_idx = first_negative_step(demo, ModelVariant.GENERAL, (0.1, 0.9), 10.0, scheme="nsfd", max_steps=1000)
    if euler_idx != 1:
        return _fail(name, f"forward Euler at h=10 should go negative at step 1, got {euler_idx!r}")
    if nsfd_idx is not None:
        return _fail(name, f"nonstandard map went negative at step {nsfd_idx}")
    return _ok(name, f"{n_samples} random runs ({n_steps} steps each) stayed positive; Euler h=10 fails at step 1")


def step_size_independence_check() -> CheckResult:
    """Discrete classification is the same at every h and matches the flow."""
    name = "step-size-independence"
    checked = 0
    for scenario in SCENARIOS:
        for sweep in step_size_sweep(scenario.params, scenario.variant, SWEEP_H_LIST):
            kind = sweep.equilibrium.kind.value
            if not sweep.uniform:
                got = {entry.h: entry.classification.value for entry in sweep.entries}
                return _fail(name, f"{scenario.name}/{kind}: classifications differ across h: {got}")
            if not sweep.matches_continuous:
                return _fail(
                    name,
                    f"{scenario.name}/{kind}: discrete {sweep.entries[0].classification.value} "
                    f"vs continuous {sweep.continuous.classification.value}",
                )
            checked += 1
    return _ok(name, f"{checked} equilibria × {len(SWEEP_H_LIST)} step sizes, all classifications h-independent")


def jury_oracle_check(n_samples: int = 100_000) -> CheckResult:
    """The Jury signs of random real M against the eigenvalue moduli of I + M, ``JURY_BLOCK`` matrices at a time."""
    import numpy as np

    name = "jury-eigenvalue-oracle"
    rng = np.random.default_rng(SEED + 1)
    entries = rng.uniform(-2.0, 2.0, (4, n_samples))
    mismatches = near = 0
    for first in range(0, n_samples, JURY_BLOCK):
        b11, b12, b21, b22 = entries[:, first : first + JURY_BLOCK]
        tr = 2.0 + b11 + b22
        det = (1.0 + b11) * (1.0 + b22) - b12 * b21
        disc = tr * tr - 4.0 * det
        # Independent modulus oracle for J = I + M, vectorized: real pair or conjugate pair.
        sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
        real = np.abs(0.5 * (tr + sqrt_disc)), np.abs(0.5 * (tr - sqrt_disc))
        pair = np.sqrt(np.maximum(det, 0.0))
        mod_big = np.where(disc >= 0, np.maximum(*real), pair)
        mod_small = np.where(disc >= 0, np.minimum(*real), pair)
        near_circle = (np.abs(mod_big - 1.0) <= 1e-7) | (np.abs(mod_small - 1.0) <= 1e-7)  # past the rule's bands
        verdict = jury_conditions(Matrix2(b11, b12, b21, b22)).verdict
        mismatches += int(np.count_nonzero((verdict != (mod_big < 1.0)) & ~near_circle))
        near += int(np.count_nonzero(near_circle))
    if mismatches:
        return _fail(name, f"{mismatches} of {n_samples} matrices disagree with the modulus test")
    return _ok(name, f"{n_samples} random matrices agree with the modulus test ({near} skipped near the circle)")


def theorem_crosscheck(n_draws: int = 1000) -> CheckResult:
    """Closed-form predictions match the sign rules' verdicts for every one of ``n_draws`` random strict sets."""
    import numpy as np

    name = "theorem-crosscheck"
    lanes, _ = _draw_strict_block(np.random.default_rng(SEED + 2), n_draws)
    covered = 0
    for i, (params, variant, _) in enumerate(lanes):
        for sweep in step_size_sweep(params, variant, (0.1, 10.0)):
            for rep in (sweep.continuous, *sweep.entries):
                if rep.prediction is TheoremPrediction.NOT_COVERED:
                    continue
                covered += 1
                if not rep.agree:
                    return _fail(
                        name,
                        f"draw {i}, {variant.value}/{sweep.equilibrium.kind.value} ({rep.regime.value}, "
                        f"h={rep.h}): predicted {rep.prediction.value} but classified {rep.classification.value} "
                        f"for params {params}",
                    )
    return _ok(name, f"{covered} covered equilibrium reports across {n_draws} draws all match")


def consistency_order_check() -> CheckResult:
    """One-step defect decays like h; RK4 error shrinks ~16x per halving."""
    name = "consistency-order"
    h_values = (1e-2, 1e-3, 1e-4)
    lo, hi = 1.0 / 30.0, 1.0 / 3.0
    for variant, beta in (
        (ModelVariant.GENERAL, 0.3),
        (ModelVariant.HORIZONTAL, 0.3),
        (ModelVariant.VERTICAL, 0.0),
    ):
        params = benchmark_params(variant, beta)
        grid = [(x, y) for x in (0.1, 0.5, 1.1) for y in (0.1, 0.4, 0.9)]
        defects = []
        field = field_kernel(params, variant)
        for h in h_values:
            phi1, phi2 = denominators(params, variant, h)
            advance = map_kernel(params, variant, h)
            worst = 0.0
            for x, y in grid:
                x1, y1 = advance(x, y)
                fx, fy = field(x, y)
                worst = max(worst, abs((x1 - x) / phi1 - fx), abs((y1 - y) / phi2 - fy))
            defects.append(worst)
        ratios = [defects[i + 1] / defects[i] for i in range(len(defects) - 1)]
        if not all(lo <= r <= hi for r in ratios):
            return _fail(name, f"{variant.value}: defect ratios {ratios} outside [{lo:.3f}, {hi:.3f}]")

    params = benchmark_params(ModelVariant.GENERAL, 0.3)
    finals = {}
    for dt in (1e-4, 0.1, 0.05):
        # Five time units from (0.1, 0.1): these runs never go quiet or diverge, so each takes every step.
        run = simulate_continuous(params, ModelVariant.GENERAL, (0.1, 0.1), dt, round(5.0 / dt), record_every=ENDS_ONLY)
        finals[dt] = run.final_state
    ref = finals[1e-4]
    err_coarse = max(abs(finals[0.1][0] - ref[0]), abs(finals[0.1][1] - ref[1]))
    err_fine = max(abs(finals[0.05][0] - ref[0]), abs(finals[0.05][1] - ref[1]))
    richardson = err_coarse / err_fine
    if not 12.0 <= richardson <= 20.0:
        return _fail(name, f"RK4 halving ratio {richardson:.2f} outside [12, 20]")
    return _ok(name, f"defect ratios near 0.1 for all variants; RK4 halving ratio {richardson:.1f}")


def _checks(match_tol: float, extra_scenarios: Sequence[Scenario]) -> list[tuple[str, Callable[[], CheckResult]]]:
    """Every acceptance check, in ``verify`` order, under its name."""
    checks: list[tuple[str, Callable[[], CheckResult]]] = [
        (f"converges:{scenario.name}", lambda s=scenario: convergence_check(s, match_tol))
        for scenario in (*SCENARIOS, *extra_scenarios)
    ]
    checks.extend(
        [
            ("interior-equilibrium-algebra", interior_algebra_check),
            ("reproduction-number-threshold", reproduction_threshold_check),
            ("positivity", positivity_check),
            ("step-size-independence", step_size_independence_check),
            ("jury-eigenvalue-oracle", jury_oracle_check),
            ("theorem-crosscheck", theorem_crosscheck),
            ("consistency-order", consistency_order_check),
        ]
    )
    return checks


def run_acceptance(
    match_tol: float = 1e-3,
    only: str | None = None,
    extra_scenarios: Sequence[Scenario] = (),
) -> list[CheckResult]:
    """Run every acceptance check (optionally filtered by substring)."""
    return [fn() for name, fn in _checks(match_tol, extra_scenarios) if only is None or only in name]


def acceptance_check_names(extra_scenarios: Sequence[Scenario] = ()) -> list[str]:
    return [name for name, _ in _checks(1e-3, extra_scenarios)]


class FixtureError(ValueError):
    """A scenario fixture file cannot be read as a valid Scenario."""


# A fixture's optional keys, each read as its Scenario field's type; an absent one keeps the field's default.
_FIXTURE_RUN_KEYS = {"h": number, "dt": number, "t_max": number, "max_steps": integer}
_FIXTURE_KEYS = {"name", "model", "params", "expected_kind", "expected_point", *_FIXTURE_RUN_KEYS}


def _fixture_scenario(data: object) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("a fixture must hold a JSON object")
    params = data["params"]
    if not isinstance(params, dict):
        raise ValueError(f"params must be a JSON object, got {params!r}")
    unknown = sorted(data.keys() - _FIXTURE_KEYS) + sorted(params.keys() - RATES)
    if unknown:
        raise ValueError(f"unknown keys {unknown}; a fixture takes {sorted(_FIXTURE_KEYS)}, its params {list(RATES)}")
    host = HostParams(**{RATES[name]: number(value) for name, value in params.items()})
    variant = ModelVariant(data["model"])
    effective_rates(host, variant)
    point = list_of(number, 2)(data["expected_point"])
    if not all(map(math.isfinite, point)):
        raise ValueError(f"expected_point must be a list of two finite numbers, got {point!r}")
    return Scenario(
        name=str(data["name"]),
        params=host,
        variant=variant,
        expected_kind=EquilibriumKind(data["expected_kind"]),
        expected_point=tuple(point),
        **{key: read(data[key]) for key, read in _FIXTURE_RUN_KEYS.items() if key in data},
    )


def load_fixture_scenarios(directory: Path) -> list[Scenario]:
    """One Scenario per ``*.json`` file in ``directory``, in file-name order.

    Raises FixtureError unless each file holds an object with no
    unknown key that names a known model and expected kind, with
    ``params`` an object of known rates that fit the model and an
    ``expected_point`` of two finite numbers.
    """
    scenarios = []
    for file in sorted(directory.glob("*.json")):
        try:
            scenarios.append(_fixture_scenario(json.loads(file.read_text())))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise FixtureError(f"bad scenario fixture {file}: {exc}") from None
    return scenarios
