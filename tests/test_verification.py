"""The acceptance checks: the random ones against their scalar loops, and every check's failures.

``ref_positivity_check`` and ``ref_jury_oracle_check`` are the scalar
loops as they were before the checks ran on lanes and blocks (the
positivity loop draws its samples through the same block sampler).
Both versions must return the same CheckResult, on passing runs and
on runs forced to fail.  The theorem cross-check must visit every set
the block sampler draws, and fail at a report that disagrees.  The
deterministic checks must fail, with their exact details, wherever one
name they read gives a wrong answer.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nsfd_epi import harness, nsfd, verification
from nsfd_epi.equilibria import all_equilibria
from nsfd_epi.harness import first_negative_step
from nsfd_epi.model import RATES, ModelVariant, State, effective_rates, validate_params
from nsfd_epi.nsfd import map_kernel
from nsfd_epi.stability import Classification, Matrix2, TheoremPrediction, jury_conditions
from nsfd_epi.verification import (
    JURY_BLOCK,
    POSITIVITY_BLOCK,
    SEED,
    _draw_strict_block,
    _fail,
    _ok,
    benchmark_params,
    consistency_order_check,
    interior_algebra_check,
    jury_oracle_check,
    positivity_check,
    reproduction_threshold_check,
    step_size_independence_check,
    theorem_crosscheck,
)


def ref_positivity_check(n_samples=10_000, n_steps=50):
    name = "positivity"
    rng = np.random.default_rng(SEED)
    for first in range(0, n_samples, POSITIVITY_BLOCK):
        lanes, starts = _draw_strict_block(rng, min(POSITIVITY_BLOCK, n_samples - first))
        for i, ((params, variant, h), s) in enumerate(zip(lanes, starts), start=first):
            advance = map_kernel(params, variant, h)
            for n in range(n_steps):
                s = advance(*s)
                if not (math.isfinite(s[0]) and math.isfinite(s[1])):
                    return _fail(name, f"sample {i}: state became non-finite at step {n + 1}")
                if s[1] < 0 or s[0] < 0 or (variant is ModelVariant.GENERAL and s[0] <= 0):
                    return _fail(
                        name,
                        f"sample {i} ({variant.value}, h={h:.3g}): state {s} left the quadrant at step {n + 1}",
                    )
    demo = benchmark_params(ModelVariant.GENERAL, 0.3)
    euler_idx = first_negative_step(demo, ModelVariant.GENERAL, (0.1, 0.9), 10.0, scheme="euler")
    nsfd_idx = first_negative_step(demo, ModelVariant.GENERAL, (0.1, 0.9), 10.0, scheme="nsfd", max_steps=1000)
    if euler_idx != 1:
        return _fail(name, f"forward Euler at h=10 should go negative at step 1, got {euler_idx!r}")
    if nsfd_idx is not None:
        return _fail(name, f"nonstandard map went negative at step {nsfd_idx}")
    return _ok(name, f"{n_samples} random runs ({n_steps} steps each) stayed positive; Euler h=10 fails at step 1")


def ref_jury_oracle_check(n_samples=100_000):
    name = "jury-eigenvalue-oracle"
    rng = np.random.default_rng(SEED + 1)
    m11, m12, m21, m22 = rng.uniform(-2.0, 2.0, (4, n_samples))
    tr = 2.0 + m11 + m22
    det = (1.0 + m11) * (1.0 + m22) - m12 * m21
    disc = tr * tr - 4.0 * det
    sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
    mod_big = np.where(
        disc >= 0,
        np.maximum(np.abs(0.5 * (tr + sqrt_disc)), np.abs(0.5 * (tr - sqrt_disc))),
        np.sqrt(np.maximum(det, 0.0)),
    )
    mod_small = np.where(
        disc >= 0,
        np.minimum(np.abs(0.5 * (tr + sqrt_disc)), np.abs(0.5 * (tr - sqrt_disc))),
        np.sqrt(np.maximum(det, 0.0)),
    )
    inside = mod_big < 1.0
    near_circle = (np.abs(mod_big - 1.0) <= 1e-7) | (np.abs(mod_small - 1.0) <= 1e-7)
    mismatches = 0
    for i in range(n_samples):
        if near_circle[i]:
            continue
        verdict = verification.jury_conditions(Matrix2(m11[i], m12[i], m21[i], m22[i])).verdict
        if verdict != bool(inside[i]):
            mismatches += 1
    if mismatches:
        return _fail(name, f"{mismatches} of {n_samples} matrices disagree with the modulus test")
    return _ok(name, f"{n_samples} random matrices agree with the modulus test ({int(near_circle.sum())} skipped near the circle)")


@pytest.mark.parametrize(
    "n_samples, n_steps",
    [(1, 1), (7, 50), (POSITIVITY_BLOCK, 5), (POSITIVITY_BLOCK + 1, 3), (2 * POSITIVITY_BLOCK + 500, 50)],
)
def test_positivity_matches_scalar_loop(n_samples, n_steps):
    assert positivity_check(n_samples, n_steps) == ref_positivity_check(n_samples, n_steps)


@pytest.fixture(scope="module")
def positivity_draw():
    """10,000 samples from the positivity check's sampler and seed, drawn as one block."""
    return _draw_strict_block(np.random.default_rng(SEED), 10_000)


def test_positivity_draw_is_strict_and_fits_each_variant(positivity_draw):
    lanes, starts = positivity_draw
    assert len(lanes) == len(starts) == 10_000
    for (params, variant, h), (x0, y0) in zip(lanes, starts):
        assert validate_params(params) == []
        assert effective_rates(params, variant) == (params.e, params.beta)
        assert (params.e == 0.0) is not (variant is ModelVariant.GENERAL)
        assert (params.beta == 0.0) is (variant is ModelVariant.VERTICAL)
        assert 0.0 < x0 <= 2.0 * params.K and 0.0 <= y0 <= 2.0 * params.K
        assert 1e-3 <= h <= 100.0
        fields = (*(getattr(params, name) for name in RATES.values()), h, x0, y0)
        assert all(type(value) is float for value in fields)


def test_positivity_draw_mixes_variants_and_axis_starts(positivity_draw):
    lanes, starts = positivity_draw
    for variant in ModelVariant:
        assert 3_000 < sum(v is variant for _, v, _ in lanes) < 3_700
    assert 800 < sum(y0 == 0.0 for _, y0 in starts) < 1_200


def test_positivity_draw_repeats_from_the_seed(positivity_draw):
    assert _draw_strict_block(np.random.default_rng(SEED), 10_000) == positivity_draw


def test_positivity_draw_refills_rejected_lanes(monkeypatch):
    real = verification.validate_params
    calls, accepted = [0], []

    def reject_every_seventh(params):
        calls[0] += 1
        if calls[0] % 7 == 0:
            return ["rejected"]
        violations = real(params)
        if not violations:
            accepted.append(params)
        return violations

    monkeypatch.setattr(verification, "validate_params", reject_every_seventh)
    for size in (1, 7, POSITIVITY_BLOCK):
        calls[0], accepted[:] = 0, []
        lanes, starts = _draw_strict_block(np.random.default_rng(SEED), size)
        assert len(lanes) == len(starts) == size
        assert [params for params, _, _ in lanes] == accepted
        assert calls[0] >= size + size // 6


def drawn_lanes(monkeypatch, n_samples):
    """The (params, variant, h) of each positivity sample, in draw order."""
    lanes = []
    real = verification.map_lanes

    def spy(block):
        lanes.extend(block)
        return real(block)

    with monkeypatch.context() as patch:
        patch.setattr(verification, "map_lanes", spy)
        positivity_check(n_samples, 1)
    return lanes


PHI2 = 7  # position of phi2, which equals h, in the constants the map's factories take


def break_map(monkeypatch, faults):
    """Patch the map's factories: the sample with step size h gets ``value`` as X after step ``n``.

    ``faults`` maps h to (n, value).  The lanes build their update from
    ``_map_update`` and ``map_kernel`` builds its step from ``_map_step``,
    so the lanes and the scalar loops see the same fault.  Each update or
    step built counts its own calls, so the n-th call is step n of its
    sample or block.
    """

    def broken(real):
        def build(*constants):
            advance, phi2, calls = real(*constants), constants[PHI2], [0]

            def faulty(*args):
                calls[0] += 1
                x1, y1 = advance(*args)
                for h, (n, value) in faults.items():
                    if calls[0] == n:
                        at_h = phi2 == h
                        x1 = np.where(at_h, value, x1) if isinstance(x1, np.ndarray) else (value if at_h else x1)
                return x1, y1

            return faulty

        return build

    for factory in ("_map_update", "_map_step"):
        monkeypatch.setattr(nsfd, factory, broken(getattr(nsfd, factory)))


@pytest.mark.parametrize(
    "faults, failing",
    [
        ({1234: (7, -0.25)}, 1234),
        ({1234: (7, math.nan)}, 1234),
        ({1234: (40, -1.0), 1700: (2, math.inf), 2100: (1, -1.0)}, 1234),  # lowest sample, not earliest step
        ({2499: (50, math.nan)}, 2499),  # last sample of a partial block
    ],
    ids=["negative", "nan", "lowest-sample", "last-sample"],
)
def test_positivity_reports_the_scalar_loops_failure(monkeypatch, faults, failing):
    n_samples = 2500
    lanes = drawn_lanes(monkeypatch, n_samples)
    break_map(monkeypatch, {lanes[i][2]: fault for i, fault in faults.items()})
    got = positivity_check(n_samples)
    assert got == ref_positivity_check(n_samples)
    assert not got.passed and got.details.startswith(f"sample {failing}")


@pytest.mark.parametrize("x", [0.0, -0.0])
@pytest.mark.parametrize("general", [True, False], ids=["general", "sub-variant"])
def test_positivity_x_zero_fails_only_the_general_map(monkeypatch, general, x):
    lanes = drawn_lanes(monkeypatch, 200)
    lane = next(i for i, (_, variant, _) in enumerate(lanes) if (variant is ModelVariant.GENERAL) is general)
    break_map(monkeypatch, {lanes[lane][2]: (3, x)})
    got = positivity_check(200)
    assert got == ref_positivity_check(200)
    assert got.passed is not general
    if general:
        assert got.details.startswith(f"sample {lane} (general, ") and "left the quadrant at step 3" in got.details


@pytest.mark.parametrize("n_samples", [1, JURY_BLOCK, 2 * JURY_BLOCK + 1234])
def test_jury_oracle_matches_scalar_loop(n_samples):
    assert jury_oracle_check(n_samples) == ref_jury_oracle_check(n_samples)


def flip(verdicts):
    """jury_conditions with its verdict negated where ``verdicts(m)`` is true."""

    def flipped(m):
        result = jury_conditions(m)
        return result._replace(verdict=result.verdict ^ verdicts(m))

    return flipped


def test_jury_oracle_counts_every_matrix_like_scalar_loop(monkeypatch):
    monkeypatch.setattr(verification, "jury_conditions", flip(lambda m: True))
    got = jury_oracle_check(2 * JURY_BLOCK + 5000)
    assert got == ref_jury_oracle_check(2 * JURY_BLOCK + 5000)
    assert got.details == "25000 of 25000 matrices disagree with the modulus test"


@pytest.mark.parametrize(
    "grid, flipped, passed",
    [
        (lambda u: (np.floor(u * 8.0) + 0.5) / 8.0, None, True),  # odd sixteenths
        (lambda u: (np.floor(u * 8.0) + 0.5) / 8.0, lambda m: m.a12 > 1.9, False),
        (lambda u: np.round(u * 8.0) / 8.0, None, True),  # eighths: diagonal entries of I + M are 0 or 1 too
    ],
    ids=["odd-sixteenths", "odd-sixteenths-flipped", "eighths"],
)
def test_jury_oracle_on_a_grid_matches_scalar_loop(monkeypatch, grid, flipped, passed):
    # Matrices on a grid put eigenvalues exactly on the unit circle, so
    # some are skipped; a flipped verdict there must not count.  The
    # rule has no hypothesis on the diagonal, so no grid makes it fail.
    real = np.random.default_rng

    class GridRng:
        def __init__(self, seed):
            self.rng = real(seed)

        def uniform(self, low, high, size):
            return grid(self.rng.uniform(low, high, size))

    monkeypatch.setattr(np.random, "default_rng", GridRng)
    if flipped is not None:
        monkeypatch.setattr(verification, "jury_conditions", flip(flipped))
    got = jury_oracle_check(JURY_BLOCK + 5000)
    assert got == ref_jury_oracle_check(JURY_BLOCK + 5000)
    assert got.passed is passed
    if passed:
        assert "(0 skipped" not in got.details


@pytest.fixture(scope="module")
def crosscheck_draw():
    """The theorem cross-check's sets, drawn as the check draws them."""
    lanes, _ = _draw_strict_block(np.random.default_rng(SEED + 2), 1000)
    return [(params, variant) for params, variant, _ in lanes]


def test_theorem_crosscheck_checks_every_draw_in_order(monkeypatch, crosscheck_draw):
    seen = []
    real = harness.all_equilibria

    def spy(params, variant):
        seen.append((params, variant))
        return real(params, variant)

    monkeypatch.setattr(harness, "all_equilibria", spy)
    got = theorem_crosscheck()
    assert got.passed, got.details
    assert seen == crosscheck_draw


# A classification that each coarse prediction rejects.
CONTRARY = {TheoremPrediction.STABLE: Classification.SADDLE, TheoremPrediction.UNSTABLE: Classification.STABLE}


@pytest.mark.parametrize("which", [0, 500, -1], ids=["first", "middle", "last"])
def test_theorem_crosscheck_fails_at_a_disagreeing_report_and_names_its_draw(monkeypatch, crosscheck_draw, which):
    real = harness.stability_report

    def covered(params, variant):
        """(kind, h, prediction) of each report of the set that a prediction covers, in the check's order."""
        return [
            (eq.kind, rep.h, rep.prediction)
            for eq in all_equilibria(params, variant)
            if eq.exists
            for rep in real(params, variant, eq, (0.1, 10.0))
            if rep.prediction is not TheoremPrediction.NOT_COVERED
        ]

    draw = [i for i, drawn in enumerate(crosscheck_draw) if covered(*drawn)][which]
    params, variant = crosscheck_draw[draw]
    *_, (kind, h, prediction) = covered(params, variant)  # the set's last covered report disagrees

    def disagree(p, v, eq, h_list):
        return [
            rep._replace(classification=CONTRARY[rep.prediction], agree=False)
            if (p, v, eq.kind, rep.h) == (params, variant, kind, h)
            else rep
            for rep in real(p, v, eq, h_list)
        ]

    monkeypatch.setattr(harness, "stability_report", disagree)
    got = theorem_crosscheck()
    assert not got.passed
    assert got.details.startswith(f"draw {draw}, {variant.value}/{kind.value} ")
    assert f"predicted {prediction.value} but classified {CONTRARY[prediction].value}" in got.details


def missing(real):
    """``interior_equilibrium`` with every point marked missing."""
    return lambda p, v: replace(real(p, v), exists=False)


def off_horizontal(real):
    """``interior_equilibrium`` with the horizontal point moved off its closed form."""
    return lambda p, v: replace(real(p, v), point=State(0.05, 0.6)) if v is ModelVariant.HORIZONTAL else real(p, v)


def one_scheme(scheme, index):
    """``first_negative_step`` that returns ``index`` for one scheme."""
    return lambda real: lambda *args, **kw: index if kw["scheme"] == scheme else real(*args, **kw)


def each_sweep(change):
    """``step_size_sweep`` with ``change`` made to each result."""
    return lambda real: lambda *args: [change(sweep) for sweep in real(*args)]


def second_h_saddle(sweep):
    first, second, *rest = sweep.entries
    second = second._replace(classification=Classification.SADDLE)
    return sweep._replace(entries=(first, second, *rest), uniform=False)


def flow_stable(sweep):
    continuous = sweep.continuous._replace(classification=Classification.STABLE)
    return sweep._replace(continuous=continuous, matches_continuous=False)


# Each FAIL branch of the deterministic checks: the check, the one name of ``verification`` it reads that is
# replaced, the replacement made from the real one, and the details the check must give.
FAIL_BRANCHES = [
    pytest.param(
        interior_algebra_check, "interior_equilibrium", missing,
        "endemic equilibrium unexpectedly missing", id="interior-missing",
    ),
    pytest.param(
        interior_algebra_check, "interior_coefficients", lambda real: lambda p: (0.0, 0.0, 1.0),
        "quadratic residual 1.000e+00 exceeds 1.000e-10", id="interior-quadratic",
    ),
    pytest.param(
        # The tolerance is 1e-9 (1 + max(X, Y)) at the general interior point (0.1818..., 0.4545...).
        interior_algebra_check, "field_kernel", lambda real: lambda p, v: lambda x, y: (1.0, 0.0),
        "vector-field residual 1.000e+00 exceeds 1.455e-09", id="interior-field",
    ),
    pytest.param(
        interior_algebra_check, "interior_equilibrium", off_horizontal,
        "closed form (0.05, 0.6) differs from (0.047619, 0.595238)", id="interior-horizontal",
    ),
    pytest.param(
        reproduction_threshold_check, "reproduction_numbers", lambda real: lambda p: real(p)._replace(R0=0.7),
        "R0 at beta=0.1 is 0.7, expected 0.75", id="threshold-low",
    ),
    pytest.param(
        reproduction_threshold_check, "reproduction_numbers",
        lambda real: lambda p: real(p)._replace(R0=1.5) if p.beta == 0.3 else real(p),
        "R0 at beta=0.3 is 1.5, expected 19/12 = 1.58333...", id="threshold-high",
    ),
    pytest.param(
        reproduction_threshold_check, "stability_report",
        lambda real: lambda *args: [rep._replace(classification=Classification.SOURCE) for rep in real(*args)],
        "disease-free point at beta=0.1 classified source (continuous), expected stable", id="threshold-type",
    ),
    pytest.param(
        reproduction_threshold_check, "interior_equilibrium", missing,
        "endemic equilibrium should exist at beta=0.3", id="threshold-endemic",
    ),
    pytest.param(
        lambda: positivity_check(n_samples=0), "first_negative_step", one_scheme("euler", 2),
        "forward Euler at h=10 should go negative at step 1, got 2", id="positivity-euler",
    ),
    pytest.param(
        lambda: positivity_check(n_samples=0), "first_negative_step", one_scheme("nsfd", 7),
        "nonstandard map went negative at step 7", id="positivity-nsfd",
    ),
    pytest.param(
        step_size_independence_check, "step_size_sweep", each_sweep(second_h_saddle),
        "general-disease-free/trivial: classifications differ across h: "
        "{0.01: 'source', 0.1: 'saddle', 1.0: 'source', 10.0: 'source', 50.0: 'source'}",
        id="step-size-across-h",
    ),
    pytest.param(
        step_size_independence_check, "step_size_sweep", each_sweep(flow_stable),
        "general-disease-free/trivial: discrete source vs continuous stable", id="step-size-flow",
    ),
    pytest.param(
        # A map that stands still leaves the defect |f| at every h, so each ratio is exactly 1.
        consistency_order_check, "map_kernel", lambda real: lambda p, v, h: lambda x, y: (x, y),
        "general: defect ratios [1.0, 1.0] outside [0.033, 0.333]", id="consistency-defect",
    ),
    pytest.param(
        # Final X = dt: the errors against dt = 1e-4 are 0.0999 and 0.0499.
        consistency_order_check, "simulate_continuous",
        lambda real: lambda p, v, s0, dt, steps, **kw: SimpleNamespace(final_state=(dt, 0.0)),
        "RK4 halving ratio 2.00 outside [12, 20]", id="consistency-rk4",
    ),
]


@pytest.mark.parametrize("check, name, fake, details", FAIL_BRANCHES)
def test_each_check_fails_where_a_name_it_reads_is_wrong(monkeypatch, check, name, fake, details):
    monkeypatch.setattr(verification, name, fake(getattr(verification, name)))
    got = check()
    assert (got.passed, got.details) == (False, details)
