"""Seeded inputs for the benchmark workloads.

Every workload is a list of passes; a pass is a list of ``Op``s, each
one ``nsfd_epi.cli.main`` argv plus what the answer must be.  Inputs
depend only on ``(seed, pass index)`` and on this file, never on the
package, so two versions of the package receive the same argv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("gate", "portrait", "analysis")

# The six convergence scenarios of the acceptance gate, copied so that
# the inputs stay fixed while the package changes; the self-test
# checks the copy against nsfd_epi.verification.SCENARIOS.
GENERAL = {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.0, "e": 0.02}
SUBMODEL = {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.2, "e": 0.0}


@dataclass(frozen=True)
class Scenario:
    name: str
    model: str
    params: dict
    expected_kind: str
    expected_point: tuple[float, float]


SCENARIOS = (
    Scenario("general-disease-free", "general", {**GENERAL, "beta": 0.1}, "disease_free", (0.8333, 0.0)),
    Scenario("general-endemic", "general", {**GENERAL, "beta": 0.3}, "interior", (0.1818, 0.4545)),
    Scenario("horizontal-disease-free", "horizontal", {**SUBMODEL, "beta": 0.1}, "disease_free", (1.0, 0.0)),
    Scenario("horizontal-endemic", "horizontal", {**SUBMODEL, "beta": 0.3}, "interior", (0.0476, 0.5952)),
    Scenario("horizontal-susceptible-free", "horizontal", {**SUBMODEL, "beta": 0.42}, "susceptible_free", (0.0, 0.6)),
    Scenario("vertical-disease-free", "vertical", {**SUBMODEL, "beta": 0.0}, "disease_free", (1.0, 0.0)),
)

# Equilibrium match radius the CLI applies by default (--tol-eq).
TOL_EQ = 1e-3

# Portrait pass: per scenario, STARTS seeded points run by the NSFD map
# at H_STRATA step sizes (one per equal slice of log10 h in [-1, 1]) and
# one of them by RK4 at the default dt.  NSFD then takes somewhat more
# solver steps than RK4, and the h mix spans ~1e2 to ~1e4 steps per run.
STARTS = 4
H_STRATA = 8
# Analysis pass: seeded strict parameter sets, three commands each.
ANALYSIS_SETS = 100
STABILITY_H = 5
# Edge probe: single-start runs beside the axes, per scenario.
EDGE_STARTS = 4


@dataclass(frozen=True)
class Op:
    """One CLI command and the facts its output must agree with."""

    kind: str
    argv: tuple[str, ...]
    scenario: Scenario | None = None
    trajectories: int = 0
    edge: bool = False
    writes_dir: bool = False  # "{out}" in argv names a directory to read back
    meta: dict = field(default_factory=dict, compare=False)


def _flags(model: str, params: dict) -> list[str]:
    argv = ["--model", model]
    for key in ("bx", "by", "ux", "uy", "K", "e", "beta"):
        argv += [f"--{key}", repr(float(params[key]))]
    return argv


def _points(points) -> list[str]:
    argv = []
    for x, y in points:
        argv += ["--x0", repr(float(x)), "--y0", repr(float(y))]
    return argv


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def gate_pass() -> list[Op]:
    return [Op("verify", ("verify",))]


def portrait_pass(seed: int, index: int, starts: int = STARTS, strata: int = H_STRATA) -> list[Op]:
    rng = _rng(seed, index, 1)
    ops = []
    for sc in SCENARIOS:
        k = sc.params["K"]
        points = [tuple(rng.uniform(0.05 * k, 1.5 * k, 2)) for _ in range(starts)]
        base = ["portrait", *_flags(sc.model, sc.params)]
        for j in range(strata):
            h = 10.0 ** (-1.0 + 2.0 * (j + rng.uniform()) / strata)
            argv = [*base, "--scheme", "nsfd", "--h", repr(h), *_points(points), "--out", "{out}"]
            ops.append(Op("portrait", tuple(argv), sc, trajectories=starts, writes_dir=True))
        argv = [*base, "--scheme", "rk4", *_points(points[:1]), "--out", "{out}"]
        ops.append(Op("portrait", tuple(argv), sc, trajectories=1, writes_dir=True))
    return ops


def strict_params(rng: np.random.Generator, model: str) -> dict:
    """A parameter set that passes the CLI's strict validation."""
    while True:
        bx = rng.uniform(0.05, 2.0)
        by = rng.uniform(0.02, bx)
        e = rng.uniform(0.0, bx - by) if model == "general" else 0.0
        ux = rng.uniform(0.01, 1.0)
        uy = ux + rng.uniform(0.01, 1.0)
        k = rng.uniform(0.2, 5.0)
        beta = 0.0 if model == "vertical" else rng.uniform(0.01, 1.5)
        if bx >= by + e and uy > ux:
            return {"bx": bx, "by": by, "ux": ux, "uy": uy, "K": k, "e": e, "beta": beta}


def analysis_pass(seed: int, index: int, sets: int = ANALYSIS_SETS) -> list[Op]:
    rng = _rng(seed, index, 2)
    models = ("general", "horizontal", "vertical")
    ops = []
    for _ in range(sets):
        model = models[int(rng.integers(len(models)))]
        params = strict_params(rng, model)
        flags = _flags(model, params)
        h_values = sorted(10.0 ** rng.uniform(-2.0, math.log10(50.0), STABILITY_H))
        meta = {"model": model, "params": params}
        h_flags = [arg for h in h_values for arg in ("--h", repr(float(h)))]
        ops.append(Op("equilibria", ("equilibria", *flags, "--format", "json"), meta=meta))
        ops.append(Op("stability", ("stability", *flags, *h_flags, "--format", "json"), meta=meta))
        ops.append(Op("sweep", ("sweep", *flags, "--format", "json"), meta=meta))
    return ops


def edge_pass(seed: int, index: int) -> list[Op]:
    """Starts beside an axis, the X side reaching into subnormal numbers."""
    rng = _rng(seed, index, 3)
    ops = []
    for sc in SCENARIOS:
        k = sc.params["K"]
        for i in range(EDGE_STARTS):
            tiny = 10.0 ** -rng.uniform(1.0, 323.0)
            other = rng.uniform(0.05 * k, 1.5 * k)
            point = (tiny, other) if i % 2 == 0 else (other, tiny)
            h = 10.0 ** rng.uniform(-1.0, 1.0)
            argv = ["simulate", *_flags(sc.model, sc.params), "--scheme", "nsfd", "--h", repr(h), *_points([point])]
            ops.append(Op("simulate", tuple(argv), sc, trajectories=1, edge=True))
    return ops


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    if workload == "gate":
        return gate_pass()  # the acceptance checks fix their own seeds
    if workload == "portrait":
        return portrait_pass(seed, index)
    if workload == "analysis":
        return analysis_pass(seed, index)
    if workload == "edge":
        return edge_pass(seed, index)
    raise ValueError(f"unknown workload {workload!r}")
