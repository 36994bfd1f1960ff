"""Correctness checks on the output of one CLI command.

A command that raises out of ``main`` (a traceback) or exits 0 with an
answer that contradicts the closed-form prediction is a *problem*: the
run is wrong and the benchmark fails.  A documented exit code (2 for
configuration, 3 for domain errors) only counts as a failed operation,
and so does a wrong limit on an edge-probe start, since that probe
exists to expose the failures beside the axes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from workloads import TOL_EQ, Op

DOCUMENTED_EXITS = (2, 3)
SWEEP_DEFAULT_H = 5
# Closed-form equilibria must zero the vector field to this relative size.
FIELD_RESIDUAL = 1e-9


@dataclass
class Outcome:
    """What one call of ``main`` did."""

    rc: int | None
    seconds: float
    stdout: str
    stderr: str = ""
    error: str | None = None
    files: dict[str, bytes] = field(default_factory=dict)
    start: float = 0.0


@dataclass
class Checked:
    failed: bool = False
    problem: str | None = None
    steps: int = 0
    trajectories: int = 0
    rows: int = 0
    bytes_out: int = 0


def check(op: Op, out: Outcome) -> Checked:
    result = Checked(bytes_out=len(out.stdout.encode()) + sum(len(b) for b in out.files.values()))
    if out.error is not None:
        result.problem = f"{op.kind} raised out of main:\n{out.error}"
        return result
    if out.rc in DOCUMENTED_EXITS and op.kind != "verify":
        result.failed = True
        return result
    try:
        if out.rc != 0:
            raise WrongAnswer(f"exit code {out.rc}: {out.stderr.strip()[-300:]}")
        CHECKERS[op.kind](op, out, result)
    except WrongAnswer as exc:
        if op.edge:
            result.failed = True
        else:
            result.problem = f"{op.kind} {' '.join(op.argv)}: {exc}"
    return result


class WrongAnswer(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _check_verify(op: Op, out: Outcome, result: Checked) -> None:
    lines = out.stdout.strip().splitlines()
    _expect(bool(lines) and lines[-1] == "13/13 checks passed", f"last line {lines[-1:]!r}, expected 13/13")
    _expect(all(line.startswith("PASS") for line in lines[:-1]), "a check line does not read PASS")


def _check_limit(op: Op, verdict_line: str, final: tuple[float, float]) -> int:
    """Steps taken, after checking the verdict and limit of one trajectory."""
    fields = dict(part.split("=", 1) for part in verdict_line[2:].split())
    sc = op.scenario
    _expect(fields.get("verdict") == "converged", f"verdict {verdict_line!r}")
    _expect(fields.get("equilibrium") == sc.expected_kind, f"{verdict_line!r}, expected {sc.expected_kind}")
    ex, ey = sc.expected_point
    dist = max(abs(final[0] - ex), abs(final[1] - ey))
    _expect(dist <= TOL_EQ, f"final state {final} is {dist:.3g} from {sc.expected_point}")
    return int(fields["n"])


def _trajectory(op: Op, text: str, result: Checked) -> list[str]:
    """Check one trajectory CSV; returns its final X and Y as written."""
    lines = text.rstrip("\n").split("\n")
    _expect(lines[-1].startswith("# verdict="), "no verdict line")
    data = [line for line in lines if line and not line.startswith("#")][1:]  # skip the header
    final = data[-1].split(",")[2:]
    n = _check_limit(op, lines[-1], (float(final[0]), float(final[1])))
    _expect(len(data) == n + 1, f"{len(data)} rows for {n} steps")
    result.steps += n
    result.trajectories += 1
    result.rows += len(data)
    return final


def _check_portrait(op: Op, out: Outcome, result: Checked) -> None:
    index = out.files["index.csv"].decode().strip().split("\n")[1:]
    _expect(len(index) == op.trajectories, f"{len(index)} trajectories, expected {op.trajectories}")
    result.rows += len(index)
    for row in index:
        _, _, _, fname, verdict, fx, fy = row.split(",")
        _expect(verdict == "converged", f"{fname} ended {verdict}")
        final = _trajectory(op, out.files[fname].decode(), result)
        _expect(final == [fx, fy], f"index final {fx},{fy} differs from {fname} final {final}")


def _check_simulate(op: Op, out: Outcome, result: Checked) -> None:
    _trajectory(op, out.stdout, result)


def _field(params: dict, model: str, x: float, y: float) -> tuple[float, float]:
    e = params["e"] if model == "general" else 0.0
    beta = 0.0 if model == "vertical" else params["beta"]
    g = 1.0 - (x + y) / params["K"]
    dx = (params["bx"] * g - params["ux"] - beta * y) * x + e * g * y
    dy = (params["by"] * g - params["uy"] + beta * x) * y
    return dx, dy


def _check_equilibria(op: Op, out: Outcome, result: Checked) -> None:
    doc = json.loads(out.stdout)
    params, model = op.meta["params"], op.meta["model"]
    r = doc["reproduction"]
    _expect(math.isclose(r["R0"], r["V0"] + r["H0"], rel_tol=1e-12), f"R0 {r}")
    scale = max(params["K"], 1.0) * max(params["bx"], params["uy"], params["beta"], 1.0)
    existing = [eq for eq in doc["equilibria"] if eq["exists"]]
    _expect(any(eq["kind"] == "trivial" for eq in existing), "trivial equilibrium missing")
    for eq in existing:
        x, y = eq["point"]
        _expect(x >= 0.0 and y >= 0.0, f"{eq['kind']} at {(x, y)} outside the quadrant")
        residual = max(abs(v) for v in _field(params, model, x, y))
        _expect(residual <= FIELD_RESIDUAL * scale, f"{eq['kind']} field residual {residual:.3g}")


def _check_stability(op: Op, out: Outcome, result: Checked) -> None:
    doc = json.loads(out.stdout)
    n_h = len(doc["h_list"])
    for entry in doc["equilibria"]:
        kind = entry["equilibrium"]["kind"]
        reports = entry["reports"]
        if not entry["equilibrium"]["exists"]:
            _expect(not reports, f"{kind} does not exist but has reports")
            continue
        _expect(len(reports) == 1 + n_h, f"{kind}: {len(reports)} reports for {n_h} step sizes")
        for rep in reports:
            if rep["theorem_prediction"] != "not_covered":
                _expect(rep["agree"], f"{kind} h={rep['h']}: {rep['classification']} vs {rep['theorem_prediction']}")


def _check_sweep(op: Op, out: Outcome, result: Checked) -> None:
    doc = json.loads(out.stdout)
    _expect(bool(doc["equilibria"]), "no equilibrium swept")
    for entry in doc["equilibria"]:
        _expect(len(entry["per_h"]) == SWEEP_DEFAULT_H, f"{entry['kind']}: {len(entry['per_h'])} step sizes")
        _expect(entry["uniform"] and entry["matches_continuous"], f"{entry['kind']} varies with h: {entry['per_h']}")


CHECKERS = {
    "verify": _check_verify,
    "portrait": _check_portrait,
    "simulate": _check_simulate,
    "equilibria": _check_equilibria,
    "stability": _check_stability,
    "sweep": _check_sweep,
}
