"""Command-line front end.

Commands: equilibria, stability, simulate, portrait, sweep, verify.
Parameters come from flags, from a JSON config file (flags win), or
from the built-in benchmark defaults.  Exit codes: 0 success, 1
verification failure, 2 configuration error, 3 runtime/domain error,
141 stdout closed by its reader (nothing is printed on stderr).
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Sequence

from .convergence import ConvergenceSettings, Trajectory, Verdict
from .equilibria import Equilibrium, all_equilibria, reproduction_numbers
from .harness import INITIAL_POINT_PRESETS, SWEEP_H_LIST, step_size_sweep
from .integrators import simulate_continuous
from .model import (
    BlowUpError,
    DomainError,
    RATES,
    HostParams,
    ModelVariant,
    State,
    VariantParameterError,
    validate_params,
)
from .nsfd import iterate
from .readers import Reader, exactly, integer, list_of, number, one_of
from .stability import stability_report
from .verification import FixtureError, acceptance_check_names, load_fixture_scenarios, run_acceptance

if TYPE_CHECKING:
    import argparse

__all__ = ["RunConfig", "main"]

SEED_DIR_ENV = "NSFD_EPI_SEED_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process ended by SIGPIPE


class ConfigError(Exception):
    pass


# The values each choice field may take, for a flag and a config file alike.
CHOICES = {
    "model": tuple(variant.value for variant in ModelVariant),
    "scheme": ("nsfd", "rk4", "euler"),
    "format": ("csv", "json", "text"),
    "preset": tuple(INITIAL_POINT_PRESETS),
}


@dataclass
class RunConfig:
    """Everything a command needs; round-trips through JSON losslessly."""

    model: str = "general"
    scheme: str = "nsfd"
    bx: float = 0.6
    by: float = 0.4
    ux: float = 0.1
    uy: float = 0.2
    K: float = 1.0
    e: float = 0.02
    beta: float = 0.1
    h: float = 0.1
    h_list: list[float] = field(default_factory=list)
    dt: float = 0.01
    initial_points: list[list[float]] = field(default_factory=list)
    preset: str | None = None
    steps: int = 100_000
    tol_eq: float = 1e-3
    tol_step: float = 1e-10
    window: int = 50
    format: str = "text"
    out: str | None = None
    permissive: bool = False

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """The config ``data`` gives; ConfigError for an unknown key or a value its field's reader refuses."""
        unknown = data.keys() - _READERS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = {}
        for key, value in data.items():
            try:
                coerced[key] = _READERS[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad config value for {key!r}: {exc}") from None
        return cls(**coerced)

    def params(self) -> HostParams:
        return HostParams(**{name: getattr(self, key) for key, name in RATES.items()})

    def variant(self) -> ModelVariant:
        return ModelVariant(self.model)

    def settings(self) -> ConvergenceSettings:
        try:
            return ConvergenceSettings(tol_step=self.tol_step, window=self.window, tol_eq=self.tol_eq)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def points(self) -> list[State]:
        if self.preset is not None:
            return list(INITIAL_POINT_PRESETS[self.preset])
        return [State(x, y) for x, y in self.initial_points] or [State(0.1, 0.1)]


# The reader of a RunConfig field, by the field's annotation.
_BY_ANNOTATION: dict[str, Reader] = {
    "float": number,
    "int": integer,
    "bool": exactly(bool, "true or false"),
    "str": exactly(str, "a string"),
    "list[float]": list_of(number),
    "list[list[float]]": list_of(list_of(number, 2)),
}


def _reader(name: str, annotation: str) -> Reader:
    """The field's reader, picked by its annotation; a choice field takes only its CHOICES."""
    read = one_of(CHOICES[name]) if name in CHOICES else _BY_ANNOTATION[annotation.removesuffix(" | None")]
    if annotation.endswith(" | None"):
        return lambda value: None if value is None else read(value)
    return read


# Built once, at import, so that reading a config costs one call per value.
_READERS = {f.name: _reader(f.name, f.type) for f in fields(RunConfig)}


def _fmt(x: float) -> str:
    return repr(float(x))


def _build_config(args: SimpleNamespace | argparse.Namespace) -> RunConfig:
    """The config file's object with the given flags laid over it, read once by ``RunConfig.from_dict``."""
    data = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    flags = {name: value for name, value in vars(args).items() if name in _READERS and value is not None}
    if "h" in flags:  # --h, repeatable, gives h_list; its last value is the run's h
        flags["h_list"], flags["h"] = flags["h"], flags["h"][-1]
    x0, y0 = getattr(args, "x0", None) or [], getattr(args, "y0", None) or []
    if len(x0) != len(y0):
        raise ConfigError(f"--x0 given {len(x0)} times but --y0 {len(y0)} times")
    if x0:  # the starts given by flags replace the file's, whether a preset or initial_points
        if "preset" in flags:
            raise ConfigError("--preset and --x0/--y0 both name the starts; give one or the other")
        flags["initial_points"], flags["preset"] = [list(point) for point in zip(x0, y0)], None
    elif "preset" in flags:
        flags["initial_points"] = []
    config = RunConfig.from_dict({**data, **flags})
    if config.preset is not None and config.initial_points:  # only the file can name both
        raise ConfigError(
            f"config file {args.config} names the starts twice, by preset and by initial_points; give one or the other"
        )
    return config


def _check_params(config: RunConfig) -> None:
    """Exit 2 on any violation, or with --permissive on a hard one only and warn of the rest."""
    violations = validate_params(config.params())
    errors = [v for v in violations if v.hard or not config.permissive]
    for v in errors:
        print(f"error: parameter violation: {v}", file=sys.stderr)
    if errors:
        raise ConfigError("invalid parameters")
    for v in violations:
        print(f"warning: {v}", file=sys.stderr)


@contextmanager
def _writing(out: str) -> Iterator[None]:
    """Report a failed write to ``--out`` (a directory, a missing parent, no permission) as a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with _writing(out):
            Path(out).write_text(text if text.endswith("\n") else text + "\n")


_EXPONENT = re.compile(rb"e-?[1-9]")  # orjson's 1e16 and 1.5e-7 (json: 1e+16, 1.5e-07), not "negative-trace"


def _json_text(doc: Any) -> str:
    """The text of ``json.dumps(doc, indent=2)``, written by orjson wherever its bytes are the same.

    json writes the document instead where orjson refuses it (a non-string
    key, an int past 64 bits, a numpy scalar, a lone surrogate, deep
    nesting) or where its bytes may differ: a character json escapes
    (non-ASCII, DEL), an exponent, fixed notation in [1e-5, 1e-4)
    ("0.00005" for 5e-05), or a nan or inf written as null.  A text that
    holds null is read back: a nan or inf comes back as None, which
    equals no float, so the document read back differs from ``doc``.
    orjson is imported on first use.
    """
    import orjson

    try:
        text = orjson.dumps(doc, option=orjson.OPT_INDENT_2)
    except TypeError:  # orjson.JSONEncodeError
        return json.dumps(doc, indent=2)
    if not text.isascii() or b"\x7f" in text or _EXPONENT.search(text) or b"0.0000" in text or (
        b"null" in text and orjson.loads(text) != doc  # not null alone: every stability document holds "h": null
    ):
        return json.dumps(doc, indent=2)
    return text.decode()


def _verdict_dict(verdict: Verdict) -> dict[str, Any]:
    data: dict[str, Any] = {"status": verdict.status.value, "at_step": verdict.at_step}
    if verdict.kind is not None:
        data["equilibrium"] = verdict.kind.value
        data["point"] = [verdict.point.X, verdict.point.Y]
    return data


def _verdict_comment(verdict: Verdict) -> str:
    parts = [f"# verdict={verdict.status.value}", f"n={verdict.at_step}"]
    if verdict.kind is not None:
        parts.append(f"equilibrium={verdict.kind.value}")
        parts.append(f"X={_fmt(verdict.point.X)}")
        parts.append(f"Y={_fmt(verdict.point.Y)}")
    return " ".join(parts)


def _num(x: float) -> float | None:
    return None if math.isnan(x) else float(x)


def _eq_dict(eq: Equilibrium) -> dict[str, Any]:
    return {
        "kind": eq.kind.value,
        "point": [_num(eq.point.X), _num(eq.point.Y)],
        "exists": eq.exists,
        "conditions": [
            {"name": c.name, "holds": c.holds, "margin": _num(c.margin)} for c in eq.conditions
        ],
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_equilibria(config: RunConfig) -> str:
    params, variant = config.params(), config.variant()
    equilibria = all_equilibria(params, variant)
    r = reproduction_numbers(params)
    if config.format == "json":
        doc = {
            "model": variant.value,
            "params": _params_dict(config),
            "reproduction": {"V0": _num(r.V0), "H0": _num(r.H0), "R0": _num(r.R0),
                             "xbar_negative": None if math.isnan(r.R0) else r.xbar_negative},
            "equilibria": [_eq_dict(eq) for eq in equilibria],
        }
        return _json_text(doc)
    if config.format == "csv":
        lines = [f"# model={variant.value} " + " ".join(f"{k}={_fmt(v)}" for k, v in _params_dict(config).items())]
        lines.append(f"# V0={_fmt(r.V0)} H0={_fmt(r.H0)} R0={_fmt(r.R0)}")
        lines.append("kind,X,Y,exists,failed_conditions")
        for eq in equilibria:
            failed = ";".join(c.name for c in eq.failed_conditions())
            lines.append(f"{eq.kind.value},{_fmt(eq.point.X)},{_fmt(eq.point.Y)},{int(eq.exists)},{failed}")
        return "\n".join(lines)
    # plain text table
    lines = [f"model: {variant.value}", f"R0 = {r.R0:.6g} (V0 = {r.V0:.6g}, H0 = {r.H0:.6g})"]
    for eq in equilibria:
        status = "exists" if eq.exists else "does not exist"
        lines.append(f"  {eq.kind.value:17s} ({eq.point.X:.6g}, {eq.point.Y:.6g})  {status}")
        for c in eq.conditions:
            mark = "ok" if c.holds else "FAILS"
            lines.append(f"      {c.name:45s} {mark:5s} margin {c.margin:+.4g}")
    return "\n".join(lines)


def _params_dict(config: RunConfig) -> dict[str, float]:
    return {key: getattr(config, key) for key in RATES}


def _report_dict(report) -> dict[str, Any]:
    return {
        "regime": report.regime.value,
        "h": report.h,
        "eigenvalues": [[z.real, z.imag] for z in report.eigenvalues],
        "classification": report.classification.value,
        "theorem_prediction": report.prediction.value,
        "agree": report.agree,
        "notes": list(report.notes),
    }


def _cmd_stability(config: RunConfig) -> str:
    params, variant = config.params(), config.variant()
    h_list = config.h_list or [config.h]
    equilibria = all_equilibria(params, variant)
    entries = [(eq, stability_report(params, variant, eq, h_list) if eq.exists else []) for eq in equilibria]
    if config.format == "json":
        doc = {
            "model": variant.value,
            "params": _params_dict(config),
            "h_list": h_list,
            "equilibria": [
                {"equilibrium": _eq_dict(eq), "reports": [_report_dict(r) for r in reports]}
                for eq, reports in entries
            ],
        }
        return _json_text(doc)
    if config.format == "csv":
        lines = ["kind,regime,h,lambda1_re,lambda1_im,lambda2_re,lambda2_im,classification,theorem,agree"]
        for eq, reports in entries:
            for rep in reports:
                l1, l2 = rep.eigenvalues
                lines.append(
                    f"{eq.kind.value},{rep.regime.value},{'' if rep.h is None else _fmt(rep.h)},"
                    f"{_fmt(l1.real)},{_fmt(l1.imag)},{_fmt(l2.real)},{_fmt(l2.imag)},"
                    f"{rep.classification.value},{rep.prediction.value},{int(rep.agree)}"
                )
        return "\n".join(lines)
    lines = [f"model: {variant.value}  (h tested: {', '.join(_fmt(h) for h in h_list)})"]
    for eq, reports in entries:
        lines.append(
            f"  {eq.kind.value:17s} ({eq.point.X:.6g}, {eq.point.Y:.6g})"
            + ("" if eq.exists else "  [does not exist]")
        )
        for rep in reports:
            eig_txt = ", ".join(
                f"{z.real:+.5g}" + (f"{z.imag:+.5g}i" if z.imag else "") for z in rep.eigenvalues
            )
            h_txt = "continuous" if rep.h is None else f"discrete h={rep.h:g}"
            agree = "agrees" if rep.agree else ("n/a" if rep.prediction.value == "not_covered" else "DISAGREES")
            lines.append(
                f"      {h_txt:18s} eig [{eig_txt}]  {rep.classification.value:13s} "
                f"theorem: {rep.prediction.value:11s} {agree}"
            )
        for rep in reports[:1]:
            for note in rep.notes:
                lines.append(f"      note: {note}")
    return "\n".join(lines)


def _simulate_one(config: RunConfig, s0: State) -> Trajectory:
    params, variant = config.params(), config.variant()
    settings = config.settings()
    if config.scheme == "nsfd":
        return iterate(params, variant, config.h, s0, config.steps, settings=settings)
    return simulate_continuous(params, variant, s0, config.dt, config.steps, settings, scheme=config.scheme)


# The cells that _float_cells gives orjson in one call: enough to spread the call's cost, few enough
# that a long run's text is never held whole.  Over a portrait pass, 4096 ran no faster and peaked higher.
ROW_BLOCK = 1024

# The decades [1e-d, 1e-(d-1)) whose exponent d has one digit, with that exponent as orjson and as repr
# end a cell.  Each decade's lower end is the double that repr writes as 1e-0d, and no double below it
# is written with exponent d, so a magnitude test is exact.
PADDED_DECADES = [(float(f"1e-{d}"), float(f"1e-{d - 1}"), f"e-{d},", f"e-0{d},") for d in (6, 7, 8, 9)]


def _float_cells(values: Any) -> Iterator[str]:
    """``repr`` of each float of the 1-d array ``values``, in order, written ``ROW_BLOCK`` at a time.

    orjson writes repr's shortest round-trip digits, in repr's notation for
    0 and for magnitudes in [1e-4, 1e16).  Below 1e-5 it writes repr's
    exponent notation with the exponent unpadded (1.5e-7 for 1.5e-07), so
    ``str.replace`` pads the exponents 6 to 9 in each block that holds a
    cell of that decade.  repr writes the other cells: [1e-5, 1e-4), which
    orjson writes in fixed notation (0.00003 for 3e-05), 1e16 up, nan and
    inf.  Both modules are imported on first use.
    """
    import numpy as np
    import orjson

    def block_cells(start: int) -> list[str]:
        block = np.ascontiguousarray(values[start : start + ROW_BLOCK], dtype=np.float64)  # orjson takes C order only
        # A "," after every cell, the last one too, ends each exponent, so "e-6," cannot match e-60.
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode() + ","
        magnitude = np.abs(block)
        tiny = magnitude[magnitude < 1e-5]
        if tiny.size:
            for lower, upper, unpadded, padded in PADDED_DECADES:
                if ((tiny >= lower) & (tiny < upper)).any():
                    text = text.replace(unpadded, padded)
        cells = text.split(",")
        cells.pop()
        other = ((magnitude >= 1e-5) & (magnitude < 1e-4)) | ~(magnitude < 1e16)
        for i, x in zip(np.flatnonzero(other).tolist(), block[other].tolist()):
            cells[i] = repr(x)
        return cells

    return chain.from_iterable(map(block_cells, range(0, len(values), ROW_BLOCK)))


def _heads(run: Trajectory) -> list[str]:
    """The ``n,t`` cells of each row of ``run``; for a run that records every step, entry n is step n's."""
    # A memoryview yields the step numbers as Python ints, so str writes them without a numpy scalar.
    return list(map(",".join, zip(map(str, memoryview(run.steps)), _float_cells(run.times))))


def _trajectory_csv(config: RunConfig, s0: State, run: Trajectory, heads: list[str]) -> str:
    """The CSV of ``run``, whose row of step n begins with ``heads[n]`` (see ``_heads``)."""
    meta = _params_dict(config)
    step_txt = f"h={_fmt(config.h)}" if config.scheme == "nsfd" else f"dt={_fmt(config.dt)}"
    lines = [
        "# nsfd-epi simulate",
        f"# model={config.model} scheme={config.scheme} {step_txt} steps={config.steps} "
        + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
        + f" x0={_fmt(s0.X)} y0={_fmt(s0.Y)}",
        "n,t,X,Y",
    ]
    rows = zip(
        map(heads.__getitem__, memoryview(run.steps)),
        _float_cells(run.states[:, 0]),
        _float_cells(run.states[:, 1]),
    )
    lines.extend(map(",".join, rows))
    lines.append(_verdict_comment(run.verdict))
    return "\n".join(lines)


def _trajectory_json(config: RunConfig, s0: State, run: Trajectory) -> dict[str, Any]:
    return {
        "config": config.to_dict(),
        "initial": [s0.X, s0.Y],
        "n": run.steps.tolist(),
        "t": run.times.tolist(),
        "X": run.states[:, 0].tolist(),
        "Y": run.states[:, 1].tolist(),
        "verdict": _verdict_dict(run.verdict),
    }


def _cmd_simulate(config: RunConfig) -> str:
    points = config.points()
    if len(points) != 1:
        raise ConfigError("simulate takes exactly one initial point; use portrait for several")
    run = _simulate_one(config, points[0])
    if config.format == "json":
        return _json_text(_trajectory_json(config, points[0], run))
    return _trajectory_csv(config, points[0], run, _heads(run))


def _cmd_portrait(config: RunConfig) -> str | None:
    points = config.points()
    if config.format != "json" and (config.out is None or config.out == "-"):
        raise ConfigError("portrait with csv output needs --out DIRECTORY; only --format json writes to stdout")
    runs = [(s0, _simulate_one(config, s0)) for s0 in points]
    if config.format == "json":
        doc = {
            "config": config.to_dict(),
            "trajectories": [_trajectory_json(config, s0, run) for s0, run in runs],
        }
        return _json_text(doc)
    # Every run shares h and records every step from 0, so the longest run's cells serve them all.
    heads = _heads(max((run for _, run in runs), key=lambda run: run.steps[-1]))
    out_dir = Path(config.out)
    index_lines = ["point,x0,y0,file,verdict,final_X,final_Y"]
    with _writing(config.out):
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, (s0, run) in enumerate(runs, start=1):
            fname = f"trajectory_{i:02d}.csv"
            (out_dir / fname).write_text(_trajectory_csv(config, s0, run, heads) + "\n")
            final = run.final_state
            index_lines.append(
                f"{i},{_fmt(s0.X)},{_fmt(s0.Y)},{fname},{run.verdict.status.value},{_fmt(final.X)},{_fmt(final.Y)}"
            )
        (out_dir / "index.csv").write_text("\n".join(index_lines) + "\n")
    print(f"wrote {len(runs)} trajectories and index.csv to {out_dir}")
    return None


def _cmd_sweep(config: RunConfig) -> str:
    params, variant = config.params(), config.variant()
    h_list = config.h_list or SWEEP_H_LIST
    results = step_size_sweep(params, variant, h_list)
    if config.format == "json":
        doc = {
            "model": variant.value,
            "params": _params_dict(config),
            "h_list": h_list,
            "equilibria": [
                {
                    "kind": res.equilibrium.kind.value,
                    "point": [res.equilibrium.point.X, res.equilibrium.point.Y],
                    "continuous": res.continuous.classification.value,
                    "per_h": [{"h": en.h, "classification": en.classification.value} for en in res.entries],
                    "uniform": res.uniform,
                    "matches_continuous": res.matches_continuous,
                }
                for res in results
            ],
            "all_uniform": all(res.uniform for res in results),
        }
        return _json_text(doc)
    if config.format == "csv":
        lines = ["kind,h,classification,continuous,uniform"]
        for res in results:
            for en in res.entries:
                lines.append(
                    f"{res.equilibrium.kind.value},{_fmt(en.h)},{en.classification.value},"
                    f"{res.continuous.classification.value},{int(res.uniform)}"
                )
        return "\n".join(lines)
    lines = [f"model: {variant.value}  (h: {', '.join(_fmt(h) for h in h_list)})"]
    for res in results:
        flag = "h-independent" if res.uniform else "VARIES WITH h"
        continuous = res.continuous.classification.value
        match = "matches continuous" if res.matches_continuous else f"continuous is {continuous}"
        lines.append(f"  {res.equilibrium.kind.value:17s} {res.entries[0].classification.value:13s} {flag}; {match}")
    return "\n".join(lines)


def _cmd_verify(args: SimpleNamespace | argparse.Namespace) -> int:
    seed_dir = os.environ.get(SEED_DIR_ENV)
    if seed_dir and not Path(seed_dir).is_dir():
        raise ConfigError(f"{SEED_DIR_ENV}={seed_dir} is not a directory")
    extra = load_fixture_scenarios(Path(seed_dir)) if seed_dir else []
    only = args.only
    if args.list:
        for name in acceptance_check_names(extra):
            if only is None or only in name:
                print(name)
        return EXIT_OK
    match_tol = args.tol_eq if args.tol_eq is not None else 1e-3
    if not 0 < match_tol < math.inf:
        raise ConfigError(f"--tol-eq must be finite and positive, got {match_tol!r}")
    results = run_acceptance(match_tol=match_tol, only=only, extra_scenarios=extra)
    if not results:
        raise ConfigError(f"no checks match --only {only!r}")
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:{width}s}  {r.details}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing


class Flag(NamedTuple):
    """One flag of a command, declared once for argparse and for ``_read_argv``."""

    flag: str
    dest: str
    action: str = "store"  # argparse's: "store" keeps the last value, "append" all of them, "store_true" takes none
    read: Reader | None = None  # argparse's type=; None keeps the text
    choices: tuple[str, ...] | None = None
    help: str | None = None


# The flags of RunConfig fields take no reader: RunConfig.from_dict reads
# their strings by the rules it reads a config file by.
PARAM_FLAGS = (
    Flag("--model", "model", choices=CHOICES["model"]),
    Flag("--bx", "bx", help="birth rate of uninfected hosts"),
    Flag("--by", "by", help="birth rate of infected hosts"),
    Flag("--ux", "ux", help="death rate of uninfected hosts"),
    Flag("--uy", "uy", help="death rate of infected hosts"),
    Flag("--K", "K", help="carrying capacity"),
    Flag("--e", "e", help="uninfected-offspring rate of infected hosts"),
    Flag("--beta", "beta", help="horizontal transmission coefficient"),
    Flag("--permissive", "permissive", "store_true", help="downgrade biological-plausibility checks to warnings"),
    Flag("--config", "config", help="JSON config file; explicit flags override it"),
    Flag("--format", "format", choices=CHOICES["format"]),
    Flag("--out", "out", help="output file (or directory for portrait); default stdout"),
)
RUN_FLAGS = (
    Flag("--scheme", "scheme", choices=CHOICES["scheme"]),
    Flag("--h", "h", "append", help="discrete step size"),
    Flag("--dt", "dt", help="continuous step size"),
    Flag("--x0", "x0", "append", number, help="initial X (repeatable)"),
    Flag("--y0", "y0", "append", number, help="initial Y (repeatable)"),
    Flag("--preset", "preset", help="named initial-point set (e.g. paper-initials)"),
    Flag("--steps", "steps", help="maximum number of steps"),
    Flag("--tol-eq", "tol_eq", help="equilibrium match radius"),
    Flag("--tol-step", "tol_step", help="quiescence threshold"),
    Flag("--window", "window", help="quiet steps required before declaring convergence"),
)
VERIFY_FLAGS = (
    Flag("--list", "list", "store_true", help="list scenario checks without running"),
    Flag("--only", "only", help="run only checks whose name contains this substring"),
    Flag("--tol-eq", "tol_eq", read=float, help="equilibrium match tolerance for convergence scenarios (default 1e-3)"),
)
# Each command's help, flags and handler.  A config command's handler takes the checked RunConfig and
# returns the text for --out or stdout (None if it wrote its own); verify's returns the exit code.
COMMANDS = {
    "equilibria": ("list equilibria with existence conditions and R0", PARAM_FLAGS, _cmd_equilibria),
    "stability": (
        "eigenvalue classification and theorem cross-check per equilibrium",
        (*PARAM_FLAGS, Flag("--h", "h", "append", help="discrete step size (repeatable)")),
        _cmd_stability,
    ),
    "simulate": ("run one trajectory and write n,t,X,Y output", PARAM_FLAGS + RUN_FLAGS, _cmd_simulate),
    "portrait": ("run several trajectories (phase portrait data)", PARAM_FLAGS + RUN_FLAGS, _cmd_portrait),
    "sweep": (
        "discrete classification across step sizes",
        (*PARAM_FLAGS, Flag("--h", "h", "append", help="step size (repeatable)")),
        _cmd_sweep,
    ),
    "verify": ("run the acceptance scenarios; exit 0 iff all pass", VERIFY_FLAGS, _cmd_verify),
}
_FLAGS_BY_NAME = {name: {f.flag: f for f in flags} for name, (_, flags, _) in COMMANDS.items()}


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, built on the first argv ``_read_argv`` declines and reused by every later one.

    Reuse is safe because every default is None and ``parse_args``
    leaves the parser unchanged.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="nsfd-epi",
        description="Host-parasite epidemic models: equilibria, stability, and positivity-preserving simulation.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for f in flags:
            typed = {} if f.action == "store_true" else {"type": f.read, "choices": f.choices}
            p.add_argument(f.flag, dest=f.dest, action=f.action, default=None, help=f.help, **typed)
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``_make_parser().parse_args(argv)`` returns, read from ``COMMANDS``; None where argv is not plain.

    Plain is an exact command name, then only that command's exact flags:
    a value flag as ``--flag=value``, or as ``--flag value`` with a value
    not beginning with "-"; a switch bare.  Readers and choices apply as in
    argparse.  Anything else, such as -h or a value argparse refuses,
    goes to argparse, which writes every help and error.
    """
    flags = _FLAGS_BY_NAME.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = {"command": argv[0], **dict.fromkeys(f.dest for f in flags.values())}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        flag = flags.get(name)
        if flag is None or (eq and flag.action == "store_true"):
            return None
        if flag.action == "store_true":
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
            try:
                value = value if flag.read is None else flag.read(value)
            except (TypeError, ValueError):
                return None
            if flag.choices is not None and value not in flag.choices:
                return None
            if flag.action == "append":
                value = [*(values[flag.dest] or ()), value]
        values[flag.dest] = value
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _make_parser().parse_args(argv)
    handler = COMMANDS[args.command][2]
    try:
        if handler is _cmd_verify:
            code = handler(args)
        else:
            config = _build_config(args)
            _check_params(config)
            text = handler(config)
            if text is not None:
                _emit(text, config.out)
            code = EXIT_OK
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Closed by its reader (`| head`): write no more, not even at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ConfigError, FixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, VariantParameterError, BlowUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
