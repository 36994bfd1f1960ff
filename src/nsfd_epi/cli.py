"""Command-line front end.

Commands: equilibria, stability, simulate, portrait, sweep, verify.
Parameters come from flags, from a JSON config file (flags win), or
from the built-in benchmark defaults.  Exit codes: 0 success, 1
verification failure, 2 configuration error, 3 runtime/domain error,
141 stdout closed by its reader (nothing is printed on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator, Sequence

from .convergence import ConvergenceSettings, Trajectory, Verdict
from .equilibria import Equilibrium, ReproductionNumbers, all_equilibria, reproduction_numbers
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


def _build_config(args: argparse.Namespace) -> RunConfig:
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
    if x0:
        flags["initial_points"] = [list(point) for point in zip(x0, y0)]
    return RunConfig.from_dict({**data, **flags})


def _check_params(config: RunConfig) -> None:
    mode = "permissive" if config.permissive else "strict"
    violations = validate_params(config.params(), mode)
    if violations:
        for v in violations:
            print(f"error: parameter violation: {v}", file=sys.stderr)
        raise ConfigError("invalid parameters")
    if config.permissive:
        for v in validate_params(config.params(), "strict"):
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


def _cmd_equilibria(config: RunConfig) -> int:
    _check_params(config)
    params, variant = config.params(), config.variant()
    equilibria = all_equilibria(params, variant)
    try:
        r = reproduction_numbers(params)
    except DomainError:  # u_y = 0 passes --permissive: the points exist, R0 does not
        r = ReproductionNumbers(math.nan, math.nan, math.nan)
    if config.format == "json":
        doc = {
            "model": variant.value,
            "params": _params_dict(config),
            "reproduction": {"V0": _num(r.V0), "H0": _num(r.H0), "R0": _num(r.R0),
                             "xbar_negative": None if math.isnan(r.R0) else r.xbar_negative},
            "equilibria": [_eq_dict(eq) for eq in equilibria],
        }
        _emit(json.dumps(doc, indent=2), config.out)
        return EXIT_OK
    if config.format == "csv":
        lines = [f"# model={variant.value} " + " ".join(f"{k}={_fmt(v)}" for k, v in _params_dict(config).items())]
        lines.append(f"# V0={_fmt(r.V0)} H0={_fmt(r.H0)} R0={_fmt(r.R0)}")
        lines.append("kind,X,Y,exists,failed_conditions")
        for eq in equilibria:
            failed = ";".join(c.name for c in eq.failed_conditions())
            lines.append(f"{eq.kind.value},{_fmt(eq.point.X)},{_fmt(eq.point.Y)},{int(eq.exists)},{failed}")
        _emit("\n".join(lines), config.out)
        return EXIT_OK
    # plain text table
    lines = [f"model: {variant.value}", f"R0 = {r.R0:.6g} (V0 = {r.V0:.6g}, H0 = {r.H0:.6g})"]
    for eq in equilibria:
        status = "exists" if eq.exists else "does not exist"
        lines.append(f"  {eq.kind.value:17s} ({eq.point.X:.6g}, {eq.point.Y:.6g})  {status}")
        for c in eq.conditions:
            mark = "ok" if c.holds else "FAILS"
            lines.append(f"      {c.name:45s} {mark:5s} margin {c.margin:+.4g}")
    _emit("\n".join(lines), config.out)
    return EXIT_OK


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


def _cmd_stability(config: RunConfig) -> int:
    _check_params(config)
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
        _emit(json.dumps(doc, indent=2), config.out)
        return EXIT_OK
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
        _emit("\n".join(lines), config.out)
        return EXIT_OK
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
    _emit("\n".join(lines), config.out)
    return EXIT_OK


def _simulate_one(config: RunConfig, s0: State) -> Trajectory:
    params, variant = config.params(), config.variant()
    settings = config.settings()
    if config.scheme == "nsfd":
        return iterate(params, variant, config.h, s0, config.steps, settings=settings)
    return simulate_continuous(params, variant, s0, config.dt, config.steps, settings, scheme=config.scheme)


def _trajectory_csv(config: RunConfig, s0: State, run: Trajectory) -> str:
    meta = _params_dict(config)
    step_txt = f"h={_fmt(config.h)}" if config.scheme == "nsfd" else f"dt={_fmt(config.dt)}"
    lines = [
        "# nsfd-epi simulate",
        f"# model={config.model} scheme={config.scheme} {step_txt} steps={config.steps} "
        + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
        + f" x0={_fmt(s0.X)} y0={_fmt(s0.Y)}",
        "n,t,X,Y",
    ]
    # Iterating a memoryview yields Python ints and floats one at a time,
    # so no numpy scalar is made per cell and no column is copied to a list.
    rows = zip(
        map(str, memoryview(run.steps)),
        map(repr, memoryview(run.times)),
        map(repr, memoryview(run.states[:, 0])),
        map(repr, memoryview(run.states[:, 1])),
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


def _cmd_simulate(config: RunConfig) -> int:
    _check_params(config)
    points = config.points()
    if len(points) != 1:
        raise ConfigError("simulate takes exactly one initial point; use portrait for several")
    run = _simulate_one(config, points[0])
    if config.format == "json":
        _emit(json.dumps(_trajectory_json(config, points[0], run), indent=2), config.out)
    else:
        _emit(_trajectory_csv(config, points[0], run), config.out)
    return EXIT_OK


def _cmd_portrait(config: RunConfig) -> int:
    _check_params(config)
    points = config.points()
    if config.format != "json" and (config.out is None or config.out == "-"):
        raise ConfigError("portrait with csv output needs --out DIRECTORY; only --format json writes to stdout")
    runs = [(s0, _simulate_one(config, s0)) for s0 in points]
    if config.format == "json":
        doc = {
            "config": config.to_dict(),
            "trajectories": [_trajectory_json(config, s0, run) for s0, run in runs],
        }
        _emit(json.dumps(doc, indent=2), config.out)
        return EXIT_OK
    out_dir = Path(config.out)
    index_lines = ["point,x0,y0,file,verdict,final_X,final_Y"]
    with _writing(config.out):
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, (s0, run) in enumerate(runs, start=1):
            fname = f"trajectory_{i:02d}.csv"
            (out_dir / fname).write_text(_trajectory_csv(config, s0, run) + "\n")
            final = run.final_state
            index_lines.append(
                f"{i},{_fmt(s0.X)},{_fmt(s0.Y)},{fname},{run.verdict.status.value},{_fmt(final.X)},{_fmt(final.Y)}"
            )
        (out_dir / "index.csv").write_text("\n".join(index_lines) + "\n")
    print(f"wrote {len(runs)} trajectories and index.csv to {out_dir}")
    return EXIT_OK


def _cmd_sweep(config: RunConfig) -> int:
    _check_params(config)
    params, variant = config.params(), config.variant()
    h_list = config.h_list or SWEEP_H_LIST
    results = []
    for eq in all_equilibria(params, variant):
        if not eq.exists:
            continue
        results.append(step_size_sweep(params, variant, eq, h_list))
    if config.format == "json":
        doc = {
            "model": variant.value,
            "params": _params_dict(config),
            "h_list": h_list,
            "equilibria": [
                {
                    "kind": res.equilibrium.kind.value,
                    "point": [res.equilibrium.point.X, res.equilibrium.point.Y],
                    "continuous": res.continuous.value,
                    "per_h": [{"h": en.h, "classification": en.classification.value} for en in res.entries],
                    "uniform": res.uniform,
                    "matches_continuous": res.matches_continuous,
                }
                for res in results
            ],
            "all_uniform": all(res.uniform for res in results),
        }
        _emit(json.dumps(doc, indent=2), config.out)
        return EXIT_OK
    if config.format == "csv":
        lines = ["kind,h,classification,continuous,uniform"]
        for res in results:
            for en in res.entries:
                lines.append(
                    f"{res.equilibrium.kind.value},{_fmt(en.h)},{en.classification.value},"
                    f"{res.continuous.value},{int(res.uniform)}"
                )
        _emit("\n".join(lines), config.out)
        return EXIT_OK
    lines = [f"model: {variant.value}  (h: {', '.join(_fmt(h) for h in h_list)})"]
    for res in results:
        flag = "h-independent" if res.uniform else "VARIES WITH h"
        match = "matches continuous" if res.matches_continuous else f"continuous is {res.continuous.value}"
        lines.append(f"  {res.equilibrium.kind.value:17s} {res.entries[0].classification.value:13s} {flag}; {match}")
    _emit("\n".join(lines), config.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
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


# The flags of RunConfig fields take no type=: RunConfig.from_dict reads
# their strings by the rules it reads a config file by.
def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=CHOICES["model"], default=None)
    parser.add_argument("--bx", default=None, help="birth rate of uninfected hosts")
    parser.add_argument("--by", default=None, help="birth rate of infected hosts")
    parser.add_argument("--ux", default=None, help="death rate of uninfected hosts")
    parser.add_argument("--uy", default=None, help="death rate of infected hosts")
    parser.add_argument("--K", default=None, help="carrying capacity")
    parser.add_argument("--e", default=None, help="uninfected-offspring rate of infected hosts")
    parser.add_argument("--beta", default=None, help="horizontal transmission coefficient")
    parser.add_argument(
        "--permissive", action="store_true", default=None, help="downgrade biological-plausibility checks to warnings"
    )
    parser.add_argument("--config", default=None, help="JSON config file; explicit flags override it")
    parser.add_argument("--format", choices=CHOICES["format"], default=None)
    parser.add_argument("--out", default=None, help="output file (or directory for portrait); default stdout")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", choices=CHOICES["scheme"], default=None)
    parser.add_argument("--h", action="append", default=None, help="discrete step size")
    parser.add_argument("--dt", default=None, help="continuous step size")
    parser.add_argument("--x0", action="append", type=number, default=None, help="initial X (repeatable)")
    parser.add_argument("--y0", action="append", type=number, default=None, help="initial Y (repeatable)")
    parser.add_argument("--preset", default=None, help="named initial-point set (e.g. paper-initials)")
    parser.add_argument("--steps", default=None, help="maximum number of steps")
    parser.add_argument("--tol-eq", dest="tol_eq", default=None, help="equilibrium match radius")
    parser.add_argument("--tol-step", dest="tol_step", default=None, help="quiescence threshold")
    parser.add_argument("--window", default=None, help="quiet steps required before declaring convergence")


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later ``main`` in the process.

    Reuse is safe because every default is None and ``parse_args``
    leaves the parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="nsfd-epi",
        description="Host-parasite epidemic models: equilibria, stability, and positivity-preserving simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibria", help="list equilibria with existence conditions and R0")
    _add_param_flags(p_eq)

    p_st = sub.add_parser("stability", help="eigenvalue classification and theorem cross-check per equilibrium")
    _add_param_flags(p_st)
    p_st.add_argument("--h", action="append", default=None, help="discrete step size (repeatable)")

    p_sim = sub.add_parser("simulate", help="run one trajectory and write n,t,X,Y output")
    _add_param_flags(p_sim)
    _add_run_flags(p_sim)

    p_por = sub.add_parser("portrait", help="run several trajectories (phase portrait data)")
    _add_param_flags(p_por)
    _add_run_flags(p_por)

    p_sw = sub.add_parser("sweep", help="discrete classification across step sizes")
    _add_param_flags(p_sw)
    p_sw.add_argument("--h", action="append", default=None, help="step size (repeatable)")

    p_ver = sub.add_parser("verify", help="run the acceptance scenarios; exit 0 iff all pass")
    p_ver.add_argument("--list", action="store_true", help="list scenario checks without running")
    p_ver.add_argument("--only", default=None, help="run only checks whose name contains this substring")
    p_ver.add_argument(
        "--tol-eq",
        dest="tol_eq",
        type=float,
        default=None,
        help="equilibrium match tolerance for convergence scenarios (default 1e-3)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            code = _cmd_verify(args)
        else:
            commands = {
                "equilibria": _cmd_equilibria,
                "stability": _cmd_stability,
                "simulate": _cmd_simulate,
                "portrait": _cmd_portrait,
                "sweep": _cmd_sweep,
            }
            code = commands[args.command](_build_config(args))
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
