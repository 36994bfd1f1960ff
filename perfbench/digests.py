"""sha256 of what the README's commands write, for the byte-identical-output gate.

    python3 perfbench/digests.py           # compare with digests.json; exit 1 on a difference
    python3 perfbench/digests.py --write   # record the current outputs in digests.json

``equilibria`` and ``sweep`` are recorded both as the README writes them
(text) and with ``--format csv``.  Files are digested by name; the
portrait's stdout line names its output directory and is left out.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import Op

RECORD = Path(__file__).resolve().parent / "digests.json"

# README commands; "{out}" is a fresh output path.
COMMANDS = (
    "equilibria --beta 0.3",
    "equilibria --beta 0.3 --format csv",
    "simulate --scheme nsfd --h 0.1 --beta 0.3 --x0 1.2 --y0 0.15 --out {out}/run.csv",
    "simulate --scheme euler --dt 10 --beta 0.3 --x0 0.1 --y0 0.9",
    "portrait --preset paper-initials --scheme rk4 --out {out}/portrait",
    "sweep --beta 0.3",
    "sweep --beta 0.3 --format csv",
)


def digest(cli, command: str, out_dir: Path) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = tuple(command.replace("{out}", str(out_dir)).split())
    outcome = run.run_op(cli, Op("digest", argv), out_dir)
    if outcome.error is not None:
        raise RuntimeError(f"{command} raised:\n{outcome.error}")
    sha = lambda data: hashlib.sha256(data).hexdigest()  # noqa: E731
    entry = {"exit": outcome.rc}
    if "{out}" in command:
        entry["files"] = {
            str(path.relative_to(out_dir)): sha(path.read_bytes()) for path in sorted(out_dir.rglob("*")) if path.is_file()
        }
    else:
        entry["stdout"] = sha(outcome.stdout.encode())
    return entry


def current(cli, out_dir: Path) -> dict:
    return {command: digest(cli, command, out_dir) for command in COMMANDS}


def compare(cli, out_dir: Path) -> list[str]:
    """One line per README command whose output differs from the record."""
    recorded = json.loads(RECORD.read_text())
    now = current(cli, out_dir)
    return [f"{command}: {now[command]} != {recorded.get(command)}" for command in COMMANDS if now[command] != recorded.get(command)]


def main(argv: list[str]) -> int:
    cli = run.load_cli()
    run.SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=run.SCRATCH))
    try:
        if argv == ["--write"]:
            RECORD.write_text(json.dumps(current(cli, work / "out"), indent=2, sort_keys=True) + "\n")
            print(f"recorded {len(COMMANDS)} commands in {RECORD.name}")
            return 0
        mismatches = compare(cli, work / "out")
        for line in mismatches:
            print(line)
        print(f"{len(COMMANDS) - len(mismatches)}/{len(COMMANDS)} README command outputs match {RECORD.name}")
        return 1 if mismatches else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(run.SCRATCH.iterdir()):
            run.SCRATCH.rmdir()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
