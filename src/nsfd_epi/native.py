"""A run loop as machine code: the C twin of ``convergence._LOOP`` for one step text.

RK4's step, ``integrators._rk4_step(model.FIELD)``, and the NSFD map's,
``nsfd.RATIO + nsfd.MAP``, are written one statement per line.  A
``Twin`` turns each line into C (``_c_step``: an assignment takes a
``;``, an ``if …:`` a braced C ``if`` with ``||`` and ``&&``, and a
``raise`` a return to Python) and splices the step into ``_C_LOOP``,
which steps and tests as ``_LOOP`` does.  It is built on the first run
that asks for it, once per process, with the compiler Python was built
with (``sysconfig``'s ``CC``) at ``-O2 -fno-fast-math -ffp-contract=off``,
in a private temporary directory, with the compiler's output captured
and a timeout; ``ctypes`` loads the library and the directory is
removed.  The twin is taken only if its canary, a few fixed runs
recorded at every step through each of its returns to Python, matches
the Python loop bit for bit and error for error.  Where it did not
load, and for a run outside its domain, the run takes the Python loop.

The C loop returns to Python wherever ``_LOOP`` would call Python or
Python must see the run: when the run has been quiet for a window
(``ConvergenceMonitor.update``, the proximity test, runs in Python),
when a state leaves the bound (``_refused``), when the step refuses its
state (the twin's ``refused`` raises the Python loop's own error), when
its record buffer is full, and at least every ``CHUNK`` steps, so that
signals and other threads get in.  The first run of a process that has
a twin imports this module and ``ctypes`` and starts the compiler; no
other run and no import does.
"""

from __future__ import annotations

import math
import os
import re
import threading
from array import array
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from .convergence import ConvergenceSettings, Recorded, Verdict, VerdictStatus, _finish, _refused

if TYPE_CHECKING:
    from .convergence import ConvergenceMonitor

# Steps a C call takes at most before it returns to Python, and the doubles its record buffer holds.
CHUNK = 1 << 20
CAPACITY = 1 << 12
# Flags that keep every C operation the IEEE operation Python does: no fused multiply-add, no reordering.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 60
# A run whose step budget reaches this could overflow the loop's 64-bit counters.
BUDGET_LIMIT = 1 << 62
# Why a C call returned: its stop step, a state beyond the bound, a quiet window, a full buffer, a refused state.
STOPPED, LEFT, QUIET, FULL, REFUSED = range(5)

# The twin of convergence._LOOP, its step left open.  c holds the constants, then the bound and
# tol_step; s the state x, y and the state before it, px, py; k the step n, the step to stop at,
# the quiet count, the window, the next recorded step, record_every, the doubles written to out,
# and out's capacity.
_C_LOOP = """\
#include <stdint.h>

int {name}(const double *c, double *s, int64_t *k, double *out)
{{
    const double {constants};
    const double bound = c[{n_constants}], nbound = -c[{n_constants}];
    const double tol = c[{n_constants} + 1], ntol = -c[{n_constants} + 1];
    double x = s[0], y = s[1], px = s[2], py = s[3];
    double {temporaries};
    int64_t n = k[0], quiet = k[2], due = k[4], count = 0;
    const int64_t stop = k[1], window = k[3], every = k[5], capacity = k[7];
    int code = {STOPPED};
    while (n < stop) {{
        n += 1;
        px = x;
        py = y;
{step}
        if (!(nbound <= x && x <= bound && nbound <= y && y <= bound)) {{
            code = {LEFT};
            break;
        }}
        if (ntol < x - px && x - px < tol && ntol < y - py && y - py < tol) {{
            quiet += 1;
            if (quiet >= window) {{
                code = {QUIET};
                break;
            }}
        }} else {{
            quiet = 0;
        }}
        if (n == due) {{
            due += every;
            out[count++] = x;
            out[count++] = y;
            if (count >= capacity) {{
                code = {FULL};
                break;
            }}
        }}
    }}
    s[0] = x;
    s[1] = y;
    s[2] = px;
    s[3] = py;
    k[0] = n;
    k[2] = quiet;
    k[4] = due;
    k[6] = count;
    return code;
}}
"""


class NativeError(Exception):
    """The C twin was not built, did not load, or failed its canary."""


class CanaryMonitor(NamedTuple):
    """A canary run's monitor: ``ConvergenceMonitor``'s fields, and a proximity test that converges from step ``at``.

    It is not a ``ConvergenceMonitor``, so that a tracer that counts that class's tests counts no canary run.
    """

    bound: float
    settings: ConvergenceSettings
    at: int

    def update(self, s: tuple[float, float], step: int) -> Verdict | None:
        return Verdict(VerdictStatus.CONVERGED, at_step=step) if step >= self.at else None


# A canary run: the loop's constants, its monitor, its start and its step budget.
CanaryRun = tuple[tuple[float, ...], CanaryMonitor, tuple[float, float], int]


def compiler() -> list[str] | None:
    """The C compiler Python was built with, as an argv, or None where there is none on PATH."""
    import shlex
    import shutil
    import sysconfig

    argv = shlex.split(sysconfig.get_config_var("CC") or "")
    return argv if argv and shutil.which(argv[0]) else None


def _built(name: str, source: str) -> Any:
    """The C function ``name`` compiled from ``source`` and loaded; NativeError, with the compiler's output, if not."""
    import ctypes
    import subprocess
    import tempfile

    argv = compiler()
    if argv is None:
        raise NativeError("no C compiler found: sysconfig's CC is not set or not on PATH")
    with tempfile.TemporaryDirectory(prefix="nsfd_epi-") as private:
        c_file, library = os.path.join(private, f"{name}.c"), os.path.join(private, f"{name}.so")
        with open(c_file, "w", encoding="utf-8") as out:
            out.write(source)
        command = [*argv, *FLAGS, "-o", library, c_file]
        try:
            done = subprocess.run(
                command, stdin=subprocess.DEVNULL, capture_output=True, text=True, errors="replace",
                timeout=BUILD_TIMEOUT_S, check=False,
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            raise NativeError(f"{command[0]} did not build {name}: {error}") from None
        if done.returncode != 0:
            raise NativeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}{done.stdout}")
        try:
            function = getattr(ctypes.CDLL(library), name)
        except (OSError, AttributeError) as error:
            raise NativeError(f"{library} did not load: {error}") from None
    doubles, counts = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
    function.argtypes = [doubles, doubles, counts, doubles]
    function.restype = ctypes.c_int
    return function


def _c_step(step: str) -> str:
    """The step text as C, line by line, in the loop body.

    An assignment takes a ``;``; ``if …:`` opens a braced C ``if``,
    its ``or`` and ``and`` written ``||`` and ``&&``, which the dedent
    after its block closes; ``raise …`` returns to Python with
    ``REFUSED`` before the step assigns x and y.
    """
    lines: list[str] = []
    depth = 0
    for line in step.splitlines():
        statement = line.lstrip()
        level = (len(line) - len(statement)) // 4
        while depth > level:
            depth -= 1
            lines.append("    " * depth + "}")
        if statement.startswith("if ") and statement.endswith(":"):
            condition = statement[3:-1].replace(" or ", " || ").replace(" and ", " && ")
            lines.append(f"{'    ' * level}if ({condition}) {{")
            depth += 1
        elif statement.startswith("raise "):
            lines.append(f"{'    ' * level}code = {REFUSED}; break;")
        else:
            lines.append(f"{'    ' * level}{statement};")
    lines += ["    " * open_block + "}" for open_block in reversed(range(depth))]
    return "\n".join(f"        {line}" for line in lines)


def _scan(
    twin: Twin, function: Any, values: Sequence[float], monitor: ConvergenceMonitor | CanaryMonitor,
    s0: tuple[float, float], n_limit: int, record_every: int, chunk: int, capacity: int,
) -> Recorded:
    """``_LOOP``'s run through the C ``function`` of ``twin``: at most ``chunk`` steps and ``capacity`` doubles a call."""
    from ctypes import c_double, c_int64

    settings, update = monitor.settings, monitor.update
    # A record_every or a window past the budget is never reached; clamped, the C counters cannot overflow.
    every = min(record_every, n_limit + 1)
    window = math.ceil(min(settings.window, n_limit + 1))
    c = (c_double * (len(values) + 2))(*values, monitor.bound, settings.tol_step)
    s = (c_double * 4)(*s0, *s0)
    k = (c_int64 * 8)(0, 0, 0, window, every, every, 0, capacity)
    buffer = array("d", bytes(8 * capacity))  # the C loop records into it, so a record makes no Python float
    out = (c_double * capacity).from_buffer(buffer)
    states, verdict = array("d", s0), None
    while True:
        k[1] = min(k[0] + chunk, n_limit)
        code = function(c, s, k, out)
        states += buffer[: k[6]]
        n, x, y = k[0], s[0], s[1]
        if code == REFUSED:
            raise twin.refused(s[2], s[3])
        if code == LEFT:
            verdict = _refused(twin.scheme, n, s[2], s[3], x, y)
            break
        if code == QUIET:
            verdict = update((x, y), n)
            if verdict is not None:
                break
            if n == k[4]:  # the record the C loop left for after the proximity test
                k[4] += every
                states.extend((x, y))
        elif code == STOPPED and n == n_limit:
            break
    return _finish(states, n, x, y, verdict, record_every)


def _outcome(run: Callable[[], Recorded]) -> tuple[Any, ...]:
    """A canary run's recorded bits and verdict, or its exception's type and message."""
    try:
        states, verdict = run()
    except Exception as error:  # any refusal at all must be the Python loop's
        return type(error), str(error)
    return array("d", states).tobytes(), verdict


class Twin:
    """The C twin of a run loop, built and checked on its first use.

    ``step`` is the loop's step text, one statement per line (see
    ``_c_step``), in the names ``constants`` lists.  ``domain(values)``
    says whether C computes what Python does at those constants: the
    step may divide only where Python raises no ZeroDivisionError.
    ``refused(px, py)`` is the error the step raises for a state it
    refuses.  ``canary()`` gives the canary's runs.  ``function`` is
    the loaded C loop, or None; ``failure`` says why it did not load,
    or is None where no build was tried.
    """

    def __init__(
        self, name: str, scheme: str, constants: str, step: str, domain: Callable[[Sequence[float]], bool],
        canary: Callable[[], list[CanaryRun]], refused: Callable[[float, float], Exception] | None = None,
    ) -> None:
        names = constants.split(", ")
        temporaries = sorted(set(re.findall(r"^ *(\w+) = ", step, re.MULTILINE)) - {"x", "y"})
        self.name, self.scheme, self.domain, self.canary, self.refused = name, scheme, domain, canary, refused
        self.source = _C_LOOP.format(
            name=name,
            constants=", ".join(f"{constant} = c[{i}]" for i, constant in enumerate(names)),
            n_constants=len(names),
            temporaries=", ".join(temporaries),
            step=_c_step(step),
            STOPPED=STOPPED, LEFT=LEFT, QUIET=QUIET, FULL=FULL,
        )
        self.function: Any = None
        self.failure: str | None = None
        self._lock = threading.Lock()

    def takes(self, values: Sequence[float], n_limit: int, python: Callable[..., Recorded]) -> bool:
        """Whether a run at ``values`` of at most ``n_limit`` steps takes the twin.

        A run takes it where ``values`` lie in its domain, ``n_limit``
        is below ``BUDGET_LIMIT`` and the twin loaded.  The first such
        run builds the twin and runs its canary against ``python``, the
        Python loop of the same step.
        """
        if not (self.domain(values) and n_limit < BUDGET_LIMIT):
            return False
        if self.function is None and self.failure is None:
            self._load(python)
        return self.function is not None

    def __call__(
        self, values: Sequence[float], monitor: ConvergenceMonitor, s0: tuple[float, float], n_limit: int,
        record_every: int,
    ) -> Recorded:
        return _scan(self, self.function, values, monitor, s0, n_limit, record_every, CHUNK, CAPACITY)

    def _load(self, python: Callable[..., Recorded]) -> None:
        with self._lock:
            if self.function is not None or self.failure is not None:
                return
            try:
                function = _built(self.name, self.source)
                for values, monitor, s0, n_limit in self.canary():
                    expected = _outcome(lambda: python(values, monitor, s0, n_limit, 1))
                    # A buffer of 3 rows fills before a chunk of 5 steps ends, and one of 4 after a chunk of 3.
                    for chunk, capacity in (5, 6), (3, 8):
                        native = _outcome(
                            lambda: _scan(self, function, values, monitor, s0, n_limit, 1, chunk, capacity)
                        )
                        if native != expected:
                            raise NativeError(f"canary: the run from {s0!r} at {values!r} differs from the Python loop")
            except (NativeError, OSError) as error:  # OSError: no private directory could be made
                self.failure = str(error)
            else:
                self.function = function
