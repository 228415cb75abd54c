"""In-process calls into `dulac.cli.main`, with the output checks.

Every call goes through the `main` attribute of the loaded `dulac.cli`
module, so a tracer that rebinds it sees the call.  Reports go to files,
as a user's would, and `verify` re-reads them.  A call fails when it raises
(a traceback; the command line would exit 1), exits 4, exits with another
code than the reference, or writes a report whose sha256 differs from the
reference recorded at the parent commit.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SOLVERS = ("resonance", "normalize", "classify", "integrals", "embed")
EXIT_INVARIANT = 4


class Checkout:
    """Paths of the repository checkout the benchmark runs in."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.fixtures = os.path.join(root, "fixtures")
        self.work = os.path.join(root, ".bench_work")

    def missing(self) -> list[str]:
        need = [os.path.join(self.src, "dulac", "cli.py"), self.fixtures]
        return [p for p in need if not os.path.exists(p)]

    def prepare(self) -> None:
        """Keep every file the run writes inside the checkout: reports under
        .bench_work, and the temp file `verify` writes for its system echo."""
        tmp = os.path.join(self.work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        tempfile.tempdir = tmp
        if self.src not in sys.path:
            sys.path.insert(0, self.src)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def load_dulac_cli():
    """A fresh import of dulac.cli and everything it imports."""
    for name in [m for m in sys.modules if m == "dulac" or m.startswith("dulac.")]:
        del sys.modules[name]
    import dulac.cli

    return dulac.cli


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def input_key(path: str, subcommand: str) -> str:
    """Reference key: the input's content digest and the subcommand."""
    return f"{sha256_file(path)[:16]}/{subcommand}"


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def call(argv: list[str]) -> tuple[float, object, str]:
    """(wall seconds, exit code or "traceback", stderr text) of one CLI call."""
    cli = sys.modules["dulac.cli"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "traceback"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return elapsed, code, err.getvalue()


class Outcome:
    """One solve followed by `verify` on its report, with both checks."""

    __slots__ = ("solve_s", "solve_code", "verify_s", "verify_code", "report", "stderr", "problems")

    def __init__(self):
        self.solve_s = 0.0
        self.solve_code = None
        self.verify_s = None
        self.verify_code = None
        self.report = None
        self.stderr = ""
        self.problems: list[str] = []


def round_trip(co: Checkout, input_path: str, subcommand: str, between=None) -> Outcome:
    """Solve, then verify the report just written.  gc.collect() runs before
    each call, outside its timed region; the collector stays on inside it.
    `between()`, if given, runs after a successful solve, before verify."""
    report = co.path("report.json")
    verified = co.path("verify.json")
    _remove(report)
    _remove(verified)
    out = Outcome()
    gc.collect()
    out.solve_s, out.solve_code, out.stderr = call(
        [subcommand, "--input", input_path, "--output", report]
    )
    if out.solve_code == 0:
        out.report = report
        if between is not None:
            between()
        gc.collect()
        out.verify_s, out.verify_code, out.stderr = call(
            ["verify", "--input", report, "--output", verified]
        )
    return out


def record_entry(co: Checkout, out: Outcome) -> list:
    """[solve exit, report sha256, verify exit, verify-report sha256]."""
    verified = co.path("verify.json")
    return [
        out.solve_code,
        sha256_file(out.report) if out.solve_code == 0 else None,
        out.verify_code,
        sha256_file(verified) if out.verify_code == 0 else None,
    ]


def check(co: Checkout, out: Outcome, expected) -> Outcome:
    """Compare a round trip with its reference entry; fills out.problems."""
    if expected is None:
        out.problems.append("no reference entry for this input")
        return out
    got = record_entry(co, out)
    last_line = (out.stderr.strip().splitlines() or [""])[-1]
    for label, code in (("solve", out.solve_code), ("verify", out.verify_code)):
        if code == "traceback" or code == 1:
            out.problems.append(f"{label} raised a traceback: {last_line}")
        elif code == EXIT_INVARIANT:
            out.problems.append(f"{label} exited 4: {last_line}")
    if got[0] != expected[0]:
        out.problems.append(f"solve exited {got[0]}, expected {expected[0]}")
    elif got[1] != expected[1]:
        out.problems.append("solver report differs from the reference")
    if got[2] != expected[2]:
        out.problems.append(f"verify exited {got[2]}, expected {expected[2]}")
    elif got[3] != expected[3]:
        out.problems.append("verify report differs from the reference")
    return out


def fixture_inputs(co: Checkout) -> list[tuple[str, str]]:
    """(fixture path, subcommand) for every shipped fixture and solver."""
    names = sorted(f for f in os.listdir(co.fixtures) if f.endswith(".json"))
    return [(os.path.join(co.fixtures, f), sub) for f in names for sub in SOLVERS]


def fixture_pass(co: Checkout, reference: dict) -> list[Outcome]:
    """Untimed: every fixture through every solver plus verify, checked for
    exit codes and byte-identical reports."""
    outcomes = []
    for path, sub in fixture_inputs(co):
        out = check(co, round_trip(co, path, sub), reference.get(input_key(path, sub)))
        out.problems = [f"{os.path.basename(path)} {sub}: {p}" for p in out.problems]
        outcomes.append(out)
    return outcomes


# -- machine speed ---------------------------------------------------------------------
#
# A shared host's speed drifts: on a 2-vCPU VM the same call's wall time and
# CPU time both moved by a third within 90 s, in step for every input, which
# is more than any bound a change could be judged by.  So the timed mode runs
# a fixed reference kernel between calls, and rescales each call to
# the speed at which the kernel takes KERNEL_NOMINAL_S.  The kernel is the
# benchmark's own code, so no change to dulac moves it: Fraction sums into a
# dict, like dulac's inner loops, over operands scattered across a few MB, so
# that it feels cache and memory contention as dulac does.  A kernel that
# stays in cache tracked dulac's drift less closely.  The pool is a tuple of
# ints, which the collector does not track, so it adds no work to any
# collection inside a timed call.

KERNEL_NOMINAL_S = 0.01
KERNEL_POOL = 200_000
KERNEL_PICKS = 2500


class SpeedKernel:
    """The reference kernel and its operand pool, built once per run."""

    def __init__(self):
        rng = random.Random("dulac-bench-kernel")
        self.values = tuple(rng.randrange(1000, 1 << 30) for _ in range(KERNEL_POOL))
        self.picks = tuple(rng.randrange(KERNEL_POOL) for _ in range(KERNEL_PICKS))

    def seconds(self) -> float:
        """Wall time of one pass of the kernel, after a collection."""
        values = self.values
        gc.collect()
        t0 = time.perf_counter()
        out: dict = {}
        for i in self.picks:
            a, b = values[i], values[i * 7919 % KERNEL_POOL]
            out[a % 1601] = out.get(a % 1601, 0) + Fraction(a % 51 - 25, 1 + b % 30)
        return time.perf_counter() - t0


def speed_scale(kernel_s: list[float]) -> float:
    """Factor that takes a time measured next to these kernel passes to the
    nominal speed.  The median keeps one preempted pass from counting."""
    return KERNEL_NOMINAL_S / statistics.median(kernel_s)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def write_input(path: str, system: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system, fh, sort_keys=True)
