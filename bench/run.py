"""dulac benchmark: seeded solve/verify round trips through `dulac.cli.main`.

Run from the root of a checkout:

    python3 bench/run.py --workload normal-form --seed 1 --seconds 30 --trace 0

One process, one thread, one client, closed loop: each solver call starts
when the previous round trip has ended, and each is followed by `verify` on
the report it just wrote.  The package runs from `src`, uninstalled.

--trace 0 times the round trips for --seconds, and at least until every
catalogue entry has run once, and prints every end-to-end metric.  Each
entry counts once in the percentiles, with its mean over its visits, and each
call is rescaled by a reference kernel timed next to it, because the shared
host's speed drifts by more than any bound (see harness.SpeedKernel).
The raw wall-time medians are in the context line.

--trace 1 runs a fixed list of round trips twice, untraced and then traced,
and prints the per-layer metrics; the list depends only on the workload and
the seed, so the counts repeat exactly.  Both modes check every
report against reference.json and push the shipped fixtures through every
solver and verify, untimed.  The last line of standard output is the result
object; the line before it holds the run's context and counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import harness
import tracer
import workloads

SETUPS = 5
SETUP_KERNELS = 3
TIMED_CYCLES = 60
TRACE_CYCLES = 3

END_TO_END = {
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "verify_ms.p50": "ms",
    "verify_ms.p90": "ms",
    "roundtrips_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up ------------------------------------------------------------------------


def set_up(co, workload: str, seed: int):
    """Import dulac.cli, generate the seeded inputs, run the warm-up op.
    Returns (seconds, [(op, input path)]).  The warm-up op is the same for
    every seed."""
    t0 = time.perf_counter()
    harness.load_dulac_cli()
    ops = workloads.batch(workload, seed, TIMED_CYCLES)
    paths: dict[str, str] = {}
    for op in ops:
        if op.key not in paths:
            paths[op.key] = co.path(f"input-{len(paths)}.json")
            harness.write_input(paths[op.key], op.system)
    warm = workloads.catalogue(workload)[0]
    harness.write_input(co.path("warm-up.json"), warm.system)
    harness.round_trip(co, co.path("warm-up.json"), warm.subcommand)
    return time.perf_counter() - t0, [(op, paths[op.key]) for op in ops]


# -- report counters -----------------------------------------------------------------


def _max_int_bits(node) -> int:
    if isinstance(node, bool):
        return 0
    if isinstance(node, int):
        return abs(node).bit_length()
    if isinstance(node, list):
        return max((_max_int_bits(x) for x in node), default=0)
    if isinstance(node, dict):
        return max((_max_int_bits(x) for x in node.values()), default=0)
    return 0


def report_counters(op, path: str) -> dict:
    """Sizes that tell a speed-up from a change in workload."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    out = {"report_bytes": len(text.encode()), "coeff_bits_max": _max_int_bits(doc)}
    norm = doc.get("normalization") or doc.get("classification", {}).get("normalization")
    if norm:
        out["phi_terms"] = len(norm["phi"])
        out["g_terms"] = len(norm["g"])
    verification = doc.get("bound", {}).get("verification")
    if verification:
        out["pairs_checked"] = verification["pairs_checked"]
    if op.subcommand == "resonance":
        out["exponents_scanned"] = tracer.exponents_scanned(op.props["n"], op.props["D"])
    return out


class Tally:
    """Outcomes of the round trips of one run, timed or not."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict[str, list[int]] = {}

    def add(self, out, label: str) -> None:
        self.attempted += 1
        if out.problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in out.problems]

    def count(self, op, out) -> None:
        if out.report is None:
            return
        for key, value in report_counters(op, out.report).items():
            self.counters.setdefault(key, []).append(value)

    def summary(self) -> dict:
        out = {}
        for key, values in sorted(self.counters.items()):
            if key.endswith("_max"):
                out[key] = max(values)
            else:
                out[f"{key}.mean"] = sum(values) / len(values)
        return out


def run_op(co, reference, op, path, tally: Tally, between=None):
    out = harness.check(
        co,
        harness.round_trip(co, path, op.subcommand, between),
        reference.get(harness.input_key(path, op.subcommand)),
    )
    tally.add(out, op.key)
    tally.count(op, out)
    return out


# -- the two modes ---------------------------------------------------------------------


def _p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, interpolated between order statistics;
    0 when nothing was timed, so the run still reports."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_entry(ms: dict[str, list[float]]) -> list[float]:
    return [statistics.fmean(v) for v in ms.values()]


def timed(co, reference, batch, seconds: float, tally: Tally, kernel) -> dict:
    """Closed loop for `seconds`, and at least until every catalogue entry
    the batch holds has run once.  A sample of the percentiles is one
    entry's mean time over its visits, so every entry counts once and the
    mix does not depend on where the deadline falls.

    Only round trips that pass their checks are timed: a call that fails
    fast must not read as a speed-up.  A kernel pass runs before the first
    call and after every call; each call is rescaled by the median of the
    passes just before and after it and one more on either side."""
    passes = [kernel.seconds()]

    def tick():
        passes.append(kernel.seconds())

    trips = []
    unseen = {op.key for op, _ in batch}
    deadline = time.perf_counter() + seconds
    i = 0
    while unseen or time.perf_counter() < deadline:
        op, path = batch[i % len(batch)]
        i += 1
        unseen.discard(op.key)
        before_solve = len(passes) - 1
        out = run_op(co, reference, op, path, tally, between=tick)
        tick()
        if not out.problems:
            trips.append((before_solve, op.key, out))
    solve, verify, trip, wall_solve, wall_verify = {}, {}, {}, {}, {}
    for k, key, out in trips:
        solve_ms = out.solve_s * harness.speed_scale(passes[max(0, k - 1) : k + 3]) * 1e3
        solve.setdefault(key, []).append(solve_ms)
        wall_solve.setdefault(key, []).append(out.solve_s * 1e3)
        verify_ms = 0.0
        if out.verify_s is not None:
            verify_ms = out.verify_s * harness.speed_scale(passes[k : k + 4]) * 1e3
            verify.setdefault(key, []).append(verify_ms)
            wall_verify.setdefault(key, []).append(out.verify_s * 1e3)
        trip.setdefault(key, []).append(solve_ms + verify_ms)
    solve_p50, solve_p90 = _p50_p90(_per_entry(solve))
    verify_p50, verify_p90 = _p50_p90(_per_entry(verify))
    trip_ms = _per_entry(trip)
    return {
        "solve_ms.p50": solve_p50,
        "solve_ms.p90": solve_p90,
        "verify_ms.p50": verify_p50,
        "verify_ms.p90": verify_p90,
        "roundtrips_per_s": 1e3 / statistics.fmean(trip_ms) if trip_ms else 0.0,
        "samples.solve": len(trips),
        "samples.verify": sum(len(v) for v in verify.values()),
        "samples.entries": len(solve),
        "samples.entries_above_solve_p90": sum(ms > solve_p90 for ms in _per_entry(solve)),
        "wall.solve_ms.p50": _p50_p90(_per_entry(wall_solve))[0],
        "wall.verify_ms.p50": _p50_p90(_per_entry(wall_verify))[0],
        "wall.kernel_ms": [min(passes) * 1e3, statistics.median(passes) * 1e3, max(passes) * 1e3],
    }


def traced(co, reference, batch, workload: str, seed: int, tally: Tally, context: dict) -> dict:
    """Each op of a fixed list runs untraced and traced, alternating which
    goes first, so drift on a shared machine does not enter the overhead."""
    ops = batch[: TRACE_CYCLES * len(workloads.WORKLOADS[workload])]
    tr = tracer.Tracer()
    wall = {False: 0.0, True: 0.0}
    reports = Tally()
    table = []
    for op_id, (op, path) in enumerate(ops):
        table.append({"key": op.key, "subcommand": op.subcommand, **op.props})
        for traced_now in (False, True) if op_id % 2 == 0 else (True, False):
            if traced_now:
                tr.op_id = op_id
                tr.install()
            try:
                out = run_op(co, reference, op, path, tally)
            finally:
                tr.uninstall()
            wall[traced_now] += out.solve_s + (out.verify_s or 0.0)
            if traced_now:
                reports.count(op, out)
    tr.write(co.path(f"trace-{workload}-{seed}.json"), table)
    metrics = tracer.summarize(tr, table)
    metrics["trace.overhead_frac"] = wall[True] / wall[False] - 1.0
    metrics["cli.report_bytes"] = sum(reports.counters.get("report_bytes", [0]))
    metrics["cli.report_coeff_bits.max"] = max(reports.counters.get("coeff_bits_max", [0]))
    context["top_self_time"] = tracer.top_self(tr)
    context["traced_ops"] = len(ops)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    co = harness.Checkout(os.getcwd())
    missing = co.missing()
    if missing:
        print(f"error: run from the root of a dulac checkout; missing {missing}", file=sys.stderr)
        return 2
    co.prepare()
    reference = harness.load_reference()["ops"]
    kernel = harness.SpeedKernel()
    setups, setups_wall = [], []
    for _ in range(SETUPS):
        before = [kernel.seconds() for _ in range(SETUP_KERNELS)]
        seconds, batch = set_up(co, args.workload, args.seed)
        after = [kernel.seconds() for _ in range(SETUP_KERNELS)]
        setups_wall.append(seconds)
        setups.append(seconds * harness.speed_scale(before + after))
    tally = Tally()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_s": setups,
        "wall.setup_s": setups_wall,
    }
    if args.trace:
        metrics = traced(co, reference, batch, args.workload, args.seed, tally, context)
    else:
        metrics = timed(co, reference, batch, args.seconds, tally, kernel)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fixtures = harness.fixture_pass(co, reference)
    for out in fixtures:
        tally.add(out, "fixture")
    if not args.trace:
        metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted
    for problem in tally.problems:
        print(problem, file=sys.stderr)
    context.update(
        round_trips=tally.attempted - len(fixtures),
        fixture_round_trips=len(fixtures),
        counters=tally.summary(),
        problems=tally.problems[:20],
    )
    for key in [k for k in metrics if k.startswith(("samples.", "wall."))]:
        context[key] = metrics.pop(key)
    print(json.dumps({"context": context}, sort_keys=True))
    units = tracer.UNITS if args.trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
