"""Per-layer tracer installed from outside the package.

Every public function of a dulac layer module is replaced by a wrapper that
records a span: name, start, end, parent span and operation id.  The
wrapper is bound at every site that holds the function, because the modules
import each other's functions by name (`normalizer.compose`,
`integrals.q_rank`, ...): patching `dulac.series.compose` alone would miss
the normalizer's calls.  `ScalarSeries.mul` is a method, so it is wrapped on
the class.  Spans stay in memory in flat arrays and are written once, at the
end; self time is a span's duration minus the time its children cover.

`scalars` gets no spans: its arithmetic runs through operators, so it has no
call boundary on the hot path.  Its cost lands in `series.mul`, which the
summary splits by the operation's `scalars` input property.  The helpers in
SKIP are per-element predicates whose own cost is close to a wrapper's;
spans around them would mostly measure the tracer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from math import comb

LAYERS = ("cli", "normalizer", "series", "linalg", "resonance", "integrals", "embedding")

SKIP = {
    "resonance.is_resonant_map",
    "resonance.is_resonant_field",
    "resonance.transformation_resonant",
    "resonance.lattice_resonant",
    "resonance.homological_divisor",
    "resonance.iter_exponents",
    "resonance.sqrt_value",
    "resonance.value_le",
    "series.grlex_key",
    "series.exp_add",
}

# map and field variants of one stage report under one name
ALIASES = {
    "normalizer.normalize_map": "normalizer.normalize",
    "normalizer.normalize_field": "normalizer.normalize",
    "normalizer.verify_conjugacy_map": "normalizer.verify_conjugacy",
    "normalizer.verify_conjugacy_field": "normalizer.verify_conjugacy",
    "integrals.search_integrals_map": "integrals.search",
    "integrals.search_integrals_field": "integrals.search",
    "integrals.pullback_integrals": "integrals.pullback",
    "integrals.verify_integral_map": "integrals.verify_integral",
    "integrals.verify_integral_field": "integrals.verify_integral",
    "resonance.small_divisor_bound_map": "resonance.small_divisor_bound",
    "resonance.small_divisor_bound_field": "resonance.small_divisor_bound",
}

NO_OP = -1
TOP_SPANS = 6


# -- counters taken at the span boundaries ----------------------------------------


def exponents_scanned(n: int, bound: int) -> int:
    """Exponents enumerate_lattice scans up to degree `bound`: every m >= 0
    with 2 <= |m| <= bound."""
    return comb(bound + n, n) - 1 - n


def _arg(args, kwargs, pos: int, names: tuple[str, ...]):
    """A call's argument by position, or by one of its parameter names."""
    if len(args) > pos:
        return args[pos]
    return next(kwargs[n] for n in names if n in kwargs)


def _count_mul(tr, args, kwargs, result):
    tr.add("series.mul.terms_out", len(result.coeffs))


def _count_row_echelon(tr, args, kwargs, result):
    rows = _arg(args, kwargs, 0, ("rows",))
    tr.add("linalg.row_echelon.cells", len(rows) * (len(rows[0]) if rows else 0))


def _count_search(tr, args, kwargs, result):
    system = _arg(args, kwargs, 0, ("F", "X"))
    degree = _arg(args, kwargs, 1, ("degree",))
    tr.add("integrals.search.columns", comb(system.n + degree, system.n) - 1)
    tr.add("integrals.search.kernel", len(result))


def _count_independence(tr, args, kwargs, result):
    tr.add("integrals.independence_trials", result.trials)


def _count_lattice(tr, args, kwargs, result):
    spec = _arg(args, kwargs, 0, ("spec",))
    bound = _arg(args, kwargs, 1, ("bound",))
    tr.add("resonance.exponents_scanned", exponents_scanned(spec.n, bound))
    tr.add("resonance.exponents_resonant", len(result.exponents))


def _count_verify_bound(tr, args, kwargs, result):
    tr.add("resonance.verify_bound.pairs_checked", result.checked)


COUNTERS = {
    "series.mul": _count_mul,
    "linalg.row_echelon": _count_row_echelon,
    "integrals.search_integrals_map": _count_search,
    "integrals.search_integrals_field": _count_search,
    "integrals.independence_check": _count_independence,
    "resonance.enumerate_lattice": _count_lattice,
    "resonance.verify_bound": _count_verify_bound,
}


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.current = NO_OP
        self.op_id = NO_OP
        self._sites: list[tuple[object, str, object, object]] = []

    def add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, span: str, fn):
        tr = self
        name_id = len(self.names)
        self.names.append(span)
        counter = COUNTERS.get(span)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(name_id)
            tr.parent.append(tr.current)
            tr.op.append(tr.op_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            outer = tr.current
            tr.current = idx
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tr.start[idx] = t0
                tr.end[idx] = t1
                tr.current = outer
            if counter is not None:
                counter(tr, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Bind the wrappers at every site; the first call creates them."""
        if not self._sites:
            self._sites = self._find_sites()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _find_sites(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every public function of
        the layer modules, at every dulac module that binds it, and for
        ScalarSeries.mul on its class."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"dulac.{layer}"]
            for attr, value in vars(mod).items():
                span = f"{layer}.{attr}"
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and span not in SKIP
                ):
                    wrappers[id(value)] = self._wrap(span, value)
        sites = []
        for name, mod in sys.modules.items():
            if name != "dulac" and not name.startswith("dulac."):
                continue
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    sites.append((mod, attr, value, wrappers[id(value)]))
        series_cls = sys.modules["dulac.series"].ScalarSeries
        sites.append((series_cls, "mul", series_cls.mul, self._wrap("series.mul", series_cls.mul)))
        return sites

    # -- offline analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (calls are synchronous, so children never overlap)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p != NO_OP:
                own[p] -= dur[i]
        return own

    def write(self, path: str, ops: list[dict]) -> None:
        """All spans and the operation table, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "ops": ops,
                    "spans": {
                        "name": self.name.tolist(),
                        "parent": self.parent.tolist(),
                        "op": self.op.tolist(),
                        "start": self.start.tolist(),
                        "end": self.end.tolist(),
                    },
                    "counters": self.counters,
                },
                fh,
            )


# -- per-layer metrics ------------------------------------------------------------------

# name -> unit; ".ms" and ".self_ms" are self time summed over the pass
UNITS = {
    "series.compose.ms": "ms",
    "series.compose.calls": "count",
    "series.mul.ms": "ms",
    "series.mul.calls": "count",
    "series.mul.terms_out": "count",
    "series.mul.ms.rational": "ms",
    "series.mul.ms.gaussian": "ms",
    "series.mat_vec.ms": "ms",
    "series.unit_power.ms": "ms",
    "series.invert.ms": "ms",
    "series.invert.calls": "count",
    "series.compose_scalar.ms": "ms",
    "series.compose_scalar.calls": "count",
    "series.det_series.ms": "ms",
    "normalizer.normalize.ms": "ms",
    "normalizer.normalize.calls": "count",
    "normalizer.verify_conjugacy.ms": "ms",
    "normalizer.verify_conjugacy.calls": "count",
    "normalizer.solve_over_verify": "ratio",
    "normalizer.classify.self_ms": "ms",
    "normalizer.check_functional_equations.ms": "ms",
    "linalg.row_echelon.ms": "ms",
    "linalg.row_echelon.calls": "count",
    "linalg.row_echelon.cells": "count",
    "linalg.int_det.calls": "count",
    "integrals.search.ms": "ms",
    "integrals.search.columns": "count",
    "integrals.kernel_frac": "frac",
    "integrals.pullback.ms": "ms",
    "integrals.independence_check.ms": "ms",
    "integrals.independence_trials": "count",
    "integrals.verify_integral.ms": "ms",
    "integrals.verify_integral.calls": "count",
    "resonance.enumerate_lattice.ms": "ms",
    "resonance.enumerate_lattice.calls": "count",
    "resonance.exponents_scanned": "count",
    "resonance.resonant_frac": "frac",
    "resonance.verify_bound.ms": "ms",
    "resonance.verify_bound.pairs_checked": "count",
    "resonance.small_divisor_bound.ms": "ms",
    "embedding.embedding_field.self_ms": "ms",
    "embedding.time_one_map.ms": "ms",
    "embedding.verify_equivariance.ms": "ms",
    "cli.parse_system.ms": "ms",
    "cli.parse_system.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.report_bytes": "bytes",
    "cli.report_coeff_bits.max": "bits",
    **{f"layer.{layer}.self_frac": "frac" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(tr: Tracer) -> dict[str, dict[str, float]]:
    """Self seconds, inclusive seconds and calls per (aliased) span name."""
    own = tr.self_times()
    out: dict[str, dict[str, float]] = {}
    for i, name_id in enumerate(tr.name):
        span = tr.names[name_id]
        row = out.setdefault(ALIASES.get(span, span), {"self": 0.0, "total": 0.0, "calls": 0})
        row["self"] += own[i]
        row["total"] += tr.end[i] - tr.start[i]
        row["calls"] += 1
    return out


def summarize(tr: Tracer, ops: list[dict]) -> dict[str, float]:
    """Every per-layer metric of UNITS except the ones the runner measures
    itself (report sizes, tracing overhead)."""
    rows = aggregate(tr)
    metrics: dict[str, float] = {}
    for name in UNITS:
        base, _, stat = name.rpartition(".")
        if stat in ("ms", "self_ms") and base in rows:
            metrics[name] = rows[base]["self"] * 1e3
        elif stat == "calls" and base in rows:
            metrics[name] = rows[base]["calls"]
        elif name in tr.counters:
            metrics[name] = tr.counters[name]
        else:
            metrics[name] = 0
    c = tr.counters
    metrics["integrals.kernel_frac"] = _ratio(c.get("integrals.search.kernel", 0), c.get("integrals.search.columns", 0))
    metrics["resonance.resonant_frac"] = _ratio(c.get("resonance.exponents_resonant", 0), c.get("resonance.exponents_scanned", 0))

    own = tr.self_times()
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    span_of = [ALIASES.get(tr.names[k], tr.names[k]) for k in tr.name]
    solve = nested = 0.0
    mul = {"rational": 0.0, "gaussian": 0.0}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    roots = 0.0
    for i, span in enumerate(span_of):
        parent = tr.parent[i]
        if parent == NO_OP:
            roots += dur[i]
        if span == "normalizer.normalize":
            solve += dur[i]
        elif span == "normalizer.verify_conjugacy" and parent != NO_OP and span_of[parent] == "normalizer.normalize":
            nested += dur[i]
        elif span == "series.mul":
            mul[ops[tr.op[i]]["scalars"]] += own[i]
        layer_self[span.partition(".")[0]] += own[i]
    metrics["normalizer.solve_over_verify"] = _ratio(solve - nested, nested)
    metrics["series.mul.ms.rational"] = mul["rational"] * 1e3
    metrics["series.mul.ms.gaussian"] = mul["gaussian"] * 1e3
    for layer, seconds in layer_self.items():
        metrics[f"layer.{layer}.self_frac"] = _ratio(seconds, roots)
    metrics["trace.spans"] = len(tr.start)
    return metrics


def top_self(tr: Tracer) -> list[tuple[str, float]]:
    """The TOP_SPANS span names with the largest share of all traced time."""
    rows = aggregate(tr)
    total = sum(r["self"] for r in rows.values())
    ranked = sorted(rows.items(), key=lambda kv: -kv[1]["self"])[:TOP_SPANS]
    return [(name, round(_ratio(r["self"], total), 4)) for name, r in ranked]
