"""File-based front end.

Reads JSON system descriptions (exact rationals only, never decimal floats),
runs the requested pipeline, and emits a deterministic report: identical
inputs and flags produce byte-identical output.  Exit codes: 0 success,
2 malformed input, 3 unmet hypothesis, 4 violated internal invariant
(including tamper detection in `verify`).

Series cross the file boundary as packed integer parts, in both directions.
`_read_terms` validates a JSON term list (the system's terms, a report's
phi and g, its integrals and embedding field), a term of ints in range on a
fast path and any other through `_checked_term`, refuses a term of a degree
past its order before any part is built, and hands the coefficient ints
to `series.ScalarSeries._from_ints`, which packs them; the writers read
reduced ints off the parts (`ScalarSeries.int_terms`), and `_json_text`
writes a list of terms from one template per term shape.  No `Fraction` is
built for a series coefficient between the file read and the report
written.  `verify` has `_read_terms` also decide whether a claimed list is
in written form, the very list the writers would write for the series read;
such a list goes into the rebuilt report as it was read.

`SUBCOMMANDS` names each solver once, with its help line, its solve, which
`main` runs, and its rebuild, which `verify` runs: it rebuilds a report's
body from the claims with the writers the solve uses.  `_report` puts the
envelope around either body.
"""

from __future__ import annotations

import argparse
import functools
import json
import marshal
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd
from operator import mul
from typing import Callable, NamedTuple, NoReturn, Sequence

from . import __version__
from .errors import HypothesisError, InternalInvariantError, SystemFileError
from .embedding import EmbeddingField, embedding_field, time_one_map
from .integrals import (
    independence_check,
    monomial_integrals,
    normal_form_residual,
    pullback_integrals,
    search_integrals,
    verify_integral,
)
from .normalizer import (
    FieldSystem,
    IntegrabilityReport,
    MapSystem,
    NormalizationResult,
    System,
    classify,
    growth_diagnostic,
    normalize,
    verify_conjugacy,
)
from .resonance import (
    EigenSpec,
    LatticeBasis,
    RootValue,
    SmallDivisorBound,
    SymbolicBound,
    enumerate_lattice,
    small_divisor_bound_field,
    small_divisor_bound_map,
    verify_bound,
)
from .scalars import Scalar, check_scalar_json, is_int, scalar_from_json, scalar_to_json
from .series import ScalarSeries, SeriesError, VectorSeries

DEFAULT_LATTICE_BOUND = 10
DEFAULT_ORDER = 8
TIME_ONE_TERMS = 12
# lattice work through degree D scans C(D + n, n) exponents: `resonance` at
# the limit takes 0.6-1.2 s on a 2-vCPU VM, and the cost grows without bound
MAX_LATTICE_EXPONENTS = 20_000
# a series through order N has C(N + n, n) monomials per component.  The
# limit bounds that work, not the time, which follows coefficient growth:
# `normalize` of a dense map (bench.workloads.dense_map, seed
# "scale/n/N/False") at the limit took 8.6 s for n = 2, N = 30, 0.9 s for
# n = 3, N = 12 and 0.4 s for n = 4, N = 8 on a 2-vCPU VM
MAX_ORDER_MONOMIALS = 500

EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_INVARIANT = 4


# -- system files -----------------------------------------------------------------


@dataclass(frozen=True)
class SystemFile:
    kind: str  # "map" | "field"
    n: int
    scalars: str  # "rational" | "gaussian"
    eigen: EigenSpec
    nonlinear: VectorSeries
    lattice_bound: int
    order: int
    # the echo's term list as `verify` read it, when in written form
    terms: list | None = field(default=None, compare=False, repr=False)

    def system(self) -> System:
        return (MapSystem if self.kind == "map" else FieldSystem)(self.eigen, self.nonlinear, self.order)


def _reject_float(value):
    raise SystemFileError(
        f"decimal literal {value!r} is not accepted: write rationals as "
        "integer pairs [numerator, denominator], e.g. [1, 2] for one half"
    )


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(
                fh,
                parse_float=_reject_float,
                parse_constant=_reject_float,
            )
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:
        # int() refuses a decimal literal longer than the interpreter's limit
        raise SystemFileError(
            f"{path}: an integer literal has more than {sys.get_int_max_str_digits()} "
            "digits, the limit of Python's integer parsing"
        ) from exc
    except RecursionError as exc:
        raise SystemFileError(
            f"{path}: JSON nested deeper than Python's recursion limit of {sys.getrecursionlimit()}"
        ) from exc


def _field(doc: dict, name: str, kinds, where: str):
    if name not in doc:
        raise SystemFileError(f"{where}: missing field '{name}'")
    value = doc[name]
    if kinds is not None and not (is_int(value) if kinds is int else isinstance(value, kinds)):
        raise SystemFileError(f"{where}: field '{name}' has the wrong type")
    return value


def _checked_scalar(data, where: str, scalars_tag: str) -> list:
    """data, once it is a scalar as JSON writes one that the file's scalars
    tag admits."""
    try:
        check_scalar_json(data)
    except ValueError as exc:
        raise SystemFileError(f"{where}: {exc}") from exc
    if scalars_tag == "rational" and len(data) == 4:
        raise SystemFileError(
            f"{where}: gaussian coefficient in a file declaring scalars=rational"
        )
    return data


def _scalar_field(data, where: str, scalars_tag: str) -> Scalar:
    return scalar_from_json(_checked_scalar(data, where, scalars_tag))


def _checked_term(term, where: str, n: int, scalars_tag: str, vector: bool) -> tuple:
    """(1-based component, exponent, coefficient ints) of a term object, or
    the error that names the first thing wrong with it."""
    if not isinstance(term, dict):
        raise SystemFileError(f"{where}: each term is an object")
    j = 1
    if vector:
        j = _field(term, "component", int, where)
        if not 1 <= j <= n:
            raise SystemFileError(f"{where}: component {j} out of range 1..{n}")
    expo = _field(term, "exponent", list, where)
    if len(expo) != n or not all(is_int(e) and e >= 0 for e in expo):
        raise SystemFileError(
            f"{where}: exponent must be {n} nonnegative integers"
        )
    return j, expo, _checked_scalar(_field(term, "coeff", list, where), where, scalars_tag)


_INT = {int}


def _read_terms(terms, where: str, n: int, trunc: int, scalars_tag: str = "gaussian",
                vector: bool = True, low: int = 0, claimed: str | None = None, as_read: bool = False):
    """The series of a JSON term list through degree trunc: one per
    component, or one when its terms carry no component.  Every term is
    validated and of degree >= low: one whose entries are all ints in range
    on a fast path, any other through `_checked_term`, which names the first
    bad one; the coefficient ints go into the packed parts as they are
    (`ScalarSeries._from_ints`), summed over a repeated exponent, so no
    scalar is built.  A term above trunc is refused before any part is
    built: in a report's claimed series (`claimed` names it, and trunc is the
    order `verify` checks it at), where nothing would check it, with exit 4;
    in a system's terms, which every solver would drop, with exit 2.

    With as_read, for `verify`, it returns (the series, terms) when terms
    is in written form, exactly the list `_vector_series_json` (or
    `_scalar_series_json`, when vector is false) writes for the series
    read, and (the series, None) otherwise.  A list is in written form when
    each term has exactly the keys coeff, exponent and (vector) component,
    all ints, the terms strictly ascend by (component, degree, exponent),
    and each coefficient is in lowest terms over positive denominators:
    [num, den] with num nonzero, or [re, re_den, im, im_den] with im
    nonzero."""
    if not isinstance(terms, list):
        raise SystemFileError(f"{where}: terms must be a list")
    read: list[list] = [[] for _ in range(n if vector else 1)]
    widths = (2,) if scalars_tag == "rational" else (2, 4)
    keys, written, last = 3 if vector else 2, as_read, ()
    for i, t in enumerate(terms):
        if not (type(t) is dict and type(m := t.get("exponent")) is list and len(m) == n
                and type(c := t.get("coeff")) is list and len(c) in widths
                and type(j := t.get("component") if vector else 1) is int and 1 <= j <= n
                and set(map(type, c + m)) == _INT and c[1] and c[-1] and min(m) >= 0):
            j, m, c = _checked_term(t, f"{where}[{i}]", n, scalars_tag, vector)
            written = False
        d = sum(m)
        if d < low:
            raise SystemFileError(
                f"{where}[{i}]: exponent degree {d} < {low}; constant and linear "
                "terms belong to the eigen data"
            )
        if d > trunc:
            if claimed:
                _fail(f"{claimed} of degree {_shown(d)}, above the verified order {trunc}")
            raise SystemFileError(f"{where}[{i}]: exponent degree {_shown(d)} is above order_N = {trunc}")
        read[j - 1].append((d, m, c))
        if written:
            key = (j, d, m)
            written = (key > last and len(t) == keys and c[-1] > 0 and c[-2] and gcd(c[-2], c[-1]) == 1
                       and (len(c) == 2 or c[1] > 0 and gcd(c[0], c[1]) == 1))
            last = key
    series = [ScalarSeries._from_ints(n, trunc, comp) for comp in read]
    return (series, terms if written else None) if as_read else series


def _int_field(doc: dict, name: str, low: int, where: str) -> int:
    value = _field(doc, name, int, where)
    if value < low:
        raise SystemFileError(f"{where}: field '{name}' must be an integer >= {low}")
    return value


def _lattice_degree(D: int, n: int, what: str) -> int:
    """D itself, once its lattice scan is within MAX_LATTICE_EXPONENTS."""
    return _within(D, n, what, "scan C(D+n, n)", "exponents", MAX_LATTICE_EXPONENTS)


def _series_order(N: int, n: int, what: str) -> int:
    """N itself, once its series are within MAX_ORDER_MONOMIALS; n = 1 counts
    as n = 2, since coefficient growth, not its N + 1 monomials, sets the time."""
    return _within(N, max(n, 2), what, "solve for C(N+n, n), n at least 2,", "monomials per component",
                   MAX_ORDER_MONOMIALS)


def _within(value: int, n: int, what: str, work: str, unit: str, limit: int) -> int:
    # C(m, k) <= m^k is computed and named only when m^k < 2^330: past that
    # it could have millions of digits, and it exceeds 2^16, above either
    # limit (C(m, k) >= 2^k for k >= 17, and m >= 2^20 for k <= 16)
    k, m = min(value, n), value + n
    count = comb(m, k) if k * m.bit_length() <= 330 else None
    if count is None or count > limit:
        size = f"> {limit}" if count is None else f"= {count}"
        raise SystemFileError(
            f"{what} = {_shown(value)} would {work} {size} {unit} for n = {n}, "
            f"over the limit of {limit}"
        )
    return value


def _shown(value: int) -> str:
    """value in decimal, or its size once it has too many digits for
    Python to print (a sum of exponent entries each at the parse limit)."""
    return str(value) if value.bit_length() <= 14_000 else f"a {value.bit_length()}-bit integer"


def parse_system(path: str) -> SystemFile:
    """Load and validate a system description file."""
    return _system_from_doc(_load_json(path), path)


def _system_from_doc(doc, path: str, as_read: bool = False) -> SystemFile:
    """Validate a system description; `path` names it in error messages.
    With as_read, `verify` reading a report's echo, the file keeps its term
    list when that is in written form (`_read_terms`)."""
    if not isinstance(doc, dict):
        raise SystemFileError(f"{path}: top level must be a JSON object")
    kind = _field(doc, "kind", str, path)
    if kind not in ("map", "field"):
        raise SystemFileError(f"{path}: kind must be 'map' or 'field'")
    n = _field(doc, "n", int, path)
    if n < 1:
        raise SystemFileError(f"{path}: dimension n must be >= 1")
    scalars = doc.get("scalars", "rational")
    if scalars not in ("rational", "gaussian"):
        raise SystemFileError(f"{path}: scalars must be 'rational' or 'gaussian'")
    eigen_doc = _field(doc, "eigen", dict, path)
    form = _field(eigen_doc, "form", str, f"{path}:eigen")
    if form == "additive":
        if kind != "field":
            raise SystemFileError(f"{path}: additive eigenvalues need kind=field")
        values = _field(eigen_doc, "values", list, f"{path}:eigen")
        eigen = EigenSpec.additive(
            [_scalar_field(v, f"{path}:eigen.values[{i}]", scalars) for i, v in enumerate(values)]
        )
    elif form == "mult-rational":
        if kind != "map":
            raise SystemFileError(f"{path}: multiplicative eigenvalues need kind=map")
        values = _field(eigen_doc, "values", list, f"{path}:eigen")
        try:
            eigen = EigenSpec.multiplicative(
                [_scalar_field(v, f"{path}:eigen.values[{i}]", scalars) for i, v in enumerate(values)]
            )
        except ValueError as exc:
            raise SystemFileError(f"{path}:eigen: {exc}") from exc
    elif form == "mult-base":
        if kind != "map":
            raise SystemFileError(f"{path}: mult-base eigenvalues need kind=map")
        exps = _field(eigen_doc, "exponents", list, f"{path}:eigen")
        phases = eigen_doc.get("phases")
        if phases is not None and not isinstance(phases, list):
            raise SystemFileError(f"{path}:eigen: field 'phases' has the wrong type")
        def frac(data, where):
            if not (isinstance(data, list) and len(data) == 2 and all(map(is_int, data))):
                raise SystemFileError(f"{where}: rationals are integer pairs [num, den]")
            if data[1] == 0:
                raise SystemFileError(f"{where}: zero denominator")
            return Fraction(data[0], data[1])
        try:
            eigen = EigenSpec.multiplicative_base(
                [frac(a, f"{path}:eigen.exponents[{i}]") for i, a in enumerate(exps)],
                None if phases is None else [frac(b, f"{path}:eigen.phases[{i}]") for i, b in enumerate(phases)],
            )
        except ValueError as exc:
            raise SystemFileError(f"{path}:eigen: {exc}") from exc
    else:
        raise SystemFileError(
            f"{path}: eigen form must be additive, mult-rational or mult-base"
        )
    if eigen.n != n:
        raise SystemFileError(
            f"{path}: eigen data has {eigen.n} entries for dimension {n}"
        )
    lattice_bound = doc.get("degree_D", DEFAULT_LATTICE_BOUND)
    order = doc.get("order_N", DEFAULT_ORDER)
    if not is_int(lattice_bound) or lattice_bound < 2:
        raise SystemFileError(f"{path}: degree_D must be an integer >= 2")
    _lattice_degree(lattice_bound, n, f"{path}: degree_D")
    if not is_int(order) or order < 2:
        raise SystemFileError(f"{path}: order_N must be an integer >= 2")
    _series_order(order, n, f"{path}: order_N")
    terms = doc.get("terms", [])
    if not isinstance(terms, list):
        raise SystemFileError(f"{path}: terms must be a list")
    read = _read_terms(terms, f"{path}:terms", n, order, scalars, low=2, as_read=as_read)
    components, written = read if as_read else (read, None)
    return SystemFile(
        kind=kind, n=n, scalars=scalars, eigen=eigen, nonlinear=VectorSeries(components),
        lattice_bound=lattice_bound, order=order, terms=written,
    )


# -- serialization ------------------------------------------------------------------


# term keys in sorted order, as reports write them, so that `_same` matches
# a claimed term list with its recomputation in one marshalled compare; the
# coefficients are read off the packed parts (`ScalarSeries.int_terms`).
# `as_read` is the claimed list `verify` read the series from, when
# `_read_terms` found it in written form: the very list these would write.
def _scalar_series_json(s: ScalarSeries, as_read: list | None = None) -> list:
    if as_read is not None:
        return as_read
    return [{"coeff": c, "exponent": m} for m, c in s.int_terms()]


def _vector_series_json(v: VectorSeries, as_read: list | None = None) -> list:
    if as_read is not None:
        return as_read
    return [
        {"coeff": c, "component": j, "exponent": m}
        for j, comp in enumerate(v.components, 1) for m, c in comp.int_terms()
    ]


def _eigen_json(spec: EigenSpec) -> dict:
    if spec.kind == "mult-base":
        return {
            "form": "mult-base",
            "exponents": [[a.numerator, a.denominator] for a in spec.exponents],
            "phases": [[b.numerator, b.denominator] for b in spec.phases],
        }
    return {
        "form": "additive" if spec.kind == "additive" else "mult-rational",
        "values": [scalar_to_json(v) for v in spec.values],
    }


def _system_json(sf: SystemFile) -> dict:
    return {
        "kind": sf.kind,
        "n": sf.n,
        "scalars": sf.scalars,
        "eigen": _eigen_json(sf.eigen),
        "terms": _vector_series_json(sf.nonlinear, sf.terms),
        "degree_D": sf.lattice_bound,
        "order_N": sf.order,
    }


def _lattice_json(basis: LatticeBasis) -> dict:
    return {
        "kind": basis.kind,
        "bound": basis.bound,
        "rank": basis.rank,
        "generators": [list(g) for g in basis.generators],
        "non_simple_generators": [list(g) for g in basis.non_simple],
        "span_deficit": basis.span_deficit,
        "resonant_exponents": [list(m) for m in basis.exponents],
    }


def _bound_value_json(value) -> dict:
    if isinstance(value, Fraction):
        return {"type": "rational", "value": [value.numerator, value.denominator]}
    if isinstance(value, RootValue):
        return {
            "type": "sqrt",
            "square": [value.square.numerator, value.square.denominator],
        }
    assert isinstance(value, SymbolicBound)
    return {
        "type": "symbolic",
        "base": None if value.beta is None
        else [value.beta.numerator, value.beta.denominator],
        "terms": [
            {
                "beta_exponent": [t.beta_exp.numerator, t.beta_exp.denominator],
                "kind": t.kind,
                "parameter": [t.param.numerator, t.param.denominator],
            }
            for t in value.terms
        ],
        "description": value.describe(),
    }


def _bound_json(bound: SmallDivisorBound, verification) -> dict:
    cert = {}
    for key, val in bound.certificate.items():
        if isinstance(val, Fraction):
            cert[key] = [val.numerator, val.denominator]
        elif isinstance(val, tuple):
            cert[key] = [
                [x.numerator, x.denominator] if isinstance(x, Fraction) else x
                for x in val
            ]
        elif isinstance(val, dict):
            cert[key] = {str(k): list(v) for k, v in val.items()}
        elif hasattr(val, "describe"):
            cert[key] = val.describe()
        else:
            cert[key] = val
    out = {
        "kind": "sigma" if bound.kind == "map" else "kappa",
        "value": _bound_value_json(bound.value),
        "certificate": cert,
    }
    if verification is not None:
        out["verification"] = {
            "mode": verification.mode,
            "passed": verification.passed,
            "pairs_checked": verification.checked,
            "min_gap": None if verification.min_gap is None
            else _bound_value_json(verification.min_gap),
            # keys in sorted order, as the JSON report writes them, which
            # the text format prints
            "witness": None if verification.witness is None
            else {"component": verification.witness[1] + 1,
                  "exponent": list(verification.witness[0])},
            "failure": None if verification.failure is None
            else {"component": verification.failure[1] + 1,
                  "exponent": list(verification.failure[0])},
        }
    return out


def _normalization_json(result: NormalizationResult, as_read: Sequence = (None, None)) -> dict:
    return {
        "phi": _vector_series_json(result.phi, as_read[0]),
        "g": _vector_series_json(result.g, as_read[1]),
        "order": result.order,
        "residual_zero_through": result.order if result.residual_zero_degrees else None,
    }


def _growth_json(growth) -> dict:
    return {
        "table": [
            [s, [mag.numerator, mag.denominator]] for s, mag in growth.rows
        ],
        "log_slope": None if growth.slope is None else f"{growth.slope:.6f}",
        "ratio": None if growth.ratio is None else f"{growth.ratio:.6f}",
        "super_geometric": growth.super_geometric,
    }


def _classification_json(report: IntegrabilityReport, as_read: Sequence = (None, None)) -> dict:
    out = {
        "verdict": report.verdict,
        "certified_at": {"degree_D": report.lattice_bound, "order_N": report.order},
        "note": (
            "the verdict certifies formal conjugacy through order_N and the "
            "lattice rank through degree_D; analyticity of the transformation "
            "is not decidable on truncations (see the growth diagnostic)"
        ),
        "witness": report.witness,
        "flags": list(report.flags),
        "rank_ok": report.rank_ok,
    }
    if report.lattice is not None:
        out["lattice"] = _lattice_json(report.lattice)
    if report.normalization is not None:
        out["normalization"] = _normalization_json(report.normalization, as_read)
    if report.shape is not None:
        out["shape"] = {
            "ok": report.shape.ok,
            "witness": None if report.shape.witness is None else {
                "component": report.shape.witness[0] + 1,
                "exponent": list(report.shape.witness[1]),
            },
        }
    if report.p is not None:
        out["p"] = [_scalar_series_json(p) for p in report.p]
    if report.h is not None:
        out["h"] = _scalar_series_json(report.h)
    if report.functional_residuals is not None:
        out["functional_equation_residuals_zero"] = [
            r.is_zero() for r in report.functional_residuals
        ]
    if report.reduction is not None:
        out["single_function_reduction"] = {
            "base_component": report.reduction.iota + 1,
            "exponents": [
                [r.numerator, r.denominator] for r in report.reduction.exponents
            ],
            "verified_order": report.reduction.verified_order,
        }
    if report.growth is not None:
        out["growth"] = _growth_json(report.growth)
    return out


# -- subcommand runners ---------------------------------------------------------------


def _run_resonance(sf: SystemFile, D: int, N: int | None = None, seed: int | None = None) -> dict:
    basis = enumerate_lattice(sf.eigen, D)
    section = {"lattice": _lattice_json(basis)}
    flags = []
    if basis.non_simple:
        flags.append("some generators are not simple (no simple element on their ray)")
    if basis.rank_ok:
        try:
            if sf.kind == "map":
                bound = small_divisor_bound_map(sf.eigen, basis)
            else:
                bound = small_divisor_bound_field(sf.eigen, basis)
            verification = verify_bound(sf.eigen, bound, D)
            if not verification.passed:
                raise InternalInvariantError(
                    f"small-divisor bound violated at {verification.failure}"
                )
            section["bound"] = _bound_json(bound, verification)
            if bound.certificate.get("phase_group_order", 1) > 1:
                flags.append(
                    "phase set is nontrivial: the gap uses the full cyclic group "
                    "generated by the phases"
                )
        except HypothesisError as exc:
            section["bound"] = {"status": "not-applicable", "reason": str(exc)}
    else:
        section["bound"] = {
            "status": "not-applicable",
            "reason": f"lattice rank {basis.rank} is not n-1 = {sf.n - 1} at degree {D}",
        }
    section["flags"] = flags
    return section


def _normalize_body(result: NormalizationResult, as_read: Sequence = (None, None)) -> dict:
    """A normalize report's body; `verify` re-derives it from the claimed
    pair, phi and g as read (`_normalization_json`)."""
    return {
        "normalization": _normalization_json(result, as_read),
        "growth": _growth_json(growth_diagnostic(result.phi)),
    }


def _run_normalize(sf: SystemFile, D: int, N: int, seed: int) -> dict:
    return _normalize_body(normalize(sf.system(), N))


def _run_classify(sf: SystemFile, D: int, N: int, seed: int) -> dict:
    report = classify(sf.system(), D, N)
    return {"classification": _classification_json(report)}


def _residual_zero(system, vs: Sequence[ScalarSeries], order: int,
                   normalized: NormalizationResult | None = None) -> list[bool]:
    """Whether each integral's exact residual (W o F - W for a map, <grad W,
    X> for a field) vanishes through the order: carried to the normal form
    through `normalized` when the caller holds the system's normalization
    (`normal_form_residual`, zero exactly when that residual is), else
    summed over the system's own table (`verify_integral`)."""
    if normalized is None:
        return [verify_integral(v, system, order).is_zero() for v in vs]
    return [normal_form_residual(v, normalized, order).is_zero() for v in vs]


def _has_pullback(eigen: EigenSpec, basis: LatticeBasis) -> bool:
    """Whether `integrals` pulls back the lattice monomials."""
    return bool(basis.generators) and eigen.has_exact_values()


def _independence_json(vs: Sequence[ScalarSeries], seed: int) -> dict | None:
    """The independence certificate of a section's integrals; None for an
    empty section, which holds none."""
    if not vs:
        return None
    cert = independence_check(vs, seed=seed)
    return {
        "independent": cert.independent,
        "rank_found": cert.rank_found,
        "witness_point": None if cert.witness is None else [scalar_to_json(x) for x in cert.witness],
        "trials": cert.trials,
    }


def _integrals_body(system, order: int, basis: LatticeBasis, sections: dict,
                    normalized: NormalizationResult | None = None) -> dict:
    """An integrals report's body from each section's integrals, their
    independence JSON and the term lists they were read from (each as
    `_scalar_series_json` takes it; none from a solver); `verify` rebuilds
    it from the claimed ones.  The `residual_zero` flags are checked through
    `normalized`, the system's normalization, when the solve holds one, and
    over the system's own table otherwise, as `verify`, which holds none,
    always checks them (`_residual_zero`)."""
    body = {}
    for name, (vs, independence, as_read) in sections.items():
        sec = body[name] = {
            "integrals": [_scalar_series_json(v, t) for v, t in zip_longest(vs, as_read)],
            "residual_zero": _residual_zero(system, vs, order, normalized),
        }
        if vs:
            sec["independence"] = independence
        if name == "pullback":
            sec["generators"] = [list(g) for g in basis.generators]
    return {"integrals": body}


def _run_integrals(sf: SystemFile, D: int, N: int, seed: int) -> dict:
    system = sf.system()
    basis = enumerate_lattice(sf.eigen, D)
    sections = {"search": search_integrals(system, N)}
    if _has_pullback(sf.eigen, basis):  # the search's own, or made here if it read none
        sections["pullback"] = pullback_integrals(monomial_integrals(basis, trunc=N), system.normalized, N)
    # over exact values from order 2, a section holds an integral only if the
    # search or the pullback read system.normalized, so this makes no new one
    held = sf.eigen.has_exact_values() and system.order >= 2 and any(sections.values())
    return _integrals_body(system, N, basis, {
        name: (vs, _independence_json(vs, seed), ()) for name, vs in sections.items()
    }, system.normalized if held else None)


def _run_embed(sf: SystemFile, D: int, N: int, seed: int) -> dict:
    if sf.kind != "map":
        raise HypothesisError("the embedding construction applies to maps")
    system = sf.system()
    report = classify(system, D, N)
    if report.verdict != "integrable-consistent":
        raise HypothesisError(
            f"embedding needs an integrable map; classification says "
            f"'{report.verdict}'"
            + (f" ({report.witness})" if report.witness else "")
        )
    pulled = pullback_integrals(monomial_integrals(report.lattice, trunc=N), report.normalization, N)
    emb = embedding_field(system, pulled, N - 1)
    phi_one = time_one_map(emb.field, TIME_ONE_TERMS, emb.order)
    return _embedding_body(emb, phi_one == system.full(emb.order).truncate(emb.order))


def _embedding_body(emb: EmbeddingField, time_one_matches: bool, as_read: Sequence = ()) -> dict:
    """An embed report's body; `verify` rebuilds it, field included, from
    the claimed integrals, the term lists they were read from (each as
    `_scalar_series_json` takes it) and the claimed time-one comparison."""
    flags = list(emb.flags)
    if not time_one_matches:
        flags.append(
            "the truncated time-one map of the field differs from the map: the "
            "construction certifies DF*X = X(F), not that F is the time-one flow"
        )
    return {
        "embedding": {
            "field": _vector_series_json(emb.field),
            "order": emb.order,
            "integrals": [_scalar_series_json(v, t) for v, t in zip_longest(emb.integrals, as_read)],
            "tangency_zero": [r.is_zero() for r in emb.tangency_residuals],
            "equivariance_zero": emb.equivariant,
            "time_one_matches_map": time_one_matches,
            "time_one_terms": TIME_ONE_TERMS,
            "flags": flags,
        }
    }


# -- verify (report re-checking) ---------------------------------------------------


def _series_from_json(terms, n: int, trunc: int, where: str, claimed: str) -> tuple[ScalarSeries, list | None]:
    """A claimed series, and terms itself when it is in written form."""
    [s], as_read = _read_terms(terms, where, n, trunc, vector=False, claimed=claimed, as_read=True)
    return s, as_read


def _vector_from_json(terms, n: int, trunc: int, where: str, claimed: str) -> tuple[VectorSeries, list | None]:
    """A claimed vector series, and terms itself when it is in written form."""
    components, as_read = _read_terms(terms, where, n, trunc, claimed=claimed, as_read=True)
    return VectorSeries(components), as_read


def _fail(what: str) -> NoReturn:
    raise InternalInvariantError(f"verification failed: {what}")


def _same(a, b) -> bool:
    """Equal as JSON values, types kept (true is not 1, floats by repr, lists
    and tuples alike); equal marshal v2 bytes (typed, no refs) settle a list,
    and identity a leaf or term list `verify` takes from the claim, however
    deep."""
    if a is b:
        return True
    t = type(a)
    if t is dict:
        return type(b) is dict and a.keys() == b.keys() and all(map(_same, a.values(), map(b.__getitem__, a)))
    if t is list or t is tuple:
        return type(b) in (list, tuple) and len(a) == len(b) and (
            marshal.dumps(a, 2) == marshal.dumps(b, 2) or all(map(_same, a, b)))
    return t is type(b) and (repr(a) == repr(b) if t is float else a == b)


def _require_match(claimed, recomputed, path: str) -> None:
    """Exit 4 unless a report entry (the whole report when path is empty)
    equals its recomputation as JSON (so true is not 1); names the first
    differing key of an object, and so on down through nested objects to
    the deepest one."""
    if _same(claimed, recomputed):
        return
    while isinstance(claimed, dict) and isinstance(recomputed, dict):
        key = next(
            k for k in sorted(set(claimed) | set(recomputed))
            if k not in claimed or k not in recomputed or not _same(claimed[k], recomputed[k])
        )
        path = f"{path}.{key}" if path else key
        claimed, recomputed = claimed.get(key), recomputed.get(key)
    _fail(f"{path} does not match a recomputation")


def _claimed_normalization(sf: SystemFile, system, norm_doc, where: str) -> tuple[NormalizationResult, tuple]:
    """The pair a report claims, with phi's and g's term lists as read
    (`_vector_from_json`), once it is shown to be the distinguished one:
    its conjugacy residual is zero through its order, which the system
    data certifies, phi is nonresonant and g resonant.  Resonance is read
    per component j as one set of packed keys, those of the monomials y^m
    with y^m e_j resonant: of degree 2 through the order, the class of
    value(e_j) (`EigenSpec.resonant_class`), and below it, each tested by
    `EigenSpec.resonant`.  g's keys must lie in the set and phi's miss it;
    when either does not, the first offending monomial is named, phi before
    g, components in order, graded-lex within a component."""
    if not isinstance(norm_doc, dict):
        raise SystemFileError(f"{where}: must be an object")
    order = _series_order(_int_field(norm_doc, "order", 2, where), sf.n, f"{where}.order")
    if order > system.order:
        raise SystemFileError(f"{where}.order: order = {order} exceeds the system's order_N = {system.order}")
    (phi, phi_read), (g, g_read) = (
        _vector_from_json(_field(norm_doc, name, None, where), sf.n, order, f"{where}.{name}", f"{name} has a term")
        for name in ("phi", "g")
    )
    result = NormalizationResult(spec=sf.eigen, phi=phi, g=g, order=order)
    residual = verify_conjugacy(system, result)
    if not residual.is_zero():
        _fail(f"conjugacy residual is nonzero at degree {residual.low_degree()}")
    spec, n = sf.eigen, sf.n
    w = [(order + 1) ** i for i in range(n)]
    lows = [(0,) * n] + [tuple(int(i == k) for i in range(n)) for k in range(n)]
    classes = [{sum(map(mul, m, w)) for m in spec.resonant_class(order, j) + [m for m in lows if spec.resonant(m, j)]}
               for j in range(n)]
    if not all(all(keys.isdisjoint(re) and keys.isdisjoint(im) for _, re, im in p.parts)
               and all(re.keys() <= keys and im.keys() <= keys for _, re, im in q.parts)
               for keys, p, q in zip(classes, phi, g)):
        for name, series, resonant in (("phi", phi, False), ("g", g, True)):
            for j, comp in enumerate(series.components):
                for m in comp.exponents():
                    if spec.resonant(m, j) != resonant:
                        kind = "nonresonant" if resonant else "resonant"
                        _fail(f"{name} carries {kind} monomial {m} in component {j + 1}")
    return replace(result, residual_zero_degrees=tuple(range(2, order + 1))), (phi_read, g_read)


def _rebuild_resonance(doc: dict, sf: SystemFile, system, D: int, N: int, report_path: str) -> tuple:
    where = f"{report_path}:lattice"
    D = _lattice_degree(_int_field(_field(doc, "lattice", dict, report_path), "bound", 2, where), sf.n,
                        f"{where}.bound")
    body = _run_resonance(sf, D)
    return body, D, N, ["lattice", "bound"] if "value" in body["bound"] else ["lattice"]


def _rebuild_normalize(doc: dict, sf: SystemFile, system, D: int, N: int, report_path: str) -> tuple:
    result, as_read = _claimed_normalization(sf, system, doc.get("normalization"), f"{report_path}:normalization")
    return _normalize_body(result, as_read), D, result.order, ["normalization"]


def _rebuild_classify(doc: dict, sf: SystemFile, system, D: int, N: int, report_path: str) -> tuple:
    cls, where = _field(doc, "classification", dict, report_path), f"{report_path}:classification"
    certified, cert_at = _field(cls, "certified_at", dict, where), f"{where}.certified_at"
    D = _lattice_degree(_int_field(certified, "degree_D", 2, cert_at), sf.n, f"{cert_at}.degree_D")
    claimed, as_read = None, (None, None)
    if cls.get("normalization") is not None:
        claimed, as_read = _claimed_normalization(sf, system, cls["normalization"], f"{where}.normalization")
    N = claimed.order if claimed else _series_order(
        _int_field(certified, "order_N", 2, cert_at), sf.n, f"{cert_at}.order_N")
    if cls.get("p") is not None:
        _field(cls, "p", list, where)
    # the distinguished pair is unique, so the whole classification is
    # re-derived from the claimed one
    report = classify(system, D, N, claimed)
    checked = ["classification"] if claimed is None else ["normalization"] + (
        ["functional-equations"] if report.p is not None and report.verdict == "integrable-consistent" else [])
    return {"classification": _classification_json(report, as_read)}, D, N, checked


def _rebuild_integrals(doc: dict, sf: SystemFile, system, D: int, N: int, report_path: str) -> tuple:
    # integrals are invariant through the order they were solved at, and
    # the sections are the ones the lattice at degree_D gives
    at = f"{report_path}:parameters"
    if N > sf.order:
        raise SystemFileError(f"{at}: order_N = {N} exceeds the system's order_N = {sf.order}")
    D = _lattice_degree(D, sf.n, f"{at}.degree_D")
    basis = enumerate_lattice(sf.eigen, D)
    sections = _field(doc, "integrals", dict, report_path)
    names = ["pullback", "search"] if _has_pullback(sf.eigen, basis) else ["search"]
    _require_match(sorted(sections), names, "integrals (its sections)")
    claims = {}
    for name in names:
        sec, where = _field(sections, name, dict, f"{report_path}:integrals"), f"{report_path}:integrals.{name}"
        read = [
            _series_from_json(terms, sf.n, N, f"{where}.integrals[{i}]",
                              f"integral {i + 1} in section '{name}' has a term")
            for i, terms in enumerate(_field(sec, "integrals", list, where))
        ]
        vs = [v for v, _ in read]
        if any(v.is_zero() for v in vs):
            _fail(f"section '{name}' claims a zero integral")
        claims[name] = (vs, sec.get("independence"), [t for _, t in read])
    # the i-th pullback integral is y^(g_i) pulled back: y^(g_i) plus higher terms
    if "pullback" in claims and [v.homogeneous_part(v.low_degree()) for v in claims["pullback"][0]] != [
            ScalarSeries.monomial(sf.n, N, g) for g in basis.generators]:
        _fail("the pullback integrals are not one y^g plus higher terms per lattice generator g, in order")
    return _integrals_body(system, N, basis, claims), D, N, [f"integrals:{name}" for name in names]


def _rebuild_embed(doc: dict, sf: SystemFile, system, D: int, N: int, report_path: str) -> tuple:
    emb, where = _field(doc, "embedding", dict, report_path), f"{report_path}:embedding"
    if sf.kind != "map":
        raise SystemFileError(f"{where}: an embedding belongs to a map system, not a field")
    order = _series_order(_int_field(emb, "order", 1, where), sf.n, f"{where}.order")
    # a malformed field term exits as it is read; the rebuilt field is
    # then compared with the claimed one whole
    _vector_from_json(_field(emb, "field", None, where), sf.n, order, f"{where}.field",
                      "the embedding field has a term")
    read = [
        _series_from_json(t, sf.n, order + 1, f"{where}.integrals[{i}]", "an embedding integral has a term")
        for i, t in enumerate(_field(emb, "integrals", list, where))
    ]
    vs = [v for v, _ in read]
    if len(vs) != sf.n - 1:
        _fail(f"embedding holds {len(vs)} integrals, not n-1 = {sf.n - 1}")
    # the integrals were pulled back at order + 1, which the system data
    # must certify; each is then an integral of the map through it
    if order + 1 > sf.order:
        raise SystemFileError(f"{where}.order: order + 1 = {order + 1} exceeds the system's order_N = {sf.order}")
    if not all(_residual_zero(system, vs, order + 1)):
        _fail("an embedding integral is not an integral of the map")
    time_one_matches = _field(emb, "time_one_matches_map", bool, where)
    body = _embedding_body(embedding_field(system, vs, order), time_one_matches, [t for _, t in read])
    return body, D, order + 1, ["embedding"]


class _Subcommand(NamedTuple):
    help: str
    solve: Callable  # (sf, D, N, seed) -> body
    rebuild: Callable  # (doc, sf, system, D, N, report_path) -> (body, D, N, checked)


# Each solver: its help line, its solve and its rebuild, which `verify`
# runs.  A rebuild reads the report's claims and rebuilds the body with the
# writers the solve uses, and returns the parameters the body holds (the
# claimed ones where it holds none).  The informational leaves, copied from
# the claim and not re-derived: `tool`, `parameters.seed`, the parameters no
# section holds (`degree_D` of normalize and embed reports, `order_N` of
# resonance reports), each integrals section's `independence` and
# `embedding.time_one_matches_map` (which the embedding's flags must agree
# with).  Only private functions go here, so that a public one is still
# looked up in the module when it runs.
SUBCOMMANDS = {
    "resonance": _Subcommand("resonant lattice, rank, and small-divisor bound", _run_resonance, _rebuild_resonance),
    "normalize": _Subcommand("distinguished normalization and normal form", _run_normalize, _rebuild_normalize),
    "classify": _Subcommand("integrability verdict certified at (D, N)", _run_classify, _rebuild_classify),
    "integrals": _Subcommand("search, pull back, and verify first integrals", _run_integrals, _rebuild_integrals),
    "embed": _Subcommand("cross-product embedding field with verification", _run_embed, _rebuild_embed),
}


def _report(tool, sub: str, params: dict | None, system: dict | None, body: dict) -> dict:
    """A report: its envelope (a `verify` report has no parameters or system echo), then the body."""
    report = {"tool": tool, "subcommand": sub, "parameters": params, "system": system, **body}
    if params is None:
        del report["parameters"], report["system"]
    return report


def _run_verify(report_path: str) -> dict:
    """Rebuild the report with the rebuild in `SUBCOMMANDS` its `subcommand`
    names, and compare the two whole, the system echo first: a mismatch
    names the deepest key that differs.  A term list in written form
    (`_read_terms`) goes into the rebuilt report as read."""
    doc = _load_json(report_path)
    if not isinstance(doc, dict) or "system" not in doc:
        raise SystemFileError(f"{report_path}: not a report file (no system echo)")
    sf = _system_from_doc(doc["system"], f"{report_path}:system", as_read=True)
    # the echo is canonical: what was parsed, written back
    _require_match(doc["system"], _system_json(sf), "system")
    system = sf.system()
    params, at = _field(doc, "parameters", dict, report_path), f"{report_path}:parameters"
    # a parameter no section holds is copied, once it is one a solver writes
    D, N = (_int_field(params, key, 2, at) for key in ("degree_D", "order_N"))
    sub, seed = doc.get("subcommand"), _field(params, "seed", int, at)
    if type(sub) is not str or sub not in SUBCOMMANDS:
        *others, last = SUBCOMMANDS
        _fail(f"subcommand names none of {', '.join(others)} and {last}")
    body, D, N, checked = SUBCOMMANDS[sub].rebuild(doc, sf, system, D, N, report_path)
    params = {"degree_D": D, "order_N": N, "seed": seed}
    _require_match(doc, _report(doc.get("tool"), sub, params, doc["system"], body), "")
    return {"verify": {"checked": checked, "all_zero": True}}


# -- rendering ---------------------------------------------------------------------


def _fmt_value(doc: dict) -> str:
    if doc["type"] == "rational":
        n, d = doc["value"]
        return f"{n}/{d}" if d != 1 else str(n)
    if doc["type"] == "sqrt":
        n, d = doc["square"]
        return f"sqrt({n}/{d})" if d != 1 else f"sqrt({n})"
    return doc["description"]


def _fmt_terms(terms: list) -> str:
    if not terms:
        return "0"
    bits = []
    for t in terms:
        c = t["coeff"]
        cs = f"{c[0]}/{c[1]}" if c[1] != 1 else str(c[0])
        if len(c) == 4:
            cs = f"({c[0]}/{c[1]}{'+' if c[2] >= 0 else '-'}{abs(c[2])}/{c[3]}i)"
        mono = "*".join(
            f"y{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(t["exponent"])
            if e
        )
        comp = f"e{t['component']}" if "component" in t else ""
        bits.append(f"{cs}*{mono}{comp}" if mono else f"{cs}{comp}")
    return " + ".join(bits)


def _render_text(report: dict) -> str:
    lines = []

    def emit(line=""):
        lines.append(line)

    emit(f"dulac {report['tool']['version']} - {report['subcommand']}")
    params = report.get("parameters", {})
    if params:
        emit("parameters: " + ", ".join(f"{k}={v}" for k, v in sorted(params.items())))
    if "lattice" in report:
        lat = report["lattice"]
        emit()
        emit(f"resonant lattice (degree <= {lat['bound']}): rank {lat['rank']}")
        emit(f"  generators: {lat['generators']}")
        emit(f"  resonant exponents found: {len(lat['resonant_exponents'])}")
        if lat["non_simple_generators"]:
            emit(f"  non-simple generators: {lat['non_simple_generators']}")
    if "bound" in report:
        b = report["bound"]
        emit()
        if "status" in b:
            emit(f"small-divisor bound: {b['status']} ({b['reason']})")
        else:
            emit(f"small-divisor bound {b['kind']} = {_fmt_value(b['value'])}")
            ver = b.get("verification")
            if ver:
                emit(
                    f"  verification: {'pass' if ver['passed'] else 'FAIL'} "
                    f"({ver['mode']}, {ver['pairs_checked']} pairs)"
                    + (
                        f", minimum gap {_fmt_value(ver['min_gap'])} at "
                        f"{ver['witness']}"
                        if ver.get("min_gap")
                        else ""
                    )
                )
    if "normalization" in report:
        norm = report["normalization"]
        emit()
        emit(f"normalization solved through degree {norm['order']}")
        emit(f"  phi = {_fmt_terms(norm['phi'])}")
        emit(f"  g   = {_fmt_terms(norm['g'])}")
        emit(f"  conjugacy residual exactly zero through degree "
             f"{norm['residual_zero_through']}")
    if "classification" in report:
        cls = report["classification"]
        emit()
        emit(f"verdict: {cls['verdict']} "
             f"(certified at D={cls['certified_at']['degree_D']}, "
             f"N={cls['certified_at']['order_N']})")
        if cls.get("witness"):
            emit(f"  witness: {cls['witness']}")
        if cls.get("lattice"):
            emit(f"  lattice rank {cls['lattice']['rank']} with generators "
                 f"{cls['lattice']['generators']}")
        if cls.get("normalization"):
            norm = cls["normalization"]
            emit(f"  phi has {len(norm['phi'])} terms, g has {len(norm['g'])} terms; "
                 f"conjugacy residual exactly zero through degree "
                 f"{norm['residual_zero_through']}")
        if cls.get("functional_equation_residuals_zero") is not None:
            emit(f"  functional-equation residuals zero: "
                 f"{all(cls['functional_equation_residuals_zero'])}")
        if cls.get("h") is not None:
            emit(f"  common factor h = {_fmt_terms(cls['h'])}")
        if cls.get("single_function_reduction"):
            red = cls["single_function_reduction"]
            exps = ", ".join(f"{n}/{d}" if d != 1 else str(n) for n, d in red["exponents"])
            emit(f"  unit powers of base component {red['base_component']}: ({exps})")
    if "integrals" in report:
        ints = report["integrals"]
        emit()
        for name in ("search", "pullback"):
            if name not in ints:
                continue
            sec = ints[name]
            emit(f"{name}: {len(sec['integrals'])} integrals, residuals zero: "
                 f"{all(sec['residual_zero']) if sec['residual_zero'] else 'n/a'}")
            for terms in sec["integrals"]:
                emit(f"  {_fmt_terms(terms)}")
            ind = sec.get("independence")
            if ind:
                emit(f"  independence: "
                     f"{'certified' if ind['independent'] else 'not certified'} "
                     f"(rank {ind['rank_found']}, trials {ind['trials']})")
    if "embedding" in report:
        emb = report["embedding"]
        emit()
        emit(f"embedding field (degree {emb['order']}): {_fmt_terms(emb['field'])}")
        emit(f"  tangency residuals zero: {all(emb['tangency_zero'])}")
        emit(f"  intertwining DF*X - X(F) zero: {emb['equivariance_zero']}")
        emit(f"  time-one map matches the map: {emb['time_one_matches_map']}")
    if "verify" in report:
        emit()
        emit(f"verified sections: {', '.join(report['verify']['checked'])}")
        emit("all exact claims reproduced")
    for flags_holder in (report, report.get("classification", {}),
                         report.get("embedding", {})):
        if isinstance(flags_holder, dict) and flags_holder.get("flags"):
            emit()
            for flag in flags_holder["flags"]:
                emit(f"note: {flag}")
    if "growth" in report and report["growth"]:
        g = report["growth"]
        emit()
        emit(f"growth diagnostic (advisory): slope {g['log_slope']}, "
             f"ratio {g['ratio']}, super-geometric: {g['super_geometric']}")
    return "\n".join(lines) + "\n"


_ESCAPE = json.encoder.encode_basestring_ascii
_TERM_KEYS = ({"coeff", "exponent"}, {"coeff", "component", "exponent"})


def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for
    values whose objects have string keys.  The standard encoder runs in pure
    Python whenever indent is set; this one joins each container's items in
    one call, writes a list of series terms from one template per term shape
    (`_terms_text`), and leaves only scalars other than ints and strings to
    json."""
    t = type(value)
    if t is int:
        return int.__repr__(value)
    if t is str:
        return _ESCAPE(value)
    inner = pad + "  "
    if t is list and value and type(value[0]) is dict and (text := _terms_text(value, pad)) is not None:
        return text
    if isinstance(value, (list, tuple)) and value:
        items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict) and value:
        items = [_ESCAPE(k) + ": " + _json_text(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(value)  # empty containers, None, bools and floats


def _terms_text(terms: list, pad: str) -> str | None:
    """`_json_text` of a list of series terms, objects of an int `component`
    and nonempty int lists `coeff` and `exponent`, each written by one `%`
    template per (exponent length, coefficient length, has a component),
    built for this list; None when an item is not such a term."""
    inner, field = pad + "  ", pad + "    "
    sep = ",\n" + field + "  "
    templates: dict[tuple, str] = {}
    items = []
    for term in terms:
        if type(term) is not dict or term.keys() not in _TERM_KEYS:
            return None
        c, m, j = term["coeff"], term["exponent"], term.get("component", 0)
        if not (type(c) is type(m) is list and c and m and type(j) is int and set(map(type, c + m)) == _INT):
            return None
        shape = (len(m), len(c), len(term) == 3)
        template = templates.get(shape)
        if template is None:
            ints = ["[\n" + field + "  " + sep.join(["%d"] * k) + "\n" + field + "]" for k in shape[:2]]
            comp = '"component": %d,\n' + field if shape[2] else ""
            template = templates[shape] = (
                "{\n" + field + '"coeff": ' + ints[1] + ",\n" + field + comp + '"exponent": ' + ints[0] + "\n" + inner + "}")
        items.append(template % ((*c, j, *m) if shape[2] else (*c, *m)))
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _emit(report: dict, args) -> None:
    """Write the report, rendered whole first so that a report that cannot
    be written leaves no partial output file."""
    try:
        if args.format == "json":
            text = _json_text(report) + "\n"
        else:
            text = _render_text(report)
    except ValueError as exc:
        # int -> str refuses integers longer than the interpreter's limit
        raise HypothesisError(
            f"the report holds an integer of more than {sys.get_int_max_str_digits()} "
            "digits, which cannot be written out; lower --order or scale the input"
        ) from exc
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemFileError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# -- entry point --------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="dulac",
        description=(
            "Exact normal forms, resonant lattices, integrability verdicts, "
            "first integrals and embedding fields for local maps and vector "
            "fields. All computations are exact; reports are deterministic."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {name: entry.help for name, entry in SUBCOMMANDS.items()}
    for name, help_text in {**helps, "verify": "re-check the exact claims of an emitted report"}.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="system file (or report for verify)")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--degree", type=int, help="lattice enumeration bound D")
        p.add_argument("--order", type=int, help="normalization order N")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0, help="independence sampling seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "verify":
            body, params, system = _run_verify(args.input), None, None
        else:
            sf = parse_system(args.input)
            D = args.degree if args.degree is not None else sf.lattice_bound
            N = args.order if args.order is not None else sf.order
            for flag, value in (("--degree", D), ("--order", N)):
                if value < 2:
                    raise SystemFileError(f"{flag} must be an integer >= 2, got {value}")
            _lattice_degree(D, sf.n, "--degree")
            _series_order(N, sf.n, "--order")
            body = SUBCOMMANDS[args.subcommand].solve(sf, D, N, args.seed)
            params, system = {"degree_D": D, "order_N": N, "seed": args.seed}, _system_json(sf)
        _emit(_report({"name": "dulac", "version": __version__}, args.subcommand, params, system, body), args)
        return 0
    except SystemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (InternalInvariantError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
