"""Seeded inputs for the benchmark workloads.

A workload is a list of size classes.  A class owns a catalogue of
CATALOGUE systems: entry k is built from the string seed
"<workload>/<class>/<k>", so it is the same on every run and every machine,
and ``reference.json`` can hold the report digests the parent commit gave
for it.  The run seed chooses which entries a batch visits and in which
order; each round of a batch takes one op from every class, and each class
walks its catalogue without replacement, so every batch has the same size
mix whatever the seed.

Systems are written as the JSON the CLI reads.  Planted integrable maps are
built from dulac's public series functions: a normal form
G_j = mu_j y_j (1 + p_j) with 1 + p_j = (1 + w)^(s a_j), conjugated by a few
low-degree nonresonant terms.  The multipliers are mu_j = beta^(a_j) with one
base beta off the unit circle and integer exponents a_j of both signs, so the
resonant lattice {m >= 0 : a.m = 0} has rank n - 1, every pair vector
|a_j| e_i + a_i e_j lies in it, and a spans the kernel of its generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

CATALOGUE = 8

RATIONAL_BASES = (Fraction(2), Fraction(3))
# off the unit circle, with phases on the 1/8-turn grid, so the small-divisor
# bound of a Gaussian spectrum stays exactly representable
GAUSSIAN_BASES = ((1, 1), (0, 2), (-1, 1))
# largest |a_j| of the exponent vector: maps and fields to normalize, and
# the linear systems of `resonance` queries
SERIES_HIGH = 2
LATTICE_HIGH = 3


@dataclass(frozen=True)
class Op:
    """One solver call on one system, followed by `verify` on its report."""

    key: str
    subcommand: str
    system: dict
    props: dict = field(compare=False)


@dataclass(frozen=True)
class SizeClass:
    name: str
    build: object  # build(rng) -> (system dict, input properties)
    subcommands: tuple[str, ...]


# -- exact scalars as JSON ------------------------------------------------------
#
# dulac is imported inside the builders: the runner puts `src` on the path
# and re-imports the package for every set-up, after this module is loaded.


def _q(x) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _scalar_json(z) -> list[int]:
    from dulac.scalars import scalar_to_json

    return scalar_to_json(z)


def _small_rational(rng) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


def _coefficient(rng, gaussian: bool):
    from dulac.scalars import gaussian as mk

    re = _small_rational(rng)
    if gaussian and rng.random() < 0.5:
        return mk(re, _small_rational(rng))
    return re


def _base(rng, gaussian: bool):
    from dulac.scalars import gaussian as mk

    if gaussian:
        return mk(*rng.choice(GAUSSIAN_BASES))
    return rng.choice(RATIONAL_BASES)


def _exponent_vector(rng, n: int, high: int) -> list[int]:
    """Nonzero integers of both signs: a.m = 0 has a rank n-1 solution
    lattice in the nonnegative orthant, reached by degree 2 * high."""
    while True:
        a = [rng.choice([-1, 1]) * rng.randint(1, high) for _ in range(n)]
        if min(a) < 0 < max(a):
            return a


def _pair_vectors(a: list[int]) -> list[tuple[int, ...]]:
    n = len(a)
    out = []
    for i in range(n):
        for j in range(n):
            if a[i] > 0 > a[j]:
                m = [0] * n
                m[i], m[j] = -a[j], a[i]
                out.append(tuple(m))
    return out


def _monomials(n: int, low: int, high: int):
    from dulac.resonance import iter_exponents

    return list(iter_exponents(n, low, high))


def _terms_json(triples) -> list[dict]:
    return [
        {"component": j + 1, "exponent": list(m), "coeff": _scalar_json(c)}
        for j, m, c in triples
    ]


def _system(kind, n, scalars, eigen, triples, D, N) -> dict:
    return {
        "kind": kind,
        "n": n,
        "scalars": scalars,
        "eigen": eigen,
        "terms": _terms_json(triples),
        "degree_D": D,
        "order_N": N,
    }


def _props(system: dict, **extra) -> dict:
    n, N = system["n"], system["order_N"]
    slots = n * len(_monomials(n, 2, N))
    props = {
        "kind": system["kind"],
        "n": n,
        "N": N,
        "D": system["degree_D"],
        "eigen_form": system["eigen"]["form"],
        "scalars": system["scalars"],
        "terms": len(system["terms"]),
        "density": round(len(system["terms"]) / slots, 4) if slots else 0.0,
    }
    props.update(extra)
    return props


# -- system builders -----------------------------------------------------------------


def _dense_terms(rng, n: int, N: int, gaussian: bool, density: float):
    """round(density * slots) monomial slots of degree 2..N, all components."""
    slots = [(j, m) for m in _monomials(n, 2, N) for j in range(n)]
    chosen = sorted(rng.sample(range(len(slots)), round(density * len(slots))))
    return [(*slots[i], _coefficient(rng, gaussian)) for i in chosen]


def dense_map(n: int, N: int, gaussian: bool, density: float):
    """A dense nonlinearity on a resonant rank-(n-1) multiplier spectrum."""

    def build(rng):
        beta = _base(rng, gaussian)
        mu = [beta ** e for e in _exponent_vector(rng, n, SERIES_HIGH)]
        triples = _dense_terms(rng, n, N, gaussian, density)
        scalars = "gaussian" if gaussian else "rational"
        eigen = {"form": "mult-rational", "values": [_scalar_json(v) for v in mu]}
        system = _system("map", n, scalars, eigen, triples, max(N, 2 * SERIES_HIGH), N)
        return system, _props(system, planted=False)

    return build


def dense_field(n: int, N: int, gaussian: bool, density: float):
    """A dense nonlinearity on a resonant additive spectrum lambda = t a."""

    def build(rng):
        a = _exponent_vector(rng, n, SERIES_HIGH)
        t = _base(rng, True) if gaussian else Fraction(rng.choice([1, 2]), rng.choice([1, 3]))
        triples = _dense_terms(rng, n, N, gaussian, density)
        scalars = "gaussian" if gaussian else "rational"
        eigen = {"form": "additive", "values": [_scalar_json(t * e) for e in a]}
        system = _system("field", n, scalars, eigen, triples, max(N, 2 * SERIES_HIGH), N)
        return system, _props(system, planted=False)

    return build


def planted_map(n: int, N: int, gaussian: bool):
    """An integrable map: a product-shape normal form conjugated by a few
    low-degree nonresonant terms."""

    def build(rng):
        from dulac.series import ScalarSeries, VectorSeries, compose, invert, unit_power

        beta = _base(rng, gaussian)
        a = _exponent_vector(rng, n, SERIES_HIGH)
        mu = [beta ** e for e in a]
        lattice = [m for m in _pair_vectors(a) if sum(m) <= N - 1]
        w_terms = {}
        for m in rng.sample(lattice, min(len(lattice), rng.randint(1, 2))):
            w_terms[m] = _coefficient(rng, gaussian)
        w = ScalarSeries(n, N, w_terms)
        s = rng.choice([Fraction(1), Fraction(1, 2), Fraction(-1, 2)])
        G = VectorSeries(
            [
                unit_power(w, a[j] * s, N)
                .mul(ScalarSeries.variable(n, j, N), N)
                .scale(mu[j])
                for j in range(n)
            ]
        )
        nonresonant = [
            (j, m)
            for m in _monomials(n, 2, 3)
            for j in range(n)
            if sum(x * e for x, e in zip(a, m)) != a[j]
        ]
        phi = VectorSeries.from_terms(
            n,
            N,
            [(j, m, _small_rational(rng)) for j, m in rng.sample(nonresonant, rng.randint(1, 3))],
        )
        Phi = VectorSeries.identity(n, N) + phi
        F = compose(Phi, compose(G, invert(Phi, N), N), N)
        nonlinear = (F - VectorSeries.diagonal_linear(mu, N)).strip_low(2)
        triples = [
            (j, m, c) for j, comp in enumerate(nonlinear.components) for m, c in comp.terms()
        ]
        scalars = "gaussian" if gaussian else "rational"
        eigen = {"form": "mult-rational", "values": [_scalar_json(v) for v in mu]}
        system = _system("map", n, scalars, eigen, triples, max(N, 2 * SERIES_HIGH), N)
        return system, _props(system, planted=True)

    return build


def lattice_only(n: int, D: int, form: str, gaussian: bool = False):
    """A linear system for `resonance` queries at degree D."""

    def build(rng):
        a = _exponent_vector(rng, n, LATTICE_HIGH)
        if form == "mult-rational":
            beta = _base(rng, gaussian)
            eigen = {"form": form, "values": [_scalar_json(beta ** e) for e in a]}
        elif form == "mult-base":
            L = rng.choice([2, 4, 8])
            eigen = {
                "form": form,
                "exponents": [_q(e) for e in a],
                "phases": [_q(Fraction(rng.randrange(L), L)) for _ in a],
            }
        else:
            t = _base(rng, True) if gaussian else Fraction(rng.choice([1, 2]), rng.choice([1, 3]))
            eigen = {"form": form, "values": [_scalar_json(t * e) for e in a]}
        kind = "field" if form == "additive" else "map"
        scalars = "gaussian" if gaussian else "rational"
        system = _system(kind, n, scalars, eigen, [], D, 8)
        return system, _props(system, planted=False)

    return build


# -- workloads -----------------------------------------------------------------------

NF = ("normalize", "classify")
PLANTED = ("classify", "embed")

# One class per size, so that entries of a class cost about the same and the
# mix a batch draws does not move its percentiles.  Sizes are staggered so
# that class costs spread evenly around the median: a gap there would make
# the p50 jump between runs.
WORKLOADS: dict[str, tuple[SizeClass, ...]] = {
    "normal-form": (
        SizeClass("map2-rat-N6", dense_map(2, 6, False, 0.7), NF),
        SizeClass("map2-rat-N7", dense_map(2, 7, False, 0.7), NF),
        SizeClass("map2-rat-N8", dense_map(2, 8, False, 0.7), NF),
        SizeClass("map2-gauss-N6", dense_map(2, 6, True, 0.7), NF),
        SizeClass("map2-gauss-N7", dense_map(2, 7, True, 0.7), NF),
        SizeClass("map3-rat-N5", dense_map(3, 5, False, 0.4), NF),
        SizeClass("map3-rat-N6", dense_map(3, 6, False, 0.35), NF),
        SizeClass("map4-rat-N4", dense_map(4, 4, False, 0.5), NF),
        SizeClass("field2-gauss-N6", dense_field(2, 6, True, 0.7), NF),
        SizeClass("field2-gauss-N7", dense_field(2, 7, True, 0.7), NF),
        SizeClass("field3-rat-N5", dense_field(3, 5, False, 0.5), NF),
        SizeClass("field3-rat-N6", dense_field(3, 6, False, 0.4), NF),
        SizeClass("planted2-N8", planted_map(2, 8, False), PLANTED),
        SizeClass("planted2-N10", planted_map(2, 10, False), PLANTED),
        SizeClass("planted2-gauss-N6", planted_map(2, 6, True), PLANTED),
    ),
    "integrals": (
        SizeClass("planted2-N7", planted_map(2, 7, False), ("integrals",)),
        SizeClass("planted2-N8", planted_map(2, 8, False), ("integrals",)),
        SizeClass("planted2-N9", planted_map(2, 9, False), ("integrals",)),
        SizeClass("planted2-gauss-N6", planted_map(2, 6, True), ("integrals",)),
        SizeClass("planted2-gauss-N7", planted_map(2, 7, True), ("integrals",)),
        SizeClass("planted3-N5", planted_map(3, 5, False), ("integrals",)),
        SizeClass("planted3-N6", planted_map(3, 6, False), ("integrals",)),
        SizeClass("planted4-N5", planted_map(4, 5, False), ("integrals",)),
        SizeClass("field2-rat-N6", dense_field(2, 6, False, 0.5), ("integrals",)),
        SizeClass("field2-rat-N7", dense_field(2, 7, False, 0.5), ("integrals",)),
        SizeClass("field2-gauss-N6", dense_field(2, 6, True, 0.5), ("integrals",)),
        SizeClass("field3-rat-N4", dense_field(3, 4, False, 0.5), ("integrals",)),
        SizeClass("field3-gauss-N4", dense_field(3, 4, True, 0.4), ("integrals",)),
    ),
    "lattice": (
        SizeClass("mult2-gauss-D25", lattice_only(2, 25, "mult-rational", True), ("resonance",)),
        SizeClass("mult2-gauss-D35", lattice_only(2, 35, "mult-rational", True), ("resonance",)),
        SizeClass("mult2-gauss-D45", lattice_only(2, 45, "mult-rational", True), ("resonance",)),
        SizeClass("mult3-rat-D10", lattice_only(3, 10, "mult-rational"), ("resonance",)),
        SizeClass("mult3-rat-D14", lattice_only(3, 14, "mult-rational"), ("resonance",)),
        SizeClass("mult3-rat-D18", lattice_only(3, 18, "mult-rational"), ("resonance",)),
        SizeClass("base3-phase-D11", lattice_only(3, 11, "mult-base"), ("resonance",)),
        SizeClass("base3-phase-D15", lattice_only(3, 15, "mult-base"), ("resonance",)),
        SizeClass("base3-phase-D19", lattice_only(3, 19, "mult-base"), ("resonance",)),
        SizeClass("add3-D12", lattice_only(3, 12, "additive"), ("resonance",)),
        SizeClass("add3-D16", lattice_only(3, 16, "additive"), ("resonance",)),
        SizeClass("add3-D20", lattice_only(3, 20, "additive"), ("resonance",)),
        SizeClass("mult4-rat-D7", lattice_only(4, 7, "mult-rational"), ("resonance",)),
        SizeClass("mult4-rat-D9", lattice_only(4, 9, "mult-rational"), ("resonance",)),
        SizeClass("mult4-rat-D10", lattice_only(4, 10, "mult-rational"), ("resonance",)),
    ),
}


def catalogue_entry(workload: str, klass: SizeClass, k: int) -> Op:
    """Entry k of a class: one system and the subcommand it goes through."""
    rng = random.Random(f"{workload}/{klass.name}/{k}")
    system, props = klass.build(rng)
    sub = klass.subcommands[k % len(klass.subcommands)]
    return Op(f"{workload}/{klass.name}/{k}/{sub}", sub, system, props)


def catalogue(workload: str) -> list[Op]:
    """Every op any seed can draw for the workload."""
    return [
        catalogue_entry(workload, klass, k)
        for klass in WORKLOADS[workload]
        for k in range(CATALOGUE)
    ]


def batch(workload: str, seed: int, cycles: int) -> list[Op]:
    """`cycles` rounds of one op per class, each shuffled.  Every class walks
    through seed-shuffled permutations of its catalogue, so a batch visits
    each entry about equally often.  Entries are built once however often
    they recur."""
    rng = random.Random(seed)
    built: dict[tuple[str, int], Op] = {}
    queues: dict[str, list[int]] = {}
    out = []
    for _ in range(cycles):
        round_ = []
        for klass in WORKLOADS[workload]:
            queue = queues.setdefault(klass.name, [])
            if not queue:
                queue.extend(rng.sample(range(CATALOGUE), CATALOGUE))
            k = queue.pop()
            if (klass.name, k) not in built:
                built[(klass.name, k)] = catalogue_entry(workload, klass, k)
            round_.append(built[(klass.name, k)])
        rng.shuffle(round_)
        out.extend(round_)
    return out
