"""Distinguished normalization and integrability classification.

A system is a diagonal linear part (given by its exact eigenvalues) plus a
nonlinear series starting at degree two: a `MapSystem` (multiplicative
eigenvalues) or a `FieldSystem` (additive ones), the two kinds of one
`System` type.  Each operation has one entry point for both kinds
(`normalize`, `verify_conjugacy`, `classify`).  One solver loop serves maps
and fields: it walks the degrees from two upward, and at degree s the
right-hand side [f(y + phi(y))]_s minus a correction term ([phi(B y +
g(y))]_s for maps, [Dphi(y) g(y)]_s for fields) needs phi and g only below
degree s.  The powers of y + phi (and of B y + g) therefore grow online, one
homogeneous degree per step, in the composition engine of `series`, and each
degree-s part is computed once (a field's Dphi g, the derivative of phi
along g, by the pairs of `series.lie_derivative`).  The linear parts of the
tables are diagonal, y and B y, so each first part [Phi^m]_|m| = y^m and
[(B y + g)^m]_|m| = mu^m y^m is a monomial, and f_s enters [f(y + phi(y))]_s
as one part.  A term whose exact homological divisor (mu^m - mu_j for maps,
<m, lambda> - lambda_j for fields) is zero is resonant and goes to the
normal form; every other term is divided through and goes to the
normalization.  Each degree's right-hand side, its split and its division
stay packed, the division in ints over `EigenSpec.table`'s triples by
`series._divided` (the one term-wise division, which also divides each g_j
by v_j for the shape and common-factor extraction), and each finished part
becomes a part of the result as it is, since a series stores packed parts
too.  The normalization thus contains only nonresonant monomials, the
normal form only resonant ones, and the pair is unique; exact conjugacy of
the output is re-verified, summed afresh through the loop's own power
tables (the top degree of each composition one part: f_s as it is, a map's
phi_s scaled by mu^m), and recorded, never assumed; the table of Phi's
powers stays with the result, and the integrals are pulled back through it
(`series.Powers.pull`).  A system's own normalization at its order,
`System.normalized`, also keeps the loop's table of G: the integral search
reads it and pulls its kernel back through Phi's, and the `integrals` run
checks each integral's residual through both.  `verify` checks a
claimed pair through tables it builds from that pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import exp, gcd, inf, log
from typing import Optional, Sequence

from .errors import HypothesisError, InternalInvariantError
from .linalg import primitive_integer_kernel
from .resonance import EigenSpec, LatticeBasis, enumerate_lattice
from .scalars import sc_abs2
from .series import (
    Exponent,
    Powers,
    ScalarSeries,
    VectorSeries,
    _ZERO,
    _divided,
    _gradients,
    _lie_pairs,
    _pairs,
    _products,
    _reduced,
    _rekeyed,
    unit_power,
)


# -- systems -------------------------------------------------------------------


@dataclass(frozen=True)
class System:
    """A diagonal linear part diag(spec.values) plus a nonlinear series from
    degree two, through `order` (default: the series' own truncation).  Only
    its two kinds are built: a MapSystem or a FieldSystem."""

    spec: EigenSpec
    nonlinear: VectorSeries
    order: Optional[int] = None

    def __post_init__(self):
        if type(self) is System:
            raise TypeError("a system is built as a MapSystem or a FieldSystem")
        f = self.nonlinear
        if self.spec.n != f.n:
            raise ValueError("eigenvalue tuple and nonlinear part disagree on dimension")
        for j, comp in enumerate(f.components):
            if 0 <= comp.low_degree() < 2:
                raise ValueError(
                    f"nonlinear part has a term of degree {comp.low_degree()} in component "
                    f"{j + 1}; constant and linear terms belong to the linear part"
                )
        order = f.trunc if self.order is None else self.order
        object.__setattr__(self, "nonlinear", f.with_trunc(order))
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return self.spec.n

    def linear(self, trunc: int | None = None) -> VectorSeries:
        if not self.spec.has_exact_values():
            raise HypothesisError(
                "the linear part is not exactly representable for a formal base"
            )
        return VectorSeries.diagonal_linear(self.spec.values, self.order if trunc is None else trunc)

    def full(self, trunc: int | None = None) -> VectorSeries:
        """The whole system, linear part included: B x + f(x) or A x + f(x)."""
        t = self.order if trunc is None else trunc
        return self.linear(t) + (self.nonlinear.truncate(t) if t <= self.order else self.nonlinear.with_trunc(t))

    @cached_property
    def powers(self) -> Powers:
        """The one table of powers of `full()` (not a field, like
        EigenSpec.table); a field's loops read only its parts, parts[i][d]
        the degree-d part of X_i."""
        return Powers.of(self.full(), self.order)

    @cached_property
    def normalized(self) -> NormalizationResult:
        """`normalize` at the order, made once for the integral search, the
        integrals' pullback and their residuals; unlike `normalize`'s own
        result, it keeps the degree loop's table of the normal form as its
        `normal_form_powers`, which the search and the residuals read."""
        result, Q = _normalize(self, None)
        object.__setattr__(result, "normal_form_powers", Q)
        return result


class MapSystem(System):
    """A local diffeomorphism x -> B x + f(x) with diagonal B = diag(mu)."""

    def __post_init__(self):
        if not self.spec.is_multiplicative():
            raise ValueError("a map system needs multiplicative eigenvalues")
        super().__post_init__()


class FieldSystem(System):
    """A vector field x' = A x + f(x) with diagonal A = diag(lambda)."""

    def __post_init__(self):
        if self.spec.kind != "additive":
            raise ValueError("a field system needs additive eigenvalues")
        super().__post_init__()


# -- normalization result --------------------------------------------------------


@dataclass(frozen=True)
class NormalizationResult:
    """The distinguished pair (phi, g): x = y + phi(y) conjugates the system
    to its normal form with nonlinear part g.  phi holds only nonresonant
    monomials, g only resonant ones, and the recorded residual degrees all
    checked exactly zero when the solver produced this object."""

    spec: EigenSpec
    phi: VectorSeries
    g: VectorSeries
    order: int
    residual_zero_degrees: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return self.phi.n

    def normalization(self) -> VectorSeries:
        """The full change of coordinates x = y + phi(y)."""
        return VectorSeries.identity(self.n, self.order) + self.phi

    @cached_property
    def powers(self) -> Powers:
        """The table of powers of `normalization()` through the order, which
        the integrals pull back through; `normalize` sets its degree loop's
        own table here, and a claimed pair builds one on first use."""
        return Powers.of(self.normalization(), self.order)

    @cached_property
    def normal_form_powers(self) -> Powers:
        """The table of powers of `normal_form()` through the order, which
        the integral search reads; `System.normalized` sets its degree
        loop's own table here, and any other result builds one on first
        use."""
        return Powers.of(self.normal_form(), self.order)

    def normal_form(self) -> VectorSeries:
        """The full normal form, linear part included (exact eigenvalues only)."""
        return VectorSeries.diagonal_linear(self.spec.values, self.order) + self.g


def _require_exact_eigenvalues(spec: EigenSpec):
    if not spec.has_exact_values():
        raise HypothesisError(
            "normalization needs eigenvalues in the coefficient field "
            "(rational or Gaussian rational); a formal-base spec supports "
            "resonance and bound queries only"
        )


def _split_degree(spec: EigenSpec, rhs: list[tuple], P: Powers) -> tuple[list[tuple], list[tuple]]:
    """Split a degree's packed right-hand side, keyed as in P, into normal-form
    terms (divisor zero, i.e. resonant) and transformation terms (divided by
    the divisor), both packed.  In ints: the divisor of y^m e_j is value(m) -
    value(e_j) = (u + iv) / w over `EigenSpec.table`'s triples, and the
    division is `series._divided`."""
    values = spec.table
    g_s: list[tuple] = []
    phi_s: list[tuple] = []
    for j, (den, re, im) in enumerate(rhs):
        xj, yj, dj = values[tuple(int(i == j) for i in range(P.n))]
        resonant, quotients = [], []
        for k in re.keys() | im.keys() if im else re:
            x, y, d = values[P.exponent(k)]
            u, v = x * dj - xj * d, y * dj - yj * d
            if u or v:
                quotients.append((k, re.get(k, 0), im.get(k, 0), u, v, d * dj))
            else:
                resonant.append(k)
        g_s.append(_reduced(den, {k: re[k] for k in resonant if k in re}, {k: im[k] for k in resonant if k in im}))
        phi_s.append(_divided(den, quotients))
    return g_s, phi_s


def _solve(system: System, order: int | None) -> tuple[NormalizationResult, Powers, Powers]:
    """The degree loop shared by maps and fields (see the module docstring),
    through `order` (default: the system's order).  Also returns its tables:
    P of Phi = y + phi, and Q of the normal form By + g (lambda y + g for a
    field, whose loop reads only Q's parts)."""
    N = system.order if order is None else order
    if N < 2:
        raise ValueError("normalization order must be >= 2")
    if N > system.nonlinear.trunc:
        raise HypothesisError(
            f"system data certified to degree {system.nonlinear.trunc} cannot be "
            f"normalized to degree {N}"
        )
    spec = system.spec
    n = system.n
    is_map = isinstance(system, MapSystem)
    P = Powers(VectorSeries.identity(n, N), N, 1)
    Q = Powers(system.linear(N), N, 1)
    f = [c.parts for c in system.nonlinear.truncate(N)]
    dP: list[dict] = [] if is_map else [{} for _ in range(n)]  # a field's -Dphi, each part of phi differentiated once
    for s in range(2, N + 1):
        if is_map:  # phi(B y + g), phi below degree s
            corr = [_pairs(col, Q, s, 2, -1) for col in P.parts]
        else:  # Dphi(y) g(y), both below degree s
            corr = [_lie_pairs(grads, Q.parts, s, 2) for grads in dP]
        rhs = [_products(_pairs(comp, P, s, 2) + c) for comp, c in zip(f, corr)]
        g_s, phi_s = _split_degree(spec, rhs, P)
        P.extend(phi_s)
        Q.extend(g_s)
        for grads, part in zip(dP, phi_s):
            grads.update(_gradients([(s, part)], P.weights, P.base, -1))
    phi, g = (VectorSeries([ScalarSeries._make(n, N, [_ZERO, _ZERO] + col[2:]) for col in T.parts]) for T in (P, Q))
    return NormalizationResult(spec=spec, phi=phi, g=g, order=N), P, Q


def normalize(system: System, order: int | None = None) -> NormalizationResult:
    """Distinguished normalization of a map or field, degree by degree.

    For a map it solves phi(B y) - B phi(y) + g(y) = [f(y + phi(y)) -
    phi(B y + g(y))]_s, for a field Dphi(y) A y - A phi(y) + g(y) =
    [f(y + phi(y)) - Dphi(y) g(y)]_s, at each degree s (phi holding the lower
    degrees on the right), with g collecting the resonant part and phi the
    nonresonant part.  The conjugacy of the output (F o Phi = Phi o G, or
    DPhi * G = X o Phi) is verified exactly, through the loop's own tables,
    and the table of Phi's powers stays with the result as its `powers`.
    """
    return _normalize(system, order)[0]


def _normalize(system: System, order: int | None) -> tuple[NormalizationResult, Powers]:
    """`normalize`, and the degree loop's table of the normal form."""
    _require_exact_eigenvalues(system.spec)
    result, P, Q = _solve(system, order)
    residual = _residual(system, P, Q)
    if not residual.is_zero():
        raise InternalInvariantError(
            f"normalization left a nonzero conjugacy residual at degree {residual.low_degree()}"
        )
    result = replace(result, residual_zero_degrees=tuple(range(2, result.order + 1)))
    object.__setattr__(result, "powers", P)  # `replace` copies no cached table
    return result, Q


def _residual(system: System, P: Powers, Q: Powers) -> VectorSeries:
    """The exact conjugacy residual through the tables' degree N, given P,
    the powers of Phi = y + phi, and Q, those of the normal form G: F o Phi -
    Phi o G for a map, DPhi * G - (A + f) o Phi for a field.  Each degree of
    each component is one packed sum, kept as that part of the residual; the
    compositions read the tables' caches, so a table the degree loop filled
    is not filled again.  On diagonal tables, as the loop's are, the top
    degree of each composition is one part: the degree-s part of F (or of A
    + f) as it is through Phi, and a map's phi_s scaled by mu^m through the
    normal form."""
    N = P.base - 1
    outer = [c.parts for c in system.full(N)]
    dP = None if isinstance(system, MapSystem) else [_gradients(enumerate(col), P.weights, P.base) for col in P.parts]
    parts: list[list[tuple]] = [[_ZERO] for _ in outer]
    for s in range(1, N + 1):
        if dP is None:
            sums = [_pairs(o, P, s) + _pairs(col, Q, s, 1, -1) for o, col in zip(outer, P.parts)]
        else:
            sums = [_lie_pairs(grads, Q.parts, s) + _pairs(o, P, s, 1, -1) for o, grads in zip(outer, dP)]
        for col, pairs in zip(parts, sums):
            col.append(_products(pairs))
    return VectorSeries([ScalarSeries._make(P.n, N, col) for col in parts])


def verify_conjugacy(system: System, result: NormalizationResult) -> VectorSeries:
    """Exact conjugacy residual through the solved order, F o Phi - Phi o G
    for a map or DPhi * G - (A + f) o Phi for a field (zero iff the pair
    conjugates the system to the normal form), through tables built from the
    claimed pair alone."""
    N = result.order
    return _residual(system, Powers.of(result.normalization(), N), Powers.of(result.normal_form(), N))


# -- structure of integrable normal forms ---------------------------------------


@dataclass(frozen=True)
class ShapeResult:
    """Outcome of factoring each normal-form component as mu_j y_j (1 + p_j)."""

    ok: bool
    p: Optional[tuple[ScalarSeries, ...]] = None
    witness: Optional[tuple[int, Exponent]] = None  # component, offending monomial

    def describe(self) -> str:
        if self.ok:
            return "each component divisible by its own coordinate"
        j, m = self.witness
        return f"component {j + 1} contains monomial {m} not divisible by y{j + 1}"


def _over_own_coordinate(result: NormalizationResult, j: int) -> tuple[Optional[Exponent], Optional[ScalarSeries]]:
    """g_j / (v_j y_j) through order N - 1, as (None, quotient), or (m, None)
    with m the first monomial of g_j that v_j y_j does not divide (any term
    when the eigenvalue v_j is zero).  The quotient is taken part by part:
    each key drops e_j and each term is divided by v_j, `EigenSpec.table`'s
    triple for e_j (`series._divided`)."""
    N, g = result.order, result.g.components[j]
    v = result.spec.table[tuple(int(i == j) for i in range(result.n))]
    m = next((m for m in g.exponents() if m[j] == 0 or not (v[0] or v[1])), None)
    if m is not None:
        return m, None
    w = (N + 1) ** j
    parts = [_divided(den, [(k - w, re.get(k, 0), im.get(k, 0), *v) for k in (re.keys() | im.keys() if im else re)])
             for den, re, im in g._keyed(N)[1:]]
    return None, ScalarSeries._make(result.n, N - 1, _rekeyed(parts, result.n, N + 1, N - 1, N))


def extract_integrable_shape_map(result: NormalizationResult) -> ShapeResult:
    """Factor the normal form as G_j = mu_j y_j (1 + p_j(y)), or name the first
    monomial that blocks the factorization (the map is then not integrable)."""
    _require_exact_eigenvalues(result.spec)
    ps = []
    for j in range(result.n):
        m, p = _over_own_coordinate(result, j)
        if p is None:
            return ShapeResult(ok=False, witness=(j, m))
        ps.append(p)
    return ShapeResult(ok=True, p=tuple(ps))


def check_functional_equations(
    p: Sequence[ScalarSeries], basis: LatticeBasis, order: int
) -> tuple[ScalarSeries, ...]:
    """Residuals prod_j (1 + p_j)^(m_kj) - 1 for every lattice generator m_k;
    all exactly zero on integrable systems."""
    residuals = []
    n = len(p)
    for gen in basis.generators:
        prod = ScalarSeries.one(p[0].n, order)
        for j in range(n):
            if gen[j] == 0:
                continue
            prod = prod.mul(unit_power(p[j], gen[j], order), order)
        residuals.append(prod - ScalarSeries.one(p[0].n, order))
    return tuple(residuals)


@dataclass(frozen=True)
class ReduceResult:
    """Representation 1 + p_j = (1 + p_iota)^(r_j) with rational exponents."""

    iota: int  # 0-based component index
    exponents: tuple[Fraction, ...]
    verified_order: int


def _lead_key(series: ScalarSeries):
    """(degree, largest denominator, largest numerator, 0 for a positive real
    coefficient else 1) of the first term, in lowest terms, read off its part."""
    m = series.exponents()[0]
    d = sum(m)
    den, re, im = series.parts[d]
    k = sum(e * (series.trunc + 1) ** i for i, e in enumerate(m))
    a, b = re.get(k, 0), im.get(k, 0)
    g, h = gcd(a, den), gcd(b, den)
    return (d, max(den // g, den // h), max(abs(a) // g, abs(b) // h), 0 if b == 0 and a > 0 else 1)


def reduce_to_single_function(
    p: Sequence[ScalarSeries], basis: LatticeBasis, order: int | None = None
) -> ReduceResult:
    """Express every 1 + p_j as a rational power of a single 1 + p_iota.

    The generator relations force the formal logarithms of the 1 + p_j onto
    the one-dimensional kernel of the generator matrix; the exponents are the
    kernel ratios, and the representation is re-verified exactly through the
    working order.
    """
    n = len(p)
    if order is None:
        order = min(q.trunc for q in p)
    if not basis.rank_ok:
        raise HypothesisError("single-function reduction needs a rank n-1 basis")
    if all(q.is_zero() for q in p):
        return ReduceResult(iota=0, exponents=(Fraction(0),) * n, verified_order=order)
    v, _ = primitive_integer_kernel(basis.matrix(), n)
    candidates = [j for j in range(n) if v[j] != 0 and not p[j].is_zero()]
    if not candidates:
        raise HypothesisError(
            "no usable base component: the nonzero p_j sit outside the kernel "
            "support, so the functional equations cannot hold"
        )
    iota = min(candidates, key=lambda j: _lead_key(p[j]) + (j,))
    exponents = tuple(Fraction(v[j], v[iota]) for j in range(n))
    base = p[iota]
    one = ScalarSeries.one(p[0].n, order)
    for j in range(n):
        if unit_power(base, exponents[j], order) != one + p[j].truncate(order):
            raise HypothesisError(
                f"functional equations violated: component {j + 1} is not the "
                f"{exponents[j]} power of the base unit through degree {order}"
            )
    return ReduceResult(iota=iota, exponents=exponents, verified_order=order)


@dataclass(frozen=True)
class CommonFactorResult:
    """Outcome of factoring a field normal form as lambda_j y_j (1 + h(y))."""

    ok: bool
    h: Optional[ScalarSeries] = None
    witness: Optional[tuple[int, Optional[Exponent]]] = None

    def describe(self) -> str:
        if self.ok:
            return "common scalar factor extracted"
        j, m = self.witness
        if m is None:
            return f"component {j + 1} deviates from the common-factor shape"
        return f"component {j + 1}: monomial {m} breaks the common-factor shape"


def extract_common_factor_field(result: NormalizationResult) -> CommonFactorResult:
    """Factor the normal form as y_i' = lambda_i y_i (1 + h(y)) with one h.

    Components with lambda_j = 0 must vanish identically in this strict
    shape; any deviation is returned as a witness instead of an error."""
    h: Optional[ScalarSeries] = None
    for j in range(result.n):
        m, hj = _over_own_coordinate(result, j)
        if hj is None:
            return CommonFactorResult(ok=False, witness=(j, m))
        if result.spec.values[j] == 0:
            continue
        if h is None:
            h = hj
        elif h != hj:
            return CommonFactorResult(ok=False, witness=(j, None))
    # h stays None when every component with a nonzero eigenvalue was zero
    return CommonFactorResult(ok=True, h=ScalarSeries.zero(result.n, result.order - 1) if h is None else h)


# -- growth diagnostic -----------------------------------------------------------


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Advisory per-degree coefficient-size table with a fitted ratio.

    Magnitudes are exact rationals; only the fitted slope uses floating
    point, and nothing downstream depends on it."""

    rows: tuple[tuple[int, Fraction], ...]
    slope: Optional[float]
    ratio: Optional[float]
    super_geometric: bool


def _ln_fraction(q: Fraction) -> float:
    # big integers can overflow float conversion; scale by powers of two
    n, d = q.numerator, q.denominator
    nb = max(n.bit_length() - 512, 0)
    db = max(d.bit_length() - 512, 0)
    return log(n >> nb) - log(d >> db) + (nb - db) * log(2)


def growth_diagnostic(phi: VectorSeries) -> GrowthDiagnostic:
    """Largest coefficient magnitude per degree and the least-squares slope of
    its logarithm against the degree; flags super-geometric growth."""
    top: dict[int, tuple[int, int]] = {}  # degree -> (|num|, den) of the largest max(|Re c|, |Im c|)
    for comp in phi.components:
        for s, (den, re, im) in enumerate(comp.parts):
            if re or im:
                a = max(map(abs, chain(re.values(), im.values())))
                t = top.get(s)
                if t is None or a * t[1] > t[0] * den:
                    top[s] = a, den
    rows = [(s, Fraction(*top[s])) for s in range(2, phi.trunc + 1) if s in top]
    if len(rows) < 2:
        return GrowthDiagnostic(tuple(rows), None, None, False)
    xs = [s for s, _ in rows]
    ys = [_ln_fraction(mag) for _, mag in rows]
    k = len(xs)
    xbar = sum(xs) / k
    ybar = sum(ys) / k
    den = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den if den else 0.0
    increments = [y2 - y1 for y1, y2 in zip(ys, ys[1:])]
    rising = all(b > a for a, b in zip(increments, increments[1:]))
    super_geometric = (
        len(increments) >= 3 and rising and (increments[-1] - increments[0]) > 0.69
    )
    try:
        ratio = exp(slope)
    except OverflowError:  # a slope past the float range
        ratio = inf
    return GrowthDiagnostic(tuple(rows), slope, ratio, super_geometric)


# -- classification ----------------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityReport:
    """Everything classify computed, with the verdict certified at (D, N).

    The verdict is "integrable-consistent" only when the rank test passed at
    the lattice bound and every structural residual was exactly zero through
    the normalization order."""

    kind: str  # "map" | "field"
    n: int
    lattice_bound: int
    order: int
    verdict: str  # "integrable-consistent" | "not-integrable" | "hypotheses-not-met"
    lattice: Optional[LatticeBasis] = None
    rank_ok: Optional[bool] = None
    normalization: Optional[NormalizationResult] = None
    shape: Optional[ShapeResult] = None
    functional_residuals: Optional[tuple[ScalarSeries, ...]] = None
    p: Optional[tuple[ScalarSeries, ...]] = None
    h: Optional[ScalarSeries] = None
    reduction: Optional[ReduceResult] = None
    growth: Optional[GrowthDiagnostic] = None
    witness: Optional[str] = None
    flags: tuple[str, ...] = ()


def _map_hypothesis_ok(mu: EigenSpec) -> bool:
    if mu.kind == "mult-base":
        return any(a != 0 for a in mu.exponents)
    return any(sc_abs2(v) != 1 for v in mu.values)


def classify(
    system: System,
    lattice_bound: int = 10,
    order: int | None = None,
    normal_form: NormalizationResult | None = None,
) -> IntegrabilityReport:
    """Integrability verdict for a map or field, certified at (D, N).

    One pass over the necessary conditions, up to the first that fails: the
    hypotheses, the resonant-lattice rank at the bound D, normalization to
    order N, the shape (maps) or common factor (fields) of the normal form,
    and for maps the generator functional equations.  A failed condition
    yields its verdict with a witness; "integrable-consistent" asserts
    exactly that every computed obstruction vanished at the stated degrees.
    `normal_form`, an already-verified distinguished pair at order N (unique
    once conjugacy holds with phi nonresonant and g resonant), is used
    instead of solving when given.
    """
    N = system.order if order is None else order
    found: dict = {"flags": []}
    verdict, witness = _conditions(system, lattice_bound, N, normal_form, found)
    return IntegrabilityReport(
        kind="map" if isinstance(system, MapSystem) else "field", n=system.n,
        lattice_bound=lattice_bound, order=N, verdict=verdict, witness=witness,
        flags=tuple(found.pop("flags")), **found,
    )


def _conditions(
    system: System, D: int, N: int, normal_form: NormalizationResult | None, found: dict
) -> tuple[str, Optional[str]]:
    """The conditions of `classify` in order: (verdict, witness) at the first
    that fails, with what was computed on the way put into `found` under the
    field names of IntegrabilityReport."""
    is_map = isinstance(system, MapSystem)
    spec = system.spec
    flags = found["flags"]
    if is_map and not _map_hypothesis_ok(spec):
        return "hypotheses-not-met", (
            "every eigenvalue has modulus one; the classification needs at "
            "least one off the unit circle"
        )
    if not is_map and all(v == 0 for v in spec.values):
        return "hypotheses-not-met", (
            "all eigenvalues vanish; systems with nilpotent linear part can be "
            "integrable without reaching this normal form"
        )
    _require_exact_eigenvalues(spec)

    basis = found["lattice"] = enumerate_lattice(spec, D)
    found["rank_ok"] = basis.rank_ok
    if basis.non_simple:
        flags.append(
            f"generators {list(basis.non_simple)} are not simple; no simple "
            "resonant element spans their ray"
        )
    if not basis.rank_ok:
        return "not-integrable", (
            f"resonant lattice rank is {basis.rank}, not n-1 = {system.n - 1}, "
            f"for every degree up to {D}"
        )

    if normal_form is None:
        normal_form = normalize(system, N)
    found["normalization"] = normal_form
    growth = found["growth"] = growth_diagnostic(normal_form.phi)
    if growth.super_geometric:
        flags.append("transformation coefficients grow super-geometrically")

    if not is_map:
        factor = extract_common_factor_field(normal_form)
        if not factor.ok:
            return "not-integrable", factor.describe()
        found["h"] = factor.h
        return "integrable-consistent", None

    shape = found["shape"] = extract_integrable_shape_map(normal_form)
    if not shape.ok:
        return "not-integrable", shape.describe()
    p = found["p"] = shape.p
    residuals = found["functional_residuals"] = check_functional_equations(p, basis, N - 1)
    bad = next((k for k, r in enumerate(residuals) if not r.is_zero()), None)
    if bad is not None:
        return "not-integrable", (
            f"functional equation of generator {basis.generators[bad]} has a nonzero residual"
        )
    try:
        found["reduction"] = reduce_to_single_function(p, basis, N - 1)
    except HypothesisError as exc:  # inconsistent p would have failed above
        flags.append(str(exc))
    return "integrable-consistent", None
