"""Eigenvalue data, exact resonance tests, resonant lattices, divisor bounds.

Eigenvalue tuples come in three exact forms:

* ``additive`` -- vector-field eigenvalues, Gaussian rationals; a monomial
  ``y^m e_j`` resonates when ``<m, lambda> = lambda_j``.
* ``mult-rational`` -- map multipliers given directly as nonzero Gaussian
  rationals; ``y^m e_j`` resonates when ``mu^m = mu_j``.
* ``mult-base`` -- map multipliers ``mu_i = beta^(a_i) * e^(2*pi*i*b_i)``
  with rational exponents and phases over a formal real base ``beta > 1``
  that is never evaluated; all resonance queries reduce to exact rational
  arithmetic on the exponents and phases.

Every value query runs in integers.  `EigenSpec.keys` are integer
coordinates of the value, linear in m (<m, lambda> or a.m and b.m mod 1
over a common denominator, or valuations over a coprime base of Z[i] and a
unit exponent): `EigenSpec.resonant` tests them on m - e_j, and the degree-D
scans (`enumerate_lattice`, `verify_bound`) read `EigenSpec.classes`, the
exponents grouped by one packed key int in graded-lex order, doing their
arithmetic once per class.  An exact spectrum's values mu^m or <m, lambda>
are the int triples of `EigenSpec.table`, which the exhaustive divisor scan
and the normalizer's homological divisors read.

The small-divisor bounds (sigma for maps, kappa for fields) are evaluated on
their squares, which are rationals: each candidate term's square is built
exactly, the least is taken, and `sqrt_value` builds its root once, a
Fraction or a `RootValue` that only records its square.  `verify_bound`
compares squares as well.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence, Union

from .errors import HypothesisError, InternalInvariantError
from .linalg import Echelon, primitive_integer_kernel
from .scalars import (
    GaussianRational,
    Scalar,
    coprime_base,
    exact_log,
    exact_sqrt,
    gauss_parts,
    gauss_valuations,
    is_int,
    primitive_root,
    sc_abs2,
    sc_im,
    sc_re,
    scalar_to_json,
)
from .series import grlex_key

Exponent = tuple[int, ...]


# -- eigenvalue data ----------------------------------------------------------


@dataclass(frozen=True)
class EigenSpec:
    """Exact eigenvalues of a diagonal linear part."""

    kind: str  # "additive" | "mult-rational" | "mult-base"
    n: int
    values: tuple[Scalar, ...] = ()  # additive / mult-rational
    exponents: tuple[Fraction, ...] = ()  # mult-base: a_i
    phases: tuple[Fraction, ...] = ()  # mult-base: b_i in [0, 1)

    @classmethod
    def additive(cls, values: Sequence) -> "EigenSpec":
        vals = tuple(_as_scalar(v) for v in values)
        return cls(kind="additive", n=len(vals), values=vals)

    @classmethod
    def multiplicative(cls, values: Sequence) -> "EigenSpec":
        vals = tuple(_as_scalar(v) for v in values)
        if any(v == 0 for v in vals):
            raise ValueError("map multipliers must be nonzero")
        return cls(kind="mult-rational", n=len(vals), values=vals)

    @classmethod
    def multiplicative_base(
        cls, exponents: Sequence, phases: Sequence | None = None
    ) -> "EigenSpec":
        exps = tuple(map(_as_rational, exponents))
        if phases is None:
            phs = (Fraction(0),) * len(exps)
        else:
            phs = tuple(_as_rational(b) % 1 for b in phases)
        if len(phs) != len(exps):
            raise ValueError("exponent and phase tuples differ in length")
        return cls(kind="mult-base", n=len(exps), exponents=exps, phases=phs)

    def is_multiplicative(self) -> bool:
        return self.kind in ("mult-rational", "mult-base")

    def has_exact_values(self) -> bool:
        """True when the eigenvalues themselves live in the coefficient field."""
        return self.kind in ("additive", "mult-rational")

    @cached_property
    def table(self) -> "ExponentValues":
        """The values of the exponents looked up so far, as int triples (not
        a field: the spec still compares and hashes by its eigenvalues)."""
        return ExponentValues(self)

    @cached_property
    def keys(self) -> tuple[list[list[int]], list[int], int]:
        """(rows, t, T), all integers, with value(m) = value(m') exactly when
        rows.m = rows.m' and t.m = t.m' mod T: <m, lambda>'s real and
        imaginary parts, or a.m with b.m (T = L, the phases' common
        denominator), scaled to integers; see `_valuation_rows` for mu^m."""
        if self.kind == "mult-rational":
            return _valuation_rows(self.values)
        if self.kind == "additive":
            parts = [[sc_re(v) for v in self.values], [sc_im(v) for v in self.values]]
            return [_integer_row(r) for r in parts], [0] * self.n, 1
        L = lcm(*(b.denominator for b in self.phases))
        return [_integer_row(self.exponents)], _integer_row(self.phases, L), L

    @cached_property
    def _classes(self) -> dict:
        return {}

    def _scan(self, D: int) -> tuple[dict, list[int], int]:
        """(classes(D), kappa, M): the classes keyed by kappa.m mod M, built
        once per degree, in one scan that adds and hashes ints only."""
        scan = self._classes.get(D)
        if scan is None:
            rows, t, T = self.keys
            # key(m) = sum_r (r.m) M_r + (t.m) M, mod T M: |r.m| <= D max|r|
            # for |m| <= D, so each row is a balanced digit of odd width
            # 2 D max|r| + 1 that never carries into the next, and the rows
            # stay below M/2 in size, so reducing mod T M keeps them whole
            kappa, M = [0] * self.n, 1
            for r, width in [(r, 2 * D * max(map(abs, r)) + 1) for r in rows] + [(t, T)]:
                kappa = [k + M * x for k, x in zip(kappa, r)]
                M *= width
            groups: dict = {}
            for level in _graded(kappa, M, D)[2:]:
                for m, key in level:
                    groups.setdefault(key, []).append(m)
            scan = self._classes[D] = groups, kappa, M
        return scan

    def classes(self, D: int) -> dict:
        """The exponents with 2 <= |m| <= D grouped by value: each class, in
        order of first arrival, lists its exponents in graded-lex order under
        an integer key (value(0)'s is 0)."""
        return self._scan(D)[0]

    def resonant_class(self, D: int, j: Optional[int] = None) -> list[Exponent]:
        """The exponents m with 2 <= |m| <= D for which y^m e_j is resonant
        (with j None, y^m is a first-integral monomial), in graded-lex order:
        the class of value(e_j), or of value(0), in `classes`(D), looked up by
        its key; empty when the class is."""
        groups, kappa, M = self._scan(D)
        return groups.get(0 if j is None else kappa[j] % M, [])

    @cached_property
    def kernel_rank(self) -> int:
        """n minus the key rows' rank: the rank of the whole relation lattice
        {e in Z^n : value(e) = value(0)}, as t.e = 0 mod T only cuts a
        sublattice of finite index, so it bounds every enumerated rank."""
        echelon = Echelon()
        for row in self.keys[0]:
            echelon.add(dict(enumerate(row)))
        return self.n - echelon.rank

    def resonant(self, m: Exponent, j: Optional[int] = None) -> bool:
        """y^m e_j is resonant: value(m) = value(e_j), i.e. mu^m = mu_j,
        <m, lambda> = lambda_j or (a.m, b.m) = (a_j, b_j) mod 1; with j None,
        y^m is a first-integral monomial: value(m) = value(0).  Read off the
        linear keys: rows.e = 0 and t.e = 0 mod T for e = m - e_j."""
        rows, t, T = self.keys
        e = [x - (i == j) for i, x in enumerate(m)]
        return not any(sum(map(mul, r, e)) for r in rows) and sum(map(mul, t, e)) % T == 0


def _as_scalar(v) -> Scalar:
    if isinstance(v, (Fraction, GaussianRational)):
        return v
    if is_int(v):
        return Fraction(v)
    raise ValueError(f"eigenvalue {v!r} is not an int, Fraction or GaussianRational")


def _as_rational(v) -> Fraction:
    if isinstance(v, Fraction) or is_int(v):
        return Fraction(v)
    raise ValueError(f"exponent or phase {v!r} is not an int or Fraction")


# -- integer value keys --------------------------------------------------------


def _integer_row(row: Sequence[Fraction], den: int = 0) -> list[int]:
    """The row times `den`, by default its entries' common denominator."""
    den = den or lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


def _valuation_rows(mus: Sequence[Scalar]) -> tuple[list[list[int]], list[int], int]:
    """`EigenSpec.keys` of exact multipliers mu_i = w_i / d_i: over one coprime
    base of Z[i], w_i and d_i are units i^t times products of base powers,
    and a unit times powers of pairwise coprime non-units is 1 only when
    every power is 0.  Row k lists v_k(w_i) - v_k(d_i); t_i is taken mod 4,
    or mod 2 when every multiplier is real."""
    parts = [gauss_parts(mu) for mu in mus]
    base = coprime_base([x for w, d in parts for x in (w, (d, 0))])
    rows, t = [], []
    for w, d in parts:
        (vw, kw), (vd, kd) = gauss_valuations(w, base), gauss_valuations((d, 0), base)
        rows.append([x - y for x, y in zip(vw, vd)])
        t.append((kw - kd) % 4)
    g = gcd(4, *t)
    return [list(r) for r in zip(*rows)], [x // g for x in t], 4 // g


# -- resonant lattice ---------------------------------------------------------


@dataclass(frozen=True)
class LatticeBasis:
    """Resonant exponents up to a degree bound, with rank and generators.

    ``rank`` is the rank over Q of every resonant exponent found with
    2 <= |m| <= bound.  Generators satisfy the defining resonance exactly and
    are chosen greedily in graded lexicographic order, preferring simple
    elements (entry gcd 1, after dividing out as much of the gcd as the
    resonance allows).  Multiplicative torsion can leave rays with no simple
    resonant element at all; such generators are listed in ``non_simple``.
    ``span_deficit`` is rank minus the rank of the generators (0 unless even
    the fallback could not span).
    """

    kind: str  # "map" | "field"
    n: int
    bound: int
    exponents: tuple[Exponent, ...]
    rank: int
    generators: tuple[Exponent, ...]
    span_deficit: int = 0
    non_simple: tuple[Exponent, ...] = ()

    @property
    def rank_ok(self) -> bool:
        """Rank n-1 with n-1 generators: the hypothesis of the divisor
        bounds, the single-function reduction and the classification."""
        return self.rank == self.n - 1 and len(self.generators) == self.n - 1

    def matrix(self) -> list[list[int]]:
        return [list(g) for g in self.generators]


def _graded(kappa: Sequence[int], mod: int, D: int) -> list[list[tuple[Exponent, int]]]:
    """For each degree s <= D, every (m, kappa.m mod `mod`) with |m| = s, m in
    lex order: the suffixes of each length are listed once, shortest first."""
    *head, last = kappa
    level = [[((s,), s * last % mod)] for s in range(D + 1)]
    for k in reversed(head):
        level = [
            [((f,) + m, (f * k + key) % mod) for f in range(s + 1) for m, key in level[s - f]]
            for s in range(D + 1)
        ]
    return level


def iter_exponents(n: int, low: int, high: int):
    """All exponent tuples with low <= |m| <= high, in graded-lex order."""
    return (m for level in _graded((0,) * n, 1, high)[low:] for m, _ in level)


class ExponentValues(dict):
    """value(m) = (x + iy) / d, d > 0, of an exact spectrum (mu^m or <m,
    lambda>) as int triples, each computed on its first lookup from m - e_i
    (i the last index with m_i > 0) as one Gaussian-integer product by mu_i
    = w_i / d_i (`gauss_parts`) or one sum over the common denominator, as
    in `series.Powers`.  Build it through `EigenSpec.table`."""

    def __init__(self, spec: EigenSpec):
        if not spec.has_exact_values():
            raise HypothesisError("a formal-base spectrum has no exact exponent values")
        parts = [gauss_parts(v) for v in spec.values]
        self.product = spec.kind == "mult-rational"
        d = 1 if self.product else lcm(*(e for _, e in parts))
        self.steps = [(x, y, e) if self.product else (x * d // e, y * d // e, 1) for (x, y), e in parts]
        super().__init__({(0,) * spec.n: (1, 0, 1) if self.product else (0, 0, d)})

    def __missing__(self, m: Exponent):
        i = len(m) - 1
        while not m[i]:
            i -= 1
        x, y, d = self[m[:i] + (m[i] - 1,) + m[i + 1 :]]
        a, b, c = self.steps[i]
        value = self[m] = (x * a - y * b, x * b + y * a, d * c) if self.product else (x + a, y + b, d)
        return value


def enumerate_lattice(spec: EigenSpec, bound: int) -> LatticeBasis:
    """All resonant exponents with 2 <= |m| <= bound, their rank, and generators.

    Resonant exponents are the class of value(0) (`EigenSpec.resonant_class`:
    mu^m = 1, <m, lambda> = 0, or a.m = 0 with b.m = 0 mod 1), in graded-lex
    order.  Rank can only be under-reported when the bound is too small; the
    bound is recorded so every downstream claim is certified "at degree D".
    """
    if bound < 2:
        raise ValueError("enumeration bound must be >= 2")
    kind = "field" if spec.kind == "additive" else "map"
    found = spec.resonant_class(bound)
    # m/d spans the ray of m, so the distinct candidates span what found does,
    # and their rank stops at the whole lattice's, `EigenSpec.kernel_rank`
    candidates = list(dict.fromkeys(_generator_candidate(spec, m) for m in found))
    full = Echelon()
    for cand in candidates:
        if full.rank == spec.kernel_rank:
            break
        full.add(dict(enumerate(cand)))
    # greedy in graded-lex arrival order, simple candidates first
    gens: list[Exponent] = []
    gen_rank = Echelon()
    for simple_pass in (True, False):
        for cand in candidates:
            if _is_simple(cand) != simple_pass:
                continue
            if gen_rank.rank == full.rank:
                break
            if gen_rank.add(dict(enumerate(cand))) is None:
                gens.append(cand)
    return LatticeBasis(
        kind=kind,
        n=spec.n,
        bound=bound,
        exponents=tuple(found),
        rank=full.rank,
        generators=tuple(gens),
        span_deficit=full.rank - gen_rank.rank,
        non_simple=tuple(g for g in gens if not _is_simple(g)),
    )


def _is_simple(m: Exponent) -> bool:
    return gcd(*m) == 1


def _generator_candidate(spec: EigenSpec, m: Exponent) -> Exponent:
    """Most-divided representative of m that still satisfies the resonance:
    m/d for the largest divisor d of the entry gcd keeping m/d resonant.
    For fields any d works, so the result is always simple; multiplicative
    torsion can force d < gcd."""
    g = gcd(*m)
    for d in range(g, 1, -1):
        if g % d == 0:
            reduced = tuple(e // d for e in m)
            if spec.resonant(reduced):
                return reduced
    return m


# -- exact value forms for bounds --------------------------------------------


@dataclass(frozen=True)
class RootValue:
    """A positive irrational square root of a rational, held as its square:
    every bound is evaluated and compared on squares, and `sqrt_value`
    builds each root once, from the least square."""

    square: Fraction

    def __post_init__(self):
        if self.square <= 0:
            raise ValueError("radicand must be positive")

    def __str__(self):
        return f"sqrt({self.square})"


ExactValue = Union[Fraction, RootValue]


def sqrt_value(q: Fraction) -> ExactValue:
    """Exact sqrt(q) for q >= 0: a Fraction when possible, else a RootValue."""
    q = Fraction(q)
    r = exact_sqrt(q)
    return r if r is not None else RootValue(q)


def _square_of(x) -> Fraction:
    if isinstance(x, RootValue):
        return x.square
    x = Fraction(x)
    if x < 0:
        raise ValueError("comparing a positive root against a negative number")
    return x * x


# -- small-divisor bounds ------------------------------------------------------


@dataclass(frozen=True)
class BoundTerm:
    """One candidate lower bound of the form beta^c * factor where the factor
    is (1 - beta^(-g)) for kind "unit-gap" or 2*sin(pi*d) for "phase-gap"."""

    beta_exp: Fraction
    kind: str
    param: Fraction

    def describe(self, base: str = "b") -> str:
        pre = f"{base}^({self.beta_exp})*" if self.beta_exp != 0 else ""
        if self.kind == "unit-gap":
            return f"{pre}(1 - {base}^(-{self.param}))"
        return f"{pre}2*sin(pi*{self.param})"


@dataclass(frozen=True)
class SymbolicBound:
    """min over candidate terms, over a formal or known rational base > 1."""

    terms: tuple[BoundTerm, ...]
    beta: Optional[Fraction] = None

    def describe(self) -> str:
        base = "b" if self.beta is None else f"({self.beta})"
        parts = [t.describe(base) for t in self.terms]
        body = parts[0] if len(parts) == 1 else "min(" + ", ".join(parts) + ")"
        if self.beta is None:
            return body + "  [b > 1 formal]"
        return body


BoundValue = Union[Fraction, RootValue, SymbolicBound]


@dataclass(frozen=True)
class SmallDivisorBound:
    """A positive lower bound on every nonzero homological divisor."""

    kind: str  # "map" | "field"
    value: BoundValue
    certificate: dict = field(default_factory=dict)


def _beta_square(beta: Fraction, q: Fraction) -> Optional[Fraction]:
    """(beta^q)^2 = beta^(2q) when 2q is an integer: for a base that is no
    perfect power, exactly when beta^q is a rational or the root of one."""
    return beta ** int(2 * q) if (2 * q).denominator == 1 else None


# (2 sin(pi d))^2 for the phase gaps d where it is rational
_PHASE_GAP_SQUARE = {Fraction(1, 2): 4, Fraction(1, 3): 3, Fraction(1, 4): 2, Fraction(1, 6): 1}


def _term_square(term: BoundTerm, beta: Optional[Fraction]) -> Optional[Fraction]:
    """The term's value squared, when the base is known and the square is
    rational: beta^(2c) times (1 - beta^(-g))^2 for a unit gap g with
    beta^(-g) rational (g an integer, for a base that is no perfect power),
    or times (2 sin(pi d))^2 for an exact phase gap d."""
    pre = None if beta is None else _beta_square(beta, term.beta_exp)
    if pre is None:
        return None
    if term.kind == "phase-gap":
        gamma = _PHASE_GAP_SQUARE.get(term.param)
        return None if gamma is None else pre * gamma
    inner = _beta_square(beta, -term.param)
    root = None if inner is None else exact_sqrt(inner)
    return None if root is None else pre * (1 - root) ** 2


def _finish_bound(
    kind: str, terms: list[BoundTerm], beta: Optional[Fraction], certificate: dict
) -> SmallDivisorBound:
    squares = [_term_square(t, beta) for t in terms]
    if None in squares:
        value: BoundValue = SymbolicBound(terms=tuple(terms), beta=beta)
    else:
        value = sqrt_value(min(squares))
    return SmallDivisorBound(kind=kind, value=value, certificate=certificate)


def _phase(mu: Scalar) -> Fraction:
    """The phase b in [0, 1) of mu: rational only on an axis or a diagonal
    (mu^2/|mu|^2 a root of unity in Q(i)), where the signs fix it in 1/8s."""
    x, y = sc_re(mu), sc_im(mu)
    if x and y and abs(x) != abs(y):
        raise HypothesisError(
            "eigenvalue phase is not a rational turn representable over the "
            "Gaussian rationals; supply the mult-base form instead"
        )
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    return Fraction((2 - sx) * sy % 8 if sy else 2 - 2 * sx, 8)


def _rational_to_base(mus: tuple[Scalar, ...]) -> tuple[Fraction, tuple, tuple]:
    """Write exact multipliers as beta^(a_i) e^(2 pi i b_i), beta > 1 rational,
    by exact roots and powers, without factoring.  beta is the primitive root
    of the first squared modulus R != 1 (R = beta^k, k largest), inverted
    below 1.  The rank-(n-1) hypothesis makes the moduli powers of one base,
    and a rational power of a primitive beta has an integer exponent: so each
    R_i = |mu_i|^2 must be beta^(c_i), c_i an integer, and a_i = c_i / 2."""
    r2 = [sc_abs2(mu) for mu in mus]
    R = next((x for x in r2 if x != 1), None)
    if R is None:
        raise HypothesisError("all eigenvalue moduli equal 1")
    beta = primitive_root(R)
    if beta < 1:
        beta = 1 / beta
    coeffs = [exact_log(beta, x) for x in r2]
    if None in coeffs:
        raise HypothesisError(
            "eigenvalue moduli are not powers of a common base; the "
            "resonant rank hypothesis fails for this spectrum"
        )
    return beta, tuple(Fraction(c, 2) for c in coeffs), tuple(map(_phase, mus))


def _kernel_line(spec: EigenSpec, basis: LatticeBasis, kind: str) -> tuple[list[int], int, int]:
    """(v, Delta, c) of a rank n-1 basis: its primitive kernel vector, the
    minor without column c, and c = the last index with v_c != 0."""
    if basis.kind != kind or not basis.rank_ok:
        raise HypothesisError(
            f"{kind} bound needs a rank n-1 = {spec.n - 1} lattice basis, got rank "
            f"{basis.rank} with {len(basis.generators)} generators"
        )
    v, Delta = primitive_integer_kernel(basis.matrix(), spec.n)
    return v, Delta, max(j for j in range(spec.n) if v[j] != 0)


def small_divisor_bound_map(mu: EigenSpec, basis: LatticeBasis) -> SmallDivisorBound:
    """Constructive sigma > 0 with |mu^m - mu_j| >= sigma for every nonresonant
    pair, built from the resonant-lattice generators.

    The moduli are powers of one base: a mult-base spectrum's formal beta,
    or the rational beta > 1 of `_rational_to_base`, an exact perfect-power
    root (no factoring).  Their exponents a lie on the kernel line of the
    generators: a_j Delta = delta_j a_c, with v, Delta and c from
    `_kernel_line` and delta = (Delta / v_c) v, Cramer's solution.
    """
    if not mu.is_multiplicative():
        raise HypothesisError("map bound needs multiplicative eigenvalues")
    v, Delta, c = _kernel_line(mu, basis, "map")
    if mu.kind == "mult-base":
        beta: Optional[Fraction] = None
        a, b = mu.exponents, mu.phases
        if all(x == 0 for x in a):
            raise HypothesisError("all eigenvalue moduli equal 1")
    else:
        beta, a, b = _rational_to_base(mu.values)
    delta = [Delta // v[c] * x for x in v]
    if a[c] == 0:
        raise InternalInvariantError("pivot coordinate has unit modulus")
    e_alpha = a[c] / Delta
    for j in range(mu.n):
        if a[j] * Delta != delta[j] * a[c]:
            raise InternalInvariantError("modulus exponents violate the lattice relations")
    c_min = min(a)
    terms = [BoundTerm(beta_exp=c_min, kind="unit-gap", param=abs(e_alpha))]
    L = 1
    for ph in b:
        L = L * ph.denominator // gcd(L, ph.denominator)
    if L > 1:
        terms.append(BoundTerm(beta_exp=c_min, kind="phase-gap", param=Fraction(1, L)))
    certificate = {
        "pivot": c,
        "Delta": Delta,
        "delta": tuple(delta),
        "alpha_exp": e_alpha,  # alpha = beta^(alpha_exp) = |mu_pivot|^(1/Delta)
        "base": beta,
        "base_exponents": tuple(a),
        "phases": tuple(b),
        "phase_group_order": L,
        "min_exponent": c_min,
        "sigma1": terms[0],
        "sigma2": terms[1] if len(terms) > 1 else None,
    }
    return _finish_bound("map", terms, beta, certificate)


def small_divisor_bound_field(lam: EigenSpec, basis: LatticeBasis) -> SmallDivisorBound:
    """kappa > 0 with |<m, lambda> - lambda_j| >= kappa on nonresonant pairs,
    from the eigenvalue ratios forced by the resonant lattice."""
    if lam.kind != "additive":
        raise HypothesisError("field bound needs additive eigenvalues")
    n = lam.n
    v, _, c = _kernel_line(lam, basis, "field")
    if all(x == 0 for x in lam.values):
        raise HypothesisError("zero eigenvalue tuple")
    t = lam.values[c] / Fraction(v[c])
    for j in range(n):
        if lam.values[j] != t * v[j]:
            raise InternalInvariantError("eigenvalues do not satisfy the lattice relations")
    ratios = {}
    den_product = 1
    for j in range(n):
        if j == c:
            continue
        r = Fraction(v[j], v[c])
        ratios[j] = (r.numerator, r.denominator)
        den_product *= r.denominator
    kappa = sqrt_value(sc_abs2(lam.values[c]) / den_product**2)
    certificate = {
        "pivot": c,
        "kernel": tuple(v),
        "ratios": ratios,
        "denominator_product": den_product,
        "pivot_eigenvalue": scalar_to_json(lam.values[c]),
    }
    return SmallDivisorBound(kind="field", value=kappa, certificate=certificate)


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundVerification:
    passed: bool
    checked: int
    mode: str  # "exhaustive" | "certificate"
    min_gap: Optional[ExactValue] = None
    witness: Optional[tuple[Exponent, int]] = None
    failure: Optional[tuple[Exponent, int]] = None


def verify_bound(spec: EigenSpec, bound: SmallDivisorBound, D: int) -> BoundVerification:
    """Check every nonzero divisor with 2 <= |m| <= D against the bound.

    A pair's divisor depends only on value(m) and j, so each scan computes
    it once per class of `EigenSpec.classes`, on the class's first exponent
    (classes arrive in graded-lex order of it), and counts its exponents.
    With exactly representable eigenvalues the minimum gap is found by
    exhaustive comparison of the squared moduli of the divisors value(m) -
    mu_j resp. value(m) - lambda_j, in integers: over the triples of
    `EigenSpec.table`, |(x, y) d_j - (x_j, y_j) d|^2 / (d d_j)^2 against the
    running minimum by cross-multiplication; the first pair reaching the
    minimum is the witness.  For a formal base or a symbolic bound the
    proof's case analysis is replayed in integers on the certificate's
    (a.m, b.m mod 1), which must be the spectrum's own (as
    `small_divisor_bound_map` builds it), stopping at the first failing pair.
    """
    if spec.kind == "mult-base" or isinstance(bound.value, SymbolicBound):
        return _verify_certificate(spec, bound, D)
    eigs = [spec.table[tuple(int(i == j) for i in range(spec.n))] for j in range(spec.n)]
    num, den, witness, checked = 0, 0, None, 0  # min |divisor|^2 = num / den
    for members in spec.classes(D).values():
        x, y, d = spec.table[members[0]]
        for j, (xj, yj, dj) in enumerate(eigs):
            u, v = x * dj - xj * d, y * dj - yj * d
            if not (u or v):
                continue
            checked += len(members)
            g2, w2 = u * u + v * v, (d * dj) ** 2
            if witness is None or g2 * den < num * w2:
                num, den, witness = g2, w2, (members[0], j)
    if witness is None:
        return BoundVerification(passed=True, checked=0, mode="exhaustive")
    min_sq = Fraction(num, den)
    passed = min_sq >= _square_of(bound.value)
    return BoundVerification(
        passed=passed, checked=checked, mode="exhaustive", min_gap=sqrt_value(min_sq),
        witness=witness, failure=None if passed else witness,
    )


def _verify_certificate(spec: EigenSpec, bound: SmallDivisorBound, D: int) -> BoundVerification:
    cert = bound.certificate
    # in integers: A = a den, E = alpha_exp den and B = b L, so that a.m -
    # a_j is a nonzero multiple of alpha_exp when (A.m - A_j) % E == 0, and
    # the phase gap min(db, 1 - db) >= 1/order when min(dB, L - dB) order >= L
    den = lcm(*(x.denominator for x in cert["base_exponents"]), cert["alpha_exp"].denominator)
    A, E = _integer_row(cert["base_exponents"], den), int(cert["alpha_exp"] * den)
    L = lcm(*(x.denominator for x in cert["phases"]))
    B, order = _integer_row(cert["phases"], L), cert["phase_group_order"]
    has_phase_term = cert["sigma2"] is not None
    scanned: list[tuple[list[Exponent], int]] = []  # (members, nonresonant js)
    for members in spec.classes(D).values():
        m = members[0]
        ma, mb = sum(map(mul, A, m)), sum(map(mul, B, m))
        count = 0
        for j in range(spec.n):
            da, db = ma - A[j], (mb - B[j]) % L
            if da == 0 and db == 0:
                continue  # resonant
            count += 1
            if da != 0:
                ok = da % E == 0
            else:
                ok = has_phase_term and min(db, L - db) * order >= L
            if not ok:
                # the pairs before (m, j) in graded-lex order: the earlier
                # classes' exponents below m, and m's own js through j
                key = grlex_key(m)
                checked = count + sum(k * bisect_left(ms, key, key=grlex_key) for ms, k in scanned)
                return BoundVerification(
                    passed=False, checked=checked, mode="certificate", failure=(m, j)
                )
        scanned.append((members, count))
    checked = sum(len(ms) * k for ms, k in scanned)
    return BoundVerification(passed=True, checked=checked, mode="certificate")
