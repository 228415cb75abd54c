"""Sparse exact multivariate truncated power series.

A series knows its dimension ``n`` and truncation degree ``trunc``; only
monomials of total degree <= trunc are representable and explicit zeros are
never stored.  All arithmetic is exact over Fraction / GaussianRational
coefficients.  Series are immutable and every operation is a pure function,
so sharing a series across threads is safe; a `Powers` table fills as it is
read, so one (and a system holding one) is read from one thread.

Binary operations take an explicit output truncation degree and default to
the minimum of the operands' degrees, which prevents silently claiming more
precision than the inputs carry.

The public constructor validates every exponent and coefficient; results the
package builds itself (sums, products, scalings, truncations, compositions)
skip that through the trusted ``ScalarSeries._make``.

All composition runs through one engine, `Powers`: for an inner map P known
through degree s - 1 it yields the degree-s part of every power P^m with
|m| >= 2, each part computed once from m = m' + e_i and cached.  A table of a
fully known P composes through any degree up to its own (`Powers.compose`; a
map keeps one, `MapSystem.powers`); `invert` and the normalizer's degree loop
feed one a degree at a time: the relaxed ("online") evaluation of J. van der
Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34 (2002).

Inside the engine a homogeneous part is packed, as ``(den, re, im)``: one
positive int denominator, and two dicts from a packed monomial key to an int
numerator (``im`` is empty over Q).  The key of m is sum m_i * base^i with
base = trunc + 1 (Monagan and Pearce, CASC 2007); no exponent of a kept
product exceeds trunc, so adding two keys multiplies the monomials with no
carry, and a table caches its powers under these keys.  One integer kernel,
`_kmul`, does every product; a sum of the products of the pairs `_pairs` and
`_derivative_pairs` list is taken over the lcm of its denominators, and its
content is divided out once.  Scalars are packed where they enter the engine
and unpacked once where they leave it, so every public type keeps Fraction /
GaussianRational.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DulacError
from .scalars import GaussianRational, Scalar, format_scalar, is_int

Exponent = tuple[int, ...]


class SeriesError(DulacError):
    """Dimension mismatch, bad exponents, or violated series preconditions."""


def grlex_key(m: Exponent) -> tuple[int, Exponent]:
    return (sum(m), m)


def _check_exponent(m, n: int, trunc: int):
    if len(m) != n:
        raise SeriesError(f"exponent {m} has length {len(m)}, expected {n}")
    if any(not is_int(e) or e < 0 for e in m):
        raise SeriesError(f"exponent {m} has negative or non-integer entries")
    if sum(m) > trunc:
        raise SeriesError(f"exponent {m} exceeds truncation degree {trunc}")


class ScalarSeries:
    """A scalar-valued series, stored as a sparse exponent -> coefficient map."""

    __slots__ = ("n", "trunc", "coeffs")

    def __init__(self, n: int, trunc: int, coeffs: dict | None = None):
        if n < 1:
            raise SeriesError("dimension must be >= 1")
        if trunc < 0:
            raise SeriesError("truncation degree must be >= 0")
        clean: dict[Exponent, Scalar] = {}
        if coeffs:
            for m, c in coeffs.items():
                m = tuple(m)
                _check_exponent(m, n, trunc)
                if is_int(c):
                    c = Fraction(c)
                elif not isinstance(c, (Fraction, GaussianRational)):
                    raise SeriesError(f"coefficient {c!r} of {m} is not an int, Fraction or GaussianRational")
                if c == 0:
                    continue
                clean[m] = c
        self.n = n
        self.trunc = trunc
        self.coeffs = clean

    @classmethod
    def _make(cls, n: int, trunc: int, coeffs: dict) -> "ScalarSeries":
        """Trusted constructor: `coeffs` maps valid exponents of degree
        <= trunc to nonzero scalars and is owned by the new series."""
        self = object.__new__(cls)
        self.n = n
        self.trunc = trunc
        self.coeffs = coeffs
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, trunc: int) -> "ScalarSeries":
        return cls(n, trunc)

    @classmethod
    def const(cls, n: int, trunc: int, c) -> "ScalarSeries":
        return cls(n, trunc, {(0,) * n: c})

    @classmethod
    def one(cls, n: int, trunc: int) -> "ScalarSeries":
        return cls.const(n, trunc, 1)

    @classmethod
    def variable(cls, n: int, i: int, trunc: int) -> "ScalarSeries":
        m = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, trunc, {m: 1})

    @classmethod
    def monomial(cls, n: int, trunc: int, m, c=1) -> "ScalarSeries":
        return cls(n, trunc, {tuple(m): c})

    # -- inspection --------------------------------------------------------

    def coeff(self, m) -> Scalar:
        return self.coeffs.get(tuple(m), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def low_degree(self) -> int:
        """Smallest total degree present; -1 for the zero series."""
        return min((sum(m) for m in self.coeffs), default=-1)

    def terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in graded lexicographic order (canonical)."""
        return sorted(self.coeffs.items(), key=lambda t: grlex_key(t[0]))

    def constant_term(self) -> Scalar:
        return self.coeff((0,) * self.n)

    def homogeneous_part(self, s: int) -> "ScalarSeries":
        return ScalarSeries._make(
            self.n, self.trunc, {m: c for m, c in self.coeffs.items() if sum(m) == s}
        )

    # -- structure ---------------------------------------------------------

    def truncate(self, trunc: int) -> "ScalarSeries":
        if trunc > self.trunc:
            raise SeriesError(
                f"cannot truncate to degree {trunc}: value only certified to "
                f"{self.trunc} (use with_trunc to assert exactness)"
            )
        if trunc == self.trunc:
            return self
        return ScalarSeries._make(
            self.n, trunc, {m: c for m, c in self.coeffs.items() if sum(m) <= trunc}
        )

    def with_trunc(self, trunc: int) -> "ScalarSeries":
        """Re-declare the truncation degree (treats the value as exact)."""
        return ScalarSeries._make(self.n, trunc, {m: c for m, c in self.coeffs.items() if sum(m) <= trunc})

    # -- arithmetic ---------------------------------------------------------

    def _binary_trunc(self, other: "ScalarSeries") -> int:
        if self.n != other.n:
            raise SeriesError(f"dimension mismatch: {self.n} vs {other.n}")
        return min(self.trunc, other.trunc)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ScalarSeries.const(self.n, self.trunc, other)
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        trunc = self._binary_trunc(other)
        out = {m: c for m, c in self.coeffs.items() if sum(m) <= trunc}
        for m, c in other.coeffs.items():
            if sum(m) > trunc:
                continue
            if m not in out:
                out[m] = c
                continue
            v = out[m] + c
            if v == 0:
                del out[m]
            else:
                out[m] = v
        return ScalarSeries._make(self.n, trunc, out)

    __radd__ = __add__

    def __neg__(self):
        return ScalarSeries._make(self.n, self.trunc, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ScalarSeries.const(self.n, self.trunc, other)
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "ScalarSeries":
        if is_int(c):
            c = Fraction(c)
        elif not isinstance(c, (Fraction, GaussianRational)):
            raise SeriesError(f"scalar {c!r} is not an int, Fraction or GaussianRational")
        if c == 0:
            return ScalarSeries.zero(self.n, self.trunc)
        return ScalarSeries._make(self.n, self.trunc, {m: c * v for m, v in self.coeffs.items()})

    def mul(self, other: "ScalarSeries", trunc: int | None = None) -> "ScalarSeries":
        """Exact truncated product; every kept coefficient is the full
        convolution, summed over pairs of the operands' homogeneous parts."""
        if trunc is None:
            trunc = self._binary_trunc(other)
        elif self.n != other.n:
            raise SeriesError(f"dimension mismatch: {self.n} vs {other.n}")
        return _dot([self], [other], self.n, trunc)

    def __mul__(self, other):
        if isinstance(other, ScalarSeries):
            return self.mul(other)
        if isinstance(other, (int, Fraction)) or hasattr(other, "abs2"):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)) or hasattr(other, "abs2"):
            return self.scale(other)
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "ScalarSeries":
        out: dict[Exponent, Scalar] = {}
        for m, c in self.coeffs.items():
            if m[i] == 0:
                continue
            dm = m[:i] + (m[i] - 1,) + m[i + 1 :]
            out[dm] = c * m[i]
        return ScalarSeries._make(self.n, max(self.trunc - 1, 0), out)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for m, c in self.terms():
            mono = "*".join(
                f"y{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e > 0
            )
            cs = format_scalar(c)
            bits.append(f"({cs})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def __repr__(self):
        return f"ScalarSeries(n={self.n}, trunc={self.trunc}, {str(self)})"


class VectorSeries:
    """A tuple of n scalar series in n variables sharing one truncation degree."""

    __slots__ = ("n", "trunc", "components")

    def __init__(self, components: Sequence[ScalarSeries]):
        components = tuple(components)
        if not components:
            raise SeriesError("empty vector series")
        n = components[0].n
        if len(components) != n:
            raise SeriesError(f"{len(components)} components for dimension {n}")
        if any(c.n != n for c in components):
            raise SeriesError("component dimension mismatch")
        trunc = min(c.trunc for c in components)
        self.n = n
        self.trunc = trunc
        self.components = tuple(c.truncate(trunc) for c in components)

    @classmethod
    def zero(cls, n: int, trunc: int) -> "VectorSeries":
        return cls([ScalarSeries.zero(n, trunc)] * n)

    @classmethod
    def identity(cls, n: int, trunc: int) -> "VectorSeries":
        return cls([ScalarSeries.variable(n, i, trunc) for i in range(n)])

    @classmethod
    def diagonal_linear(cls, diag: Sequence[Scalar], trunc: int) -> "VectorSeries":
        n = len(diag)
        return cls(
            [ScalarSeries.variable(n, i, trunc).scale(diag[i]) for i in range(n)]
        )

    @classmethod
    def _from_parts(cls, parts: Sequence[Sequence[dict]], trunc: int) -> "VectorSeries":
        """Trusted: component j has the homogeneous parts parts[j][0], parts[j][1], ..."""
        return cls([ScalarSeries._make(len(parts), trunc, {m: c for p in col for m, c in p.items()}) for col in parts])

    @classmethod
    def from_terms(
        cls, n: int, trunc: int, terms: Iterable[tuple[int, Exponent, Scalar]]
    ) -> "VectorSeries":
        """Build from (component, exponent, coefficient) triples; 0-based components."""
        maps: list[dict] = [dict() for _ in range(n)]
        for j, m, c in terms:
            if not 0 <= j < n:
                raise SeriesError(f"component index {j} out of range")
            m = tuple(m)
            maps[j][m] = maps[j][m] + c if m in maps[j] else c
        return cls([ScalarSeries(n, trunc, mp) for mp in maps])

    def __getitem__(self, i: int) -> ScalarSeries:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def low_degree(self) -> int:
        degs = [c.low_degree() for c in self.components if not c.is_zero()]
        return min(degs) if degs else -1

    def truncate(self, trunc: int) -> "VectorSeries":
        return VectorSeries([c.truncate(trunc) for c in self.components])

    def with_trunc(self, trunc: int) -> "VectorSeries":
        return VectorSeries([c.with_trunc(trunc) for c in self.components])

    def __add__(self, other):
        if not isinstance(other, VectorSeries):
            return NotImplemented
        return VectorSeries([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, VectorSeries):
            return NotImplemented
        return VectorSeries([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return VectorSeries([-c for c in self.components])

    def scale(self, c) -> "VectorSeries":
        return VectorSeries([comp.scale(c) for comp in self.components])

    def constant_part(self) -> tuple[Scalar, ...]:
        return tuple(c.constant_term() for c in self.components)

    def linear_matrix(self) -> list[list[Scalar]]:
        """The n x n matrix of degree-1 coefficients."""
        units = [tuple(int(k == j) for k in range(self.n)) for j in range(self.n)]
        return [[comp.coeff(e) for e in units] for comp in self.components]

    def strip_low(self, min_degree: int) -> "VectorSeries":
        """Drop all terms of total degree < min_degree."""
        return VectorSeries([
            ScalarSeries._make(self.n, self.trunc, {m: c for m, c in comp.coeffs.items() if sum(m) >= min_degree})
            for comp in self.components
        ])

    def homogeneous_part(self, s: int) -> "VectorSeries":
        return VectorSeries([c.homogeneous_part(s) for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, VectorSeries):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return f"VectorSeries(n={self.n}, trunc={self.trunc}, {str(self)})"


# -- the composition engine --------------------------------------------------


def graded(s: ScalarSeries, trunc: int) -> list[dict]:
    """The homogeneous parts of s through degree trunc: out[d] holds the degree-d terms."""
    out: list[dict] = [{} for _ in range(trunc + 1)]
    for m, c in s.coeffs.items():
        d = sum(m)
        if d <= trunc:
            out[d][m] = c
    return out


def _pack(coeffs: dict, weights: Sequence[int]) -> tuple:
    """The packed part (den, re, im) of exponent -> scalar terms."""
    den = 1
    for c in coeffs.values():
        if type(c) is GaussianRational:
            den = lcm(den, c.re.denominator, c.im.denominator)
        else:
            den = lcm(den, c.denominator)
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for m, c in coeffs.items():
        k = sum(map(mul, m, weights))
        if type(c) is GaussianRational:
            im[k] = c.im.numerator * (den // c.im.denominator)
            c = c.re
        if c:
            re[k] = c.numerator * (den // c.denominator)
    return den, re, im


def _exponent(k: int, n: int, base: int) -> Exponent:
    m = []
    for _ in range(n - 1):
        k, e = divmod(k, base)
        m.append(e)
    m.append(k)
    return tuple(m)


def _scalars(part: tuple, offset: int = 0) -> dict[int, Scalar]:
    """offset + packed key -> scalar, for the terms of a packed part."""
    den, re, im = part
    out: dict[int, Scalar] = {offset + k: Fraction(v, den) for k, v in re.items()}
    for k, v in im.items():
        out[offset + k] = GaussianRational(out.get(offset + k, 0), Fraction(v, den))
    return out


def _unpack(part: tuple, n: int, base: int) -> dict:
    """Exponent -> scalar terms of a packed part."""
    return {_exponent(k, n, base): c for k, c in _scalars(part).items()}


def _kmul(acc: dict, a: dict, b: dict, f: int) -> None:
    """acc += f * a * b over packed int dicts, zeros left in place."""
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    for kb, vb in b.items():
        fb = f * vb
        for ka, va in a.items():
            k = ka + kb
            acc[k] = get(k, 0) + fb * va


def _products(pairs: Sequence[tuple[tuple, tuple]]) -> tuple:
    """The packed sum of a * b over pairs of packed parts, over the lcm of
    the pairs' denominators and reduced by its content once."""
    pairs = [(a, b) for a, b in pairs if (a[1] or a[2]) and (b[1] or b[2])]
    den = lcm(*(a[0] * b[0] for a, b in pairs))
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for (da, ar, ai), (db, br, bi) in pairs:
        f = den // (da * db)
        _kmul(re, ar, br, f)
        if ai:
            _kmul(re, ai, bi, -f)
            _kmul(im, ai, br, f)
        if bi:
            _kmul(im, ar, bi, f)
    return _reduced(den, {k: v for k, v in re.items() if v}, {k: v for k, v in im.items() if v})


def _reduced(den: int, re: dict, im: dict) -> tuple:
    """(den, re, im), free of zero numerators, with its content divided out."""
    g = gcd(den, *re.values(), *im.values())
    if g == 1:
        return den, re, im
    return den // g, {k: v // g for k, v in re.items()}, {k: v // g for k, v in im.items()}


class Powers:
    """Homogeneous parts of the powers P^m of an inner map P, computed online.

    P = (P_1, ..., P_n) has no constant term and may be known only through
    some degree: ``parts[i][d]`` holds the packed degree-d part of P_i, and
    `extend` adds the next degree.  With m = m' + e_i (i the last index with
    m_i > 0), [P^m]_s = sum_k [P^m']_k [P_i]_(s-k) over |m'| <= k < s, so for
    |m| >= 2 the degree-s part needs P only through degree s - 1.  Each part
    is computed once and cached under the packed key of m; parts below degree
    |m| are empty.  No degree exceeds ``trunc``, the packing base less one.
    """

    __slots__ = ("n", "base", "weights", "parts", "cache", "degrees")

    def __init__(self, parts: Sequence[Sequence[dict]], trunc: int):
        n = self.n = len(parts)
        self.base = trunc + 1
        self.weights = [self.base**i for i in range(n)]
        self.parts: list[list[tuple]] = [[] for _ in range(n)]
        self.cache = dict(zip(self.weights, self.parts))
        self.degrees = dict.fromkeys(self.weights, 1)  # key -> |m|
        for new in zip(*parts):
            self.extend(new)

    @classmethod
    def of(cls, inner: VectorSeries, trunc: int) -> "Powers":
        """The powers of a fully known inner map, through degree trunc."""
        if any(c != 0 for c in inner.constant_part()):
            raise SeriesError("inner map has a constant term")
        return cls([graded(c.truncate(trunc), trunc) for c in inner.components], trunc)

    def extend(self, new: Sequence[dict | tuple]) -> None:
        """Append the next homogeneous part of every component of P, given
        as exponent -> scalar terms or packed."""
        if len(self.parts[0]) == self.base:
            raise SeriesError(f"inner map extended beyond degree {self.base - 1}")
        for col, part in zip(self.parts, new):
            col.append(part if type(part) is tuple else _pack(part, self.weights))

    def pack(self, s: ScalarSeries) -> list[tuple]:
        """The packed homogeneous parts of s through this table's degree."""
        return [_pack(part, self.weights) if part else (1, {}, {}) for part in graded(s, self.base - 1)]

    def unpack(self, part: tuple) -> dict:  # exponent -> scalar terms
        return _unpack(part, self.n, self.base)

    def part(self, k: Exponent | int, s: int) -> tuple:
        """[P^m]_s for |m| >= 1, packed; k is m or its packed key."""
        if type(k) is not int:
            k = sum(map(mul, k, self.weights))
        col = self.cache.get(k)
        if col is None:  # zero parts below degree |m|, never written to
            d = self.degrees[k] = sum(_exponent(k, self.n, self.base))
            col = self.cache[k] = [(1, {}, {})] * d
        if len(col) > s:
            return col[s]
        i = bisect_right(self.weights, k) - 1  # the last variable of m
        prev = k - self.weights[i]
        if not prev:
            raise SeriesError(f"inner map not known through degree {s}")
        if s >= self.base:
            raise SeriesError(f"degree {s} exceeds the powers' degree {self.base - 1}")
        self.part(prev, s - 1)
        low, low_col, Pi = self.degrees[prev], self.cache[prev], self.parts[i]
        while len(col) <= s:
            t = len(col)
            col.append(_products([(low_col[j], Pi[t - j]) for j in range(low, t)]))
        return col[s]

    def compose(self, outers: Sequence[ScalarSeries], trunc: int) -> list[ScalarSeries]:
        """outer o P through degree trunc for each outer series; their constant terms pass through."""
        if any(o.n != self.n for o in outers):
            raise SeriesError("composition dimension mismatch")
        if trunc >= len(self.parts[0]):
            raise SeriesError(f"inner map not known through degree {trunc}")
        out = []
        for o in outers:
            coeffs = {m: c for m, c in o.coeffs.items() if not any(m)}
            packed = self.pack(o)
            for s in range(1, trunc + 1):
                coeffs.update(self.unpack(_products(_pairs(packed, self, s))))
            out.append(ScalarSeries._make(self.n, trunc, coeffs))
        return out


def _pairs(outer: Sequence[tuple], powers: Powers, s: int, low: int = 1, sign: int = 1) -> list:
    """The (coefficient, [P^m]_s) pairs whose packed products sum to sign times
    the degree-s part of outer o P, where outer[d] is the packed degree-d part
    of one outer series (keyed as in `powers`) and its parts below degree low
    are left out."""
    part = powers.part
    out = []
    for den, re, im in outer[low : s + 1]:
        if im:
            out += [((den, {0: sign * re[k]} if k in re else {}, {0: sign * im[k]} if k in im else {}), part(k, s))
                    for k in re.keys() | im.keys()]
        else:
            out += [((den, {0: sign * v}, {}), part(k, s)) for k, v in re.items()]
    return out


def _derivative_pairs(P: Powers, Q: Powers, s: int, low: int, sign: int = 1) -> list[list]:
    """For each component j, the packed pairs whose products sum to sign
    times the degree-s part of DP_j(y) Q(y), over the parts the two tables
    hold and leaving out the parts of P and of Q below degree low."""
    w, base = P.weights, P.base
    out = []
    for comp in P.parts:
        pairs = []
        for k in range(low, min(s + 2 - low, len(comp))):
            den, re, im = comp[k]
            for i, col in enumerate(Q.parts):
                if (re or im) and s - k + 1 < len(col):
                    pairs.append(((den, _diff(re, w[i], base, sign), _diff(im, w[i], base, sign)), col[s - k + 1]))
        out.append(pairs)
    return out


def _diff(nums: dict, w: int, base: int, sign: int) -> dict:
    """The packed numerators of sign times d/dy_i, where w = base^i."""
    return {k - w: sign * v * e for k, v in nums.items() if (e := k // w % base)}


def compose_scalar(outer: ScalarSeries, inner: VectorSeries, trunc: int | None = None) -> ScalarSeries:
    """Exact truncation of outer(inner(y)); inner must have no constant term."""
    if trunc is None:
        trunc = min(outer.trunc, inner.trunc)
    return Powers.of(inner, trunc).compose([outer], trunc)[0]


def compose(outer: VectorSeries, inner: VectorSeries, trunc: int | None = None) -> VectorSeries:
    """Componentwise exact truncated composition outer o inner."""
    if trunc is None:
        trunc = min(outer.trunc, inner.trunc)
    return VectorSeries(Powers.of(inner, trunc).compose(outer.components, trunc))


def invert(phi: VectorSeries, trunc: int | None = None) -> VectorSeries:
    """Compositional inverse of a tangent-to-identity map, in one online pass.

    With phi = id + h, the inverse solves psi = id - h o psi.  h starts at
    degree two, so the degree-s part of h o psi needs psi only below degree
    s: each degree of psi is settled once, and its powers grow with it.
    The result satisfies compose(phi, psi) == compose(psi, phi) == identity
    through the truncation degree exactly.
    """
    if trunc is None:
        trunc = phi.trunc
    n = phi.n
    if any(c != 0 for c in phi.constant_part()):
        raise SeriesError("map to invert has a constant term")
    lin = phi.linear_matrix()
    if any(lin[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        raise SeriesError("linear part is not the identity; factor it out first")
    powers = Powers([graded(c, 1) for c in VectorSeries.identity(n, 1).components], trunc)
    h = [powers.pack(c) for c in phi.truncate(trunc).components]
    for s in range(2, trunc + 1):
        powers.extend([_products(_pairs(c, powers, s, 2, -1)) for c in h])
    return VectorSeries._from_parts([[powers.unpack(p) for p in col] for col in powers.parts], trunc)


# -- matrices of series ------------------------------------------------------


def jacobian(F: VectorSeries) -> list[list[ScalarSeries]]:
    """Matrix of partial derivatives, entry (i, j) = dF_i/dy_j."""
    return [[comp.diff(j) for j in range(F.n)] for comp in F.components]


def gradient(V: ScalarSeries) -> VectorSeries:
    return VectorSeries([V.diff(j) for j in range(V.n)])


def mat_vec(
    M: Sequence[Sequence[ScalarSeries]], X: VectorSeries, trunc: int | None = None
) -> VectorSeries:
    if trunc is None:
        trunc = min(min(min(e.trunc for e in row) for row in M), X.trunc)
    return VectorSeries([_dot(row, X.components, X.n, trunc) for row in M])


def _dot(xs: Sequence[ScalarSeries], ys: Sequence[ScalarSeries], n: int, trunc: int) -> ScalarSeries:
    """sum x_i * y_i through degree trunc, as one sum of packed products."""
    w = [(trunc + 1) ** i for i in range(n)]
    pairs = []
    for x, y in zip(xs, ys):
        if x.n != n or y.n != n:
            raise SeriesError(f"dimension mismatch: {x.n} vs {y.n} in dimension {n}")
        a, b = _packed_degrees(x, trunc, w), _packed_degrees(y, trunc, w)
        pairs += [(pa, pb) for da, pa in a for db, pb in b if da + db <= trunc]
    return ScalarSeries._make(n, trunc, _unpack(_products(pairs), n, trunc + 1))


def _packed_degrees(s: ScalarSeries, trunc: int, weights: Sequence[int]) -> list[tuple[int, tuple]]:
    """(d, packed degree-d part of s) for each degree d <= trunc present in s."""
    parts: dict[int, dict] = {}
    for m, c in s.coeffs.items():
        d = sum(m)
        if d <= trunc:
            parts.setdefault(d, {})[m] = c
    return [(d, _pack(p, weights)) for d, p in parts.items()]


def det_series(M: Sequence[Sequence[ScalarSeries]], trunc: int | None = None) -> ScalarSeries:
    """Exact truncated determinant via minor expansion memoized on column sets.

    Division-free: fraction-free elimination would need exact quotients that
    truncation destroys, so cofactor expansion is used at every size.
    """
    k = len(M)
    if any(len(row) != k for row in M):
        raise SeriesError("determinant of a non-square matrix")
    n = M[0][0].n
    if trunc is None:
        trunc = min(min(e.trunc for e in row) for row in M)
    # minors[cols] = det of rows 0..len(cols)-1 restricted to cols
    minors: dict[tuple[int, ...], ScalarSeries] = {(): ScalarSeries.one(n, trunc)}
    for size in range(1, k + 1):
        nxt: dict[tuple[int, ...], ScalarSeries] = {}
        row = M[size - 1]
        for cols in combinations(range(k), size):
            entries, subs = [], []
            for pos, j in enumerate(cols):
                entry = row[j]
                if entry.is_zero():
                    continue
                # expansion along the last used row: sign (-1)^(row+pos)
                entries.append(entry if (size - 1 + pos) % 2 == 0 else -entry)
                subs.append(minors[cols[:pos] + cols[pos + 1 :]])
            nxt[cols] = _dot(entries, subs, n, trunc)
        minors = nxt
    return minors[tuple(range(k))]


def cross(vs: Sequence[VectorSeries], trunc: int | None = None) -> VectorSeries:
    """Generalized cross product of n-1 vectors in dimension n.

    Returns the vector c with <c, w> = det(w; v_1; ...; v_{n-1}) for every w;
    c is exactly orthogonal to each input.
    """
    vs = list(vs)
    if not vs:
        raise SeriesError("cross product needs at least one vector")
    n = vs[0].n
    if len(vs) != n - 1:
        raise SeriesError(f"cross product in dimension {n} needs {n-1} vectors")
    if any(v.n != n for v in vs):
        raise SeriesError("cross product dimension mismatch")
    if trunc is None:
        trunc = min(v.trunc for v in vs)
    comps = []
    for j in range(n):
        minor = [[v.components[c] for c in range(n) if c != j] for v in vs]
        d = det_series(minor, trunc) if n > 1 else ScalarSeries.one(n, trunc)
        comps.append(d if j % 2 == 0 else -d)
    return VectorSeries(comps)


def unit_power(u: ScalarSeries, r, trunc: int | None = None) -> ScalarSeries:
    """Exact truncation of (1 + u)^r for rational r; u must have no constant term."""
    if u.constant_term() != 0:
        raise SeriesError("unit_power needs a series without constant term")
    r = Fraction(r)
    if trunc is None:
        trunc = u.trunc
    u = u.truncate(trunc)
    result = ScalarSeries.one(u.n, trunc)
    term = ScalarSeries.one(u.n, trunc)
    low = u.low_degree()
    if low < 0:
        return result
    k = 0
    while k * low <= trunc:
        k += 1
        coef = Fraction(r - (k - 1), k)
        if coef == 0:
            break
        term = term.mul(u, trunc).scale(coef)
        if term.is_zero():
            break
        result = result + term
    return result


def scalar_inner(a: VectorSeries, b: VectorSeries, trunc: int | None = None) -> ScalarSeries:
    """Exact truncated inner product <a, b> = sum a_i * b_i."""
    if a.n != b.n:
        raise SeriesError("inner product dimension mismatch")
    if trunc is None:
        trunc = min(a.trunc, b.trunc)
    return _dot(a.components, b.components, a.n, trunc)
