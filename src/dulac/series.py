"""Sparse exact multivariate truncated power series.

A series knows its dimension ``n`` and truncation degree ``trunc``; only
monomials of total degree <= trunc are representable and explicit zeros are
never stored.  All arithmetic is exact over Q and Q(i).  Series are
immutable and every operation is a pure function, so sharing a series across
threads is safe; a `Powers` table fills as it is read, so one (and a system
holding one) is read from one thread.

Binary operations take an explicit output truncation degree and default to
the minimum of the operands' degrees, which prevents silently claiming more
precision than the inputs carry.

A series is stored as its homogeneous parts, each packed, as ``(den, re,
im)``: one positive int denominator, and two dicts from a packed monomial key
to a nonzero int numerator (``im`` is empty over Q), with a content of one,
so equal series have equal parts; trailing zero parts are not kept, so a
large ``trunc`` stays sparse.  The key of m is sum m_i * base^i with base =
trunc + 1 (Monagan and Pearce, CASC 2007); no exponent of a kept product
exceeds trunc, so adding two keys multiplies the monomials with no carry.
Operands of different truncation degrees meet in one base through
`_rekeyed`, the only code that moves keys.  One routine, `_packed`, packs
coefficients given as ints ([num, den], or [re_num, re_den, im_num, im_den]
for a Gaussian rational, as JSON writes them): the public constructor
validates every exponent and scalar and packs through it, and a term list
already validated by the front end packs through the trusted
``ScalarSeries._from_ints`` without becoming scalars first.  Results the
package builds itself skip packing through the trusted
``ScalarSeries._make``.  `int_terms` reads the terms back as reduced ints,
and Fractions and Gaussian rationals are built only where a series is read
as scalars: `coeff`, `terms` and `coeffs`.

One integer kernel, `_kmul`, does every product; a sum of the products of a
list of pairs is taken over the lcm of their denominators, and its content
is divided out once (`_products`, which returns the shared zero part when no
pair is live).  A pair is (scalar, part) or (part, part), a scalar (den, re,
im) with two ints for numerators: a constant factor, and each coefficient of
an outer series in a composition (`_pairs`), is a scalar and builds no
dicts, and a scalar or a one-term real part multiplies inline.  All
composition runs through one engine, `Powers`: for an inner map P known
through degree s - 1 it yields the degree-s part of every power P^m with
|m| >= 2, each part computed once from m = m' + e_i and cached under the
key of m.  A table of a fully known P composes through any degree up to its
own (`Powers.compose`; a map keeps one, `System.powers`); the normalizer's
degree loop feeds one a degree at a time: the relaxed ("online")
evaluation of J. van der Hoeven, "Relax, but don't be too lazy", J.
Symbolic Comput. 34 (2002).  The tables the package builds, of Phi = y +
phi, of a normal form and of a map, have a diagonal linear part c y, and a
table notes once whether its own is one with every c_i nonzero.  Then each
first part [P^m]_|m| is the monomial c^m y^m, the product of two one-term
parts, and a composition's top degree, the degree-s part o_s of the outer
series at degree s, is one (scalar, part) pair: o_s itself when c = 1, else
o_s scaled term by term by the cached c^m (`Powers.top`); and W = V o P^-1
is solved from W o P = V degree by degree, with no inverse of P built
(`Powers.pull`: `invert`, the integrals' pullback, the embedding's det(DF) o
F^-1), each degree divided by c^m through `_divided`, the one term-wise
division (both scale term by term in `_termwise`).  An inner map whose linear part is not
diagonal, or has a zero coefficient, takes the general path and has no
`pull`.

Every derivative is read off V's differentiated parts (`_gradients`): as
series by `gradient` and `jacobian`, and along a field, <grad V, X>, as the
pairs `_lie_pairs` lists (`lie_derivative`, the normalizer's field loop and
residual, the field integrals).  Every determinant is read from one table of
minors (`_minors`): `det_series` the full one, `cross` the maximal ones.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DulacError
from .scalars import GaussianRational, Scalar, format_scalar, is_int, scalar_to_json

Exponent = tuple[int, ...]


class SeriesError(DulacError):
    """Dimension mismatch, bad exponents, or violated series preconditions."""


def grlex_key(m: Exponent) -> tuple[int, Exponent]:
    return (sum(m), m)


def _check_exponent(m, n: int, trunc: int) -> int:
    """The degree of a valid exponent m."""
    if len(m) != n:
        raise SeriesError(f"exponent {m} has length {len(m)}, expected {n}")
    if any(not is_int(e) or e < 0 for e in m):
        raise SeriesError(f"exponent {m} has negative or non-integer entries")
    if (d := sum(m)) > trunc:
        raise SeriesError(f"exponent {m} exceeds truncation degree {trunc}")
    return d


class ScalarSeries:
    """A scalar-valued series, stored as its packed homogeneous parts:
    ``parts[d]`` is the degree-d part (den, re, im), keyed with base trunc +
    1, for d through the last nonzero part."""

    __slots__ = ("n", "trunc", "parts")

    def __init__(self, n: int, trunc: int, coeffs: dict | None = None):
        if n < 1:
            raise SeriesError("dimension must be >= 1")
        if trunc < 0:
            raise SeriesError("truncation degree must be >= 0")
        terms = []
        for m, c in (coeffs or {}).items():
            m = tuple(m)
            d = _check_exponent(m, n, trunc)
            if not (is_int(c) or isinstance(c, (Fraction, GaussianRational))):
                raise SeriesError(f"coefficient {c!r} of {m} is not an int, Fraction or GaussianRational")
            if c:
                terms.append((d, m, scalar_to_json(c)))
        self.n = n
        self.trunc = trunc
        self.parts = _graded(n, trunc, terms)

    @classmethod
    def _from_ints(cls, n: int, trunc: int, terms: Iterable[tuple[int, Sequence[int], Sequence[int]]]) -> "ScalarSeries":
        """Trusted constructor from validated (degree, exponent, coefficient
        ints) terms, degrees <= trunc, as `_packed` takes them: no scalar is
        built, and repeated exponents are summed."""
        return cls._make(n, trunc, _graded(n, trunc, terms))

    @classmethod
    def _make(cls, n: int, trunc: int, parts: list) -> "ScalarSeries":
        """Trusted constructor: `parts` are canonical packed parts keyed with
        base trunc + 1, through degree <= trunc, and are owned by the new
        series; its trailing zero parts are dropped."""
        while parts and not (parts[-1][1] or parts[-1][2]):
            parts.pop()
        self = object.__new__(cls)
        self.n = n
        self.trunc = trunc
        self.parts = parts
        return self

    def _keyed(self, top: int, base: int | None = None) -> list[tuple]:
        """The parts through degree top, keyed with base (default top + 1)."""
        return _rekeyed(self.parts, self.n, self.trunc + 1, top, base or top + 1)

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

    # -- inspection: the only places scalars are built ----------------------

    def coeff(self, m) -> Scalar:
        return self.coeffs.get(tuple(m), Fraction(0))

    def _items(self):
        """(exponent, scalar) for every term, degree by degree."""
        n, base = self.n, self.trunc + 1
        for den, re, im in self.parts:
            for k in re.keys() | im.keys() if im else re:
                r = Fraction(re.get(k, 0), den)
                yield _exponent(k, n, base), GaussianRational(r, Fraction(im[k], den)) if k in im else r

    @property
    def coeffs(self) -> dict[Exponent, Scalar]:
        """A new exponent -> scalar dict of the terms."""
        return dict(self._items())

    def terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in graded lexicographic order (canonical)."""
        return sorted(self._items(), key=lambda t: grlex_key(t[0]))

    def int_terms(self) -> Iterator[tuple[list[int], list[int]]]:
        """(exponent, coefficient) lists for every term in graded
        lexicographic order, each coefficient in lowest terms as
        `scalars.scalar_to_json` writes it ([num, den], or [re_num, re_den,
        im_num, im_den] when it is not real), read off the parts without
        building a scalar."""
        n, base = self.n, self.trunc + 1
        for den, re, im in self.parts:
            for m, k in sorted((_exponent(k, n, base), k) for k in (re.keys() | im.keys() if im else re)):
                a = re.get(k, 0)
                g = gcd(a, den)
                if k in im:
                    b = im[k]
                    h = gcd(b, den)
                    yield list(m), [a // g, den // g, b // h, den // h]
                else:
                    yield list(m), [a // g, den // g]

    def exponents(self) -> list[Exponent]:
        """The exponents of the terms in graded lexicographic order, read
        without building their scalars."""
        keys = (k for _, re, im in self.parts for k in (re.keys() | im.keys() if im else re))
        return sorted((_exponent(k, self.n, self.trunc + 1) for k in keys), key=grlex_key)

    def constant_term(self) -> Scalar:
        return self.coeff((0,) * self.n)

    def is_zero(self) -> bool:
        return not self.parts

    def low_degree(self) -> int:
        """Smallest total degree present; -1 for the zero series."""
        return next((d for d, (_, re, im) in enumerate(self.parts) if re or im), -1)

    def homogeneous_part(self, s: int) -> "ScalarSeries":
        return ScalarSeries._make(self.n, self.trunc, [_ZERO] * s + self.parts[s : s + 1])

    # -- structure ---------------------------------------------------------

    def truncate(self, trunc: int) -> "ScalarSeries":
        if trunc > self.trunc:
            raise SeriesError(
                f"cannot truncate to degree {trunc}: value only certified to "
                f"{self.trunc} (use with_trunc to assert exactness)"
            )
        if trunc == self.trunc:
            return self
        return self.with_trunc(trunc)

    def with_trunc(self, trunc: int) -> "ScalarSeries":
        """Re-declare the truncation degree (treats the value as exact)."""
        return ScalarSeries._make(self.n, trunc, self._keyed(trunc))

    # -- arithmetic ---------------------------------------------------------

    def _binary_trunc(self, other: "ScalarSeries") -> int:
        if self.n != other.n:
            raise SeriesError(f"dimension mismatch: {self.n} vs {other.n}")
        return min(self.trunc, other.trunc)

    def _plus(self, other, sign: int):
        """self + sign * other, part by part."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ScalarSeries.const(self.n, self.trunc, other)
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        trunc = self._binary_trunc(other)
        parts = [_sum(p, q, sign) for p, q in zip_longest(self._keyed(trunc), other._keyed(trunc), fillvalue=_ZERO)]
        return ScalarSeries._make(self.n, trunc, parts)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "ScalarSeries":
        _check_scalar(c)
        return self._scaled(scalar_to_json(c))

    def _scaled(self, c: Sequence[int]) -> "ScalarSeries":
        """self times the scalar of coefficient ints c, as `_packed` takes them."""
        f = _packed([(0, c)])
        return ScalarSeries._make(self.n, self.trunc, [_products([(p, f)]) for p in self.parts])

    def mul(self, other: "ScalarSeries", trunc: int | None = None) -> "ScalarSeries":
        """Exact truncated product; every kept coefficient is the full
        convolution, summed over pairs of the operands' homogeneous parts."""
        if trunc is None:
            trunc = self._binary_trunc(other)
        elif self.n != other.n:
            raise SeriesError(f"dimension mismatch: {self.n} vs {other.n}")
        return _dot([self], [other], self.n, trunc)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        if self.n != other.n:
            return False
        a, b = (self, other) if self.trunc >= other.trunc else (other, self)
        return a.parts == b._keyed(b.trunc, a.trunc + 1)

    def __hash__(self):
        # blind to trunc, as == is: the numerators without their keys
        return hash((self.n, tuple((den, frozenset(re.values()), frozenset(im.values())) for den, re, im in self.parts)))

    def __str__(self):
        bits = (f"({format_scalar(c)})" + "".join(f"*y{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e)
                for m, c in self.terms())
        return " + ".join(bits) or "0"

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
        if trunc < 1:
            raise SeriesError(f"a linear map needs truncation degree >= 1, not {trunc}")
        for c in diag:
            _check_scalar(c)
        return cls([ScalarSeries._from_ints(n, trunc, [(1, [int(i == j) for j in range(n)], scalar_to_json(c))])
                    for i, c in enumerate(diag)])

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

    def strip_low(self, min_degree: int) -> "VectorSeries":
        """Drop all terms of total degree < min_degree."""
        return VectorSeries([
            ScalarSeries._make(self.n, self.trunc, [_ZERO] * min_degree + comp.parts[min_degree:])
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


# -- packed parts --------------------------------------------------------------


_ZERO = (1, {}, {})  # the packed zero part, shared and never written to


def _check_scalar(c) -> None:
    if not (is_int(c) or isinstance(c, (Fraction, GaussianRational))):
        raise SeriesError(f"scalar {c!r} is not an int, Fraction or GaussianRational")


def _packed(terms: Sequence[tuple[int, Sequence[int]]]) -> tuple:
    """The canonical packed part (den, re, im) of (key, coefficient ints)
    terms, each coefficient (num, den) or (re_num, re_den, im_num, im_den)
    with nonzero denominators of either sign: the one packing routine.  The
    terms of a repeated key are summed and zero sums dropped; the content is
    divided out once, over the lcm of the denominators."""
    den = lcm(*(c[1] for _, c in terms), *(c[-1] for _, c in terms))
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for k, c in terms:
        re[k] = re.get(k, 0) + c[0] * (den // c[1])
        if len(c) == 4 and c[2]:
            im[k] = im.get(k, 0) + c[2] * (den // c[3])
    return _reduced(den, re, im)


def _graded(n: int, trunc: int, terms: Iterable[tuple[int, Sequence[int], Sequence[int]]]) -> list:
    """The packed parts, keyed with base trunc + 1, of (degree, exponent,
    coefficient ints) terms."""
    w = [(trunc + 1) ** i for i in range(n)]
    degrees: dict[int, list] = {}
    for d, m, c in terms:
        degrees.setdefault(d, []).append((sum(map(mul, m, w)), c))
    parts = [_ZERO] * (max(degrees, default=-1) + 1)
    for d, terms in degrees.items():
        parts[d] = _packed(terms)
    return parts


def _exponent(k: int, n: int, base: int) -> Exponent:
    m = []
    for _ in range(n - 1):
        k, e = divmod(k, base)
        m.append(e)
    m.append(k)
    return tuple(m)


def _rekeyed(parts: list, n: int, base: int, top: int, new_base: int) -> list:
    """The parts through degree top, their keys moved from base to new_base
    (both above top): the one place where keys change base."""
    if top + 1 < len(parts):
        parts = parts[: top + 1]
    if new_base == base or n == 1:
        return parts
    w = [new_base**i for i in range(n)]
    return [(den, *({sum(map(mul, _exponent(k, n, base), w)): v for k, v in nums.items()} for nums in (re, im)))
            for den, re, im in parts]


# -- the composition engine --------------------------------------------------


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
    """The packed sum of a * b over pairs, each (scalar, part) or (part,
    part): a scalar (den, re, im) is (re + i im) / den with int re and im,
    and a part a packed part.  Taken over the lcm of the pairs' denominators
    and reduced by its content once; the shared `_ZERO` when no pair has two
    nonzero factors."""
    pairs = [(a, b) for a, b in pairs if (a[1] or a[2]) and (b[1] or b[2])]
    if not pairs:
        return _ZERO
    den = pairs[0][0][0] * pairs[0][1][0] if len(pairs) == 1 else lcm(*(a[0] * b[0] for a, b in pairs))
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for (da, ar, ai), (db, br, bi) in pairs:
        f = den // (da * db)
        if type(ar) is int:  # a scalar (ar + i ai) / da, term by term
            if not (ai or bi):
                fc, get = f * ar, re.get
                for k, v in br.items():
                    re[k] = get(k, 0) + fc * v
                continue
            for c, nums, acc in ((ar, br, re), (ar, bi, im), (-ai, bi, re), (ai, br, im)):
                if c and nums:
                    fc, get = f * c, acc.get
                    for k, v in nums.items():
                        acc[k] = get(k, 0) + fc * v
            continue
        if len(br) + len(bi) > len(ar) + len(ai):
            ar, ai, br, bi = br, bi, ar, ai
        if len(br) == 1 and not bi:  # a one-term real factor, inline
            (kb, vb), = br.items()
            fb, get = f * vb, re.get
            for ka, va in ar.items():
                re[ka + kb] = get(ka + kb, 0) + fb * va
            if ai:
                get = im.get
                for ka, va in ai.items():
                    im[ka + kb] = get(ka + kb, 0) + fb * va
            continue
        _kmul(re, ar, br, f)
        if ai:
            _kmul(re, ai, bi, -f)
            _kmul(im, ai, br, f)
        if bi:
            _kmul(im, ar, bi, f)
    return _reduced(den, re, im)


def _term_product(p: tuple, q: tuple) -> tuple:
    """The one-term part p * q of two one-term parts."""
    (da, ar, ai), (db, br, bi) = p, q
    ka, kb = next(iter(ar or ai)), next(iter(br or bi))
    x, y, u, v = ar.get(ka, 0), ai.get(ka, 0), br.get(kb, 0), bi.get(kb, 0)
    den, re, im = da * db, x * u - y * v, x * v + y * u
    g, k = gcd(den, re, im), ka + kb
    return den // g, {k: re // g} if re else {}, {k: im // g} if im else {}


def _sum(p: tuple, q: tuple, sign: int) -> tuple:
    """The packed part p + sign * q."""
    if not (q[1] or q[2]):
        return p
    if not (p[1] or p[2]) and sign == 1:
        return q
    return _products([((1, 1, 0), p), ((1, sign, 0), q)])


def _divided(den: int, terms: Iterable[tuple[int, int, int, int, int, int]]) -> tuple:
    """The packed part of the terms (a + ib) / den y^k, each divided by its
    nonzero divisor (x + iy) / d, given as (k, a, b, x, y, d): the one
    term-wise division, each term times d (x - iy) / (x^2 + y^2), or d / x
    when y = 0, with (x, y, d) made coprime first."""
    inverses = []
    for k, a, b, x, y, d in terms:
        c = gcd(x, y, d)
        x, y, d = x // c, y // c, d // c
        inverses.append((k, a, b, d * x, -d * y, x * x + y * y) if y else (k, a, b, d if x > 0 else -d, 0, abs(x)))
    return _termwise(den, inverses)


def _termwise(den: int, terms: Sequence[tuple[int, int, int, int, int, int]]) -> tuple:
    """The packed part of the terms (a + ib) / den y^k, each times its
    factor (x + iy) / d, d > 0, given as (k, a, b, x, y, d), over the lcm
    of the factors' denominators."""
    common = lcm(*(t[5] for t in terms))
    re, im = {}, {}
    for k, a, b, x, y, d in terms:
        f = common // d
        if v := (a * x - b * y) * f:
            re[k] = v
        if v := (a * y + b * x) * f:
            im[k] = v
    return _reduced(den * common, re, im)


def _reduced(den: int, re: dict, im: dict) -> tuple:
    """(den, re, im) with its zero numerators dropped and its content
    divided out."""
    if 0 in re.values():
        re = {k: v for k, v in re.items() if v}
    if 0 in im.values():
        im = {k: v for k, v in im.items() if v}
    g = gcd(den, *re.values(), *im.values()) if den != 1 else 1
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

    ``diagonal`` notes, once, whether the linear part of P known at
    construction is c y, one term c_i y_i with c_i != 0 in each component
    (``unit`` when every c_i is 1).  Then the first part [P^m]_|m| is the
    monomial c^m y^m, the product of two one-term parts, and `_pairs` takes
    an outer part of degree s at degree s as one scaled part (`top`).
    """

    __slots__ = ("n", "base", "weights", "parts", "cache", "degrees", "diagonal", "unit")

    def __init__(self, inner: Iterable[ScalarSeries], trunc: int, known: int):
        """The table of the powers of P = inner through degree trunc, with P
        known through degree `known`; `extend` adds its later parts."""
        cols = [c._keyed(known, trunc + 1) for c in inner]
        n = self.n = len(cols)
        self.base = trunc + 1
        self.weights = [self.base**i for i in range(n)]
        self.parts: list[list[tuple]] = [[] for _ in range(n)]
        self.cache = dict(zip(self.weights, self.parts))
        self.degrees = dict.fromkeys(self.weights, 1)  # key -> |m|
        for d in range(known + 1):
            self.extend([col[d] if d < len(col) else _ZERO for col in cols])
        linear = [col[1] if len(col) > 1 else _ZERO for col in self.parts]
        self.diagonal = all(re.keys() | im.keys() == {w} for (_, re, im), w in zip(linear, self.weights))
        self.unit = all(p == (1, {w: 1}, {}) for p, w in zip(linear, self.weights))

    @classmethod
    def of(cls, inner: VectorSeries, trunc: int) -> "Powers":
        """The powers of a fully known inner map, through degree trunc."""
        if any(c.low_degree() == 0 for c in inner):
            raise SeriesError("inner map has a constant term")
        return cls(inner.truncate(trunc), trunc, trunc)

    def extend(self, new: Sequence[tuple]) -> None:
        """Append the next packed homogeneous part of every component of P."""
        if len(self.parts[0]) == self.base:
            raise SeriesError(f"inner map extended beyond degree {self.base - 1}")
        for col, part in zip(self.parts, new):
            col.append(part)

    def exponent(self, k: int) -> Exponent:
        """The exponent m of a packed key of this table."""
        return _exponent(k, self.n, self.base)

    def part(self, k: Exponent | int, s: int) -> tuple:
        """[P^m]_s for |m| >= 1, packed; k is m or its packed key."""
        if type(k) is not int:
            k = sum(map(mul, k, self.weights))
        col = self.cache.get(k)
        if col is None:  # zero parts below degree |m|, never written to
            d = self.degrees[k] = sum(self.exponent(k))
            col = self.cache[k] = [_ZERO] * d
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
        if len(col) == low + 1 and self.diagonal:  # the first part, c^m y^m
            col.append((1, {k: 1}, {}) if self.unit else _term_product(low_col[low], Pi[1]))
        while len(col) <= s:
            t = len(col)
            col.append(_products([(low_col[j], Pi[t - j]) for j in range(low, t)]))
        return col[s]

    def top(self, part: tuple, s: int, sign: int = 1) -> tuple:
        """For a diagonal table (P's linear part c y), the one (scalar, part)
        pair whose product is sign times the degree-s part of o_s o P, o_s =
        sum_m a_m y^m an outer part of degree s keyed as here: sum_m a_m c^m
        y^m, o_s itself times sign when c = 1, else o_s scaled term by term
        by the first parts c^m."""
        if self.unit:
            return (1, sign, 0), part
        den, re, im = part
        firsts = [(k, self.part(k, s)) for k in (re.keys() | im.keys() if im else re)]
        return (1, 1, 0), _termwise(den, [(k, sign * re.get(k, 0), sign * im.get(k, 0), x.get(k, 0), y.get(k, 0), d)
                                          for k, (d, x, y) in firsts])

    def compose(self, outers: Sequence[ScalarSeries], trunc: int) -> list[ScalarSeries]:
        """outer o P through degree trunc for each outer series; their constant terms pass through."""
        if any(o.n != self.n for o in outers):
            raise SeriesError("composition dimension mismatch")
        if trunc >= len(self.parts[0]):
            raise SeriesError(f"inner map not known through degree {trunc}")
        out = []
        for o in outers:
            parts = o._keyed(trunc, self.base)
            new = (parts[:1] or [_ZERO]) + [_products(_pairs(parts, self, s)) for s in range(1, trunc + 1)]
            out.append(ScalarSeries._make(self.n, trunc, _rekeyed(new, self.n, self.base, trunc, trunc + 1)))
        return out

    def pull(self, values: Sequence[ScalarSeries], trunc: int) -> list[ScalarSeries]:
        """For each V, the W = V o P^-1 with W o P = V through degree trunc,
        for a diagonal P known through trunc: as [P^m]_|m| = c^m y^m, W_s is
        V_s - sum_(1 <= |m| < s) w_m [P^m]_s, one packed sum, divided term by
        term by the first parts c^m (as it is when c = 1)."""
        if not self.diagonal:
            raise SeriesError("pull needs an inner map whose linear part is c y with every c_i nonzero")
        if trunc >= len(self.parts[0]):
            raise SeriesError(f"inner map not known through degree {trunc}")
        if any(v.n != self.n for v in values):
            raise SeriesError("composition dimension mismatch")
        out = []
        for v in values:
            parts = v.truncate(trunc)._keyed(trunc, self.base)
            w = parts[:1] or [_ZERO]
            for s in range(1, trunc + 1):
                den, re, im = rhs = _products([((1, 1, 0), p) for p in parts[s : s + 1]] + _pairs(w, self, s, 1, -1))
                if not self.unit:
                    firsts = [(k, self.part(k, s)) for k in (re.keys() | im.keys() if im else re)]
                    rhs = _divided(den, [(k, re.get(k, 0), im.get(k, 0), x.get(k, 0), y.get(k, 0), d)
                                         for k, (d, x, y) in firsts])
                w.append(rhs)
            out.append(ScalarSeries._make(self.n, trunc, _rekeyed(w, self.n, self.base, trunc, trunc + 1)))
        return out


def _pairs(outer: Sequence[tuple], powers: Powers, s: int, low: int = 1, sign: int = 1) -> list:
    """The (scalar, part) pairs whose products sum to sign times the degree-s
    part of outer o P, where outer[d] is the packed degree-d part of one
    outer series (keyed as in `powers`) and its parts below degree low are
    left out: one pair ((den, re, im), [P^m]_s) per term (re + i im) / den
    y^m, the coefficient three ints.  Over a diagonal table, the degree-s
    part of outer is one pair (`Powers.top`)."""
    part = powers.part
    out = []
    if powers.diagonal and low <= s < len(outer):
        if outer[s][1] or outer[s][2]:
            out.append(powers.top(outer[s], s, sign))
        outer = outer[:s]
    for den, re, im in outer[low : s + 1]:
        if im:
            out += [((den, sign * re.get(k, 0), sign * im.get(k, 0)), part(k, s)) for k in re.keys() | im.keys()]
        else:
            out += [((den, sign * v, 0), part(k, s)) for k, v in re.items()]
    return out


def _gradients(parts: Iterable[tuple[int, tuple]], weights: Sequence[int], base: int, sign: int = 1) -> dict:
    """For each (degree e, nonzero packed part of V) in parts, keyed with
    base (weights[i] = base^i), e -> the packed parts of sign times d/dy_i."""
    return {e: [(den, _diff(re, w, base, sign), _diff(im, w, base, sign) if im else {}) for w in weights]
            for e, (den, re, im) in parts if re or im}


def _lie_pairs(grads: dict[int, list[tuple]], X: Sequence[Sequence[tuple]], s: int, low: int = 0) -> list:
    """The packed pairs whose products sum to the degree-s part of <grad V,
    X>, from the `_gradients` of V and X[i][d] the degree-d part of X_i,
    keyed alike, without the parts of V and of X below degree low."""
    return [(g, Xi[s - e + 1]) for e, gs in grads.items() if low <= e <= s + 1 - low
            for g, Xi in zip(gs, X) if s - e + 1 < len(Xi)]


def _diff(nums: dict, w: int, base: int, sign: int) -> dict:
    """The packed numerators of sign times d/dy_i, where w = base^i."""
    return {k - w: sign * v * e for k, v in nums.items() if (e := k // w % base)}


def compose(outer: VectorSeries, inner: VectorSeries, trunc: int | None = None) -> VectorSeries:
    """Componentwise exact truncated composition outer o inner."""
    if trunc is None:
        trunc = min(outer.trunc, inner.trunc)
    return VectorSeries(Powers.of(inner, trunc).compose(outer.components, trunc))


def invert(phi: VectorSeries, trunc: int | None = None) -> VectorSeries:
    """Compositional inverse of a tangent-to-identity map: the psi with psi
    o phi = id, pulled through one table of phi (`Powers.pull`).  The result
    satisfies compose(phi, psi) == compose(psi, phi) == identity through the
    truncation degree exactly.
    """
    if trunc is None:
        trunc = phi.trunc
    h, ident = phi.truncate(trunc), VectorSeries.identity(phi.n, trunc)
    if any(c.low_degree() == 0 for c in h):
        raise SeriesError("map to invert has a constant term")
    if any(c.parts[1:2] != e.parts[1:] for c, e in zip(h, ident)):
        raise SeriesError("linear part is not the identity; factor it out first")
    return VectorSeries(Powers.of(h, trunc).pull(ident.components, trunc))


# -- matrices of series ------------------------------------------------------


def jacobian(F: VectorSeries) -> list[list[ScalarSeries]]:
    """Matrix of partial derivatives, entry (i, j) = dF_i/dy_j."""
    return [list(gradient(comp)) for comp in F.components]


def gradient(V: ScalarSeries) -> VectorSeries:
    """(dV/dy_i)_i through degree trunc - 1, re-keyed from V's `_gradients`."""
    n, base, trunc = V.n, V.trunc + 1, max(V.trunc - 1, 0)
    grads = _gradients(enumerate(V.parts), [base**i for i in range(n)], base)
    parts = [[_reduced(*grads[e][i]) if e in grads else _ZERO for e in range(1, len(V.parts))] for i in range(n)]
    return VectorSeries([ScalarSeries._make(n, trunc, _rekeyed(p, n, base, trunc, trunc + 1)) for p in parts])


def lie_derivative(V, X: VectorSeries, trunc: int | None = None):
    """<grad V, X>, the derivative of V along the field X (DV * X for a
    VectorSeries V), through trunc (default: that of grad V and X); X may
    have a constant term, and an explicit trunc takes both as exact."""
    if V.n != X.n:
        raise SeriesError(f"dimension mismatch: {V.n} vs {X.n}")
    if trunc is None:
        trunc = min(max(V.trunc - 1, 0), X.trunc)
    # V's parts through degree trunc + 1 meet a constant term of X; without
    # one, all keys stay in base trunc + 1 and the result needs no re-keying
    top = min(V.trunc, trunc + (X.low_degree() == 0))
    base = max(top, trunc) + 1
    w = [base**i for i in range(V.n)]
    xs = [x._keyed(trunc, base) for x in X]

    def along(v: ScalarSeries) -> ScalarSeries:
        grads = _gradients(enumerate(v._keyed(top, base)), w, base)
        parts = [_products(_lie_pairs(grads, xs, s)) for s in range(trunc + 1)]
        return ScalarSeries._make(v.n, trunc, _rekeyed(parts, v.n, base, trunc, trunc + 1))

    return along(V) if isinstance(V, ScalarSeries) else VectorSeries([along(v) for v in V])


def _dot(xs: Sequence[ScalarSeries], ys: Sequence[ScalarSeries], n: int, trunc: int) -> ScalarSeries:
    """sum x_i * y_i through degree trunc, each degree one sum of packed products."""
    sums: list[list] = [[] for _ in range(trunc + 1)]
    for x, y in zip(xs, ys):
        if x.n != n or y.n != n:
            raise SeriesError(f"dimension mismatch: {x.n} vs {y.n} in dimension {n}")
        a, b = x._keyed(trunc), y._keyed(trunc)
        for da, pa in enumerate(a):
            for db, pb in enumerate(b[: trunc + 1 - da]):
                sums[da + db].append((pa, pb))
    return ScalarSeries._make(n, trunc, [_products(pairs) for pairs in sums])


def _minors(rows: Sequence[Sequence[ScalarSeries]], n: int, trunc: int) -> dict[tuple[int, ...], ScalarSeries]:
    """Every k x k minor of the k x m matrix rows through degree trunc, keyed
    by its columns: cofactor expansion along the last row, each minor of
    rows 1..i one `_dot` with the minors of rows 1..i-1.  Division-free:
    fraction-free elimination needs exact quotients that truncation destroys.
    """
    minors: dict[tuple[int, ...], ScalarSeries] = {(): ScalarSeries.one(n, trunc)}
    for size, row in enumerate(rows, 1):
        nxt: dict[tuple[int, ...], ScalarSeries] = {}
        for cols in combinations(range(len(row)), size):
            live = [(pos, j) for pos, j in enumerate(cols) if not row[j].is_zero()]
            # along row i = size - 1 the entry at pos takes the sign (-1)^(i + pos)
            nxt[cols] = _dot([-row[j] if (size - 1 + pos) % 2 else row[j] for pos, j in live],
                             [minors[cols[:pos] + cols[pos + 1 :]] for pos, _ in live], n, trunc)
        minors = nxt
    return minors


def det_series(M: Sequence[Sequence[ScalarSeries]], trunc: int | None = None) -> ScalarSeries:
    """Exact truncated determinant, the one full minor of `_minors`."""
    k = len(M)
    if not k:
        raise SeriesError("determinant of an empty matrix: a 0 x 0 matrix has no series dimension")
    if any(len(row) != k for row in M):
        raise SeriesError("determinant of a non-square matrix")
    if trunc is None:
        trunc = min(min(e.trunc for e in row) for row in M)
    return _minors(M, M[0][0].n, trunc)[tuple(range(k))]


def cross(vs: Sequence[VectorSeries], trunc: int | None = None) -> VectorSeries:
    """Generalized cross product of n-1 vectors in dimension n.

    Returns the vector c with <c, w> = det(w; v_1; ...; v_{n-1}) for every w,
    c_j = (-1)^j times the maximal minor without column j, all from one
    `_minors`; c is exactly orthogonal to each input.
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
    minors = _minors([v.components for v in vs], n, trunc)
    comps = [minors[tuple(c for c in range(n) if c != j)] for j in range(n)]
    return VectorSeries([d if j % 2 == 0 else -d for j, d in enumerate(comps)])


def unit_power(u: ScalarSeries, r, trunc: int | None = None) -> ScalarSeries:
    """Exact truncation of (1 + u)^r for rational r; u must have no constant term."""
    if u.low_degree() == 0:
        raise SeriesError("unit_power needs a series without constant term")
    if not (is_int(r) or isinstance(r, Fraction)):
        raise SeriesError(f"exponent {r!r} is not an int or Fraction")
    p, q = r.numerator, r.denominator
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
        if p == (k - 1) * q:  # the binomial factor (r - k + 1) / k is zero
            break
        term = term.mul(u, trunc)._scaled((p - (k - 1) * q, q * k))
        if term.is_zero():
            break
        result = result + term
    return result
