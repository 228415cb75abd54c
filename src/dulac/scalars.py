"""Exact scalar arithmetic: rationals and Gaussian rationals.

Coefficients throughout the package are either ``fractions.Fraction`` or
``GaussianRational``.  A Gaussian rational with zero imaginary part is never
stored: the ``gaussian`` factory collapses it to a plain ``Fraction``, so
equality and hashing stay structural.  Also here: exact roots and integer
logarithms of rationals, and Gaussian integers (pairs of ints) with their
gcd, a coprime base and valuations over it, for the resonance value keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


class GaussianRational:
    """A complex number with rational parts and nonzero imaginary part."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        if im == 0:
            raise ValueError("zero imaginary part; use gaussian() to build scalars")
        self.re = re
        self.im = im

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Fraction(0)
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result: Scalar = Fraction(1)
        base: Scalar = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "GaussianRational":
        d = self.abs2()
        return GaussianRational(self.re / d, -self.im / d)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        # im != 0 always, so never equal to a real number
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"gaussian({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


Scalar = Union[Fraction, GaussianRational]


def gaussian(re, im=0) -> Scalar:
    """Canonical scalar constructor: returns Fraction when im == 0."""
    if type(re) is not Fraction:
        re = Fraction(re)
    if type(im) is not Fraction:
        im = Fraction(im)
    if im == 0:
        return re
    return GaussianRational(re, im)


def sc_re(z: Scalar) -> Fraction:
    return z.re if isinstance(z, GaussianRational) else Fraction(z)


def sc_im(z: Scalar) -> Fraction:
    return z.im if isinstance(z, GaussianRational) else Fraction(0)


def sc_abs2(z: Scalar) -> Fraction:
    """Squared modulus, always an exact rational."""
    if isinstance(z, GaussianRational):
        return z.abs2()
    if type(z) is not Fraction:
        z = Fraction(z)
    return z * z


def exact_sqrt(q: Fraction) -> Fraction | None:
    """The exact rational square root of q >= 0, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 1, without floats: by bisection for a root of
    at most 2 bitlen(k) + 1 bits, else by Newton's method from the root of x
    shifted down by k*s bits, s half the root's bits (a start within a
    factor 1 + 1/k above the root, where Newton converges quadratically)."""
    b = x.bit_length()
    hi = 1 << -(-b // k)  # x < 2^b, so the root is below 2^ceil(b/k)
    s = (hi.bit_length() - 1) // 2
    if s <= k.bit_length():
        lo = 1 << (b - 1) // k  # x >= 2^(b-1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid ** k <= x else (lo, mid)
        return lo
    y = (iroot(x >> (k * s), k) + 1) << s
    while True:
        t = ((k - 1) * y + x // y ** (k - 1)) // k
        if t >= y:
            return y
        y = t


def primitive_root(q: Fraction) -> Fraction:
    """The x with q = x^k for the largest k, for a positive rational q != 1
    (Bernstein, "Detecting perfect powers in essentially linear time", 1998).
    q is a p-th power when its coprime parts are, and x^p has more than p
    bits for x >= 2: so only primes p below the bit length of each part
    other than 1 are tried, each again after it gave a root."""
    num, den = q.numerator, q.denominator
    top = max(num, den).bit_length()
    sieve = bytearray([0, 0]) + bytearray([1]) * (top - 2)
    for p in range(2, top):
        if not sieve[p]:
            continue
        sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
        while all(p < x.bit_length() for x in (num, den) if x > 1):
            rn, rd = iroot(num, p), iroot(den, p)
            if rn ** p != num or rd ** p != den:
                break
            num, den = rn, rd
    return Fraction(num, den)


def exact_log(beta: Fraction, r: Fraction) -> int | None:
    """The integer c with beta^c = r, for beta > 1, or None."""
    n, b = max(r, 1 / r).numerator, beta.numerator
    lo, hi = 0, (n.bit_length() - 1) // (b.bit_length() - 1)
    while lo < hi:  # the largest c >= 0 with b^c <= n
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if b ** mid <= n else (lo, mid - 1)
    c = lo if r >= 1 else -lo
    return c if beta ** c == r else None


def format_scalar(z: Scalar) -> str:
    if isinstance(z, GaussianRational):
        re, im = z.re, z.im
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"
    return str(Fraction(z))


def scalar_to_json(z: Scalar) -> list[int]:
    """[num, den] for rationals, [re_num, re_den, im_num, im_den] otherwise."""
    if isinstance(z, GaussianRational):
        return [z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator]
    return [z.numerator, z.denominator]


def is_int(x) -> bool:
    """x is an integer as JSON input gives one: true and false are not 1, 0."""
    return type(x) is int


def check_scalar_json(data) -> None:
    """ValueError unless data is a scalar as JSON writes one: [num, den] or
    [re_num, re_den, im_num, im_den], ints with nonzero denominators."""
    if not isinstance(data, list) or len(data) not in (2, 4) or not all(map(is_int, data)):
        raise ValueError(
            "scalars must be integer pairs [num, den] or quadruples "
            "[re_num, re_den, im_num, im_den]"
        )
    if data[1] == 0 or data[-1] == 0:
        raise ValueError("zero denominator in scalar")


def scalar_from_json(data) -> Scalar:
    check_scalar_json(data)
    if len(data) == 2:
        return Fraction(data[0], data[1])
    return gaussian(Fraction(data[0], data[1]), Fraction(data[2], data[3]))


# -- Gaussian integers -------------------------------------------------------

GaussInt = tuple[int, int]  # a + bi as (a, b)


def gauss_parts(z: Scalar) -> tuple[GaussInt, int]:
    """(w, d) with z = w / d, w in Z[i] and d the least positive integer."""
    re, im = sc_re(z), sc_im(z)
    d = math.lcm(re.denominator, im.denominator)
    return (int(re * d), int(im * d)), d


def gauss_associate(x: GaussInt) -> tuple[GaussInt, int]:
    """(y, k) with x = i^k y and y in the first quadrant (re > 0, im >= 0),
    for x != 0: the normal form of x's associates."""
    k = 0
    while x[0] <= 0 or x[1] < 0:
        x, k = (x[1], -x[0]), k + 1
    return x, k


def gauss_quotient(x: GaussInt, y: GaussInt) -> GaussInt | None:
    """x / y when y divides x in Z[i], else None."""
    (a, b), (c, d) = x, y
    norm = c * c + d * d
    re, im = a * c + b * d, b * c - a * d
    return None if re % norm or im % norm else (re // norm, im // norm)


def gauss_gcd(x: GaussInt, y: GaussInt) -> GaussInt:
    """A gcd in Z[i] by Euclid's algorithm with rounded division, each
    remainder at most half the norm of its divisor (`math.gcd` on integers)."""
    if not x[1] and not y[1]:
        return math.gcd(x[0], y[0]), 0
    while y != (0, 0):
        (a, b), (c, d) = x, y
        norm2 = 2 * (c * c + d * d)
        qr = (2 * (a * c + b * d) + norm2 // 2) // norm2
        qi = (2 * (b * c - a * d) + norm2 // 2) // norm2
        x, y = y, (a - qr * c + qi * d, b - qr * d - qi * c)
    return x


def coprime_base(xs) -> list[GaussInt]:
    """Pairwise coprime non-units of Z[i] in normal form such that each
    nonzero x in xs is a unit times a product of them: naive factor
    refinement (Bach, Driscoll & Shallit, "Factor refinement", J. Algorithms
    1993), which splits two elements with a common factor g into g and both
    cofactors until no two share one; each split divides the product of the
    norms by N(g) >= 2, so it ends."""
    base: list[GaussInt] = []
    todo = list(xs)
    while todo:
        x = gauss_associate(todo.pop())[0]
        if x == (1, 0):
            continue
        for k, y in enumerate(base):
            g = gauss_associate(gauss_gcd(x, y))[0]
            if g != (1, 0):
                del base[k]
                todo += [g, gauss_quotient(x, g), gauss_quotient(y, g)]
                break
        else:
            base.append(x)
    return base


def gauss_valuations(x: GaussInt, base: list[GaussInt]) -> tuple[list[int], int]:
    """(v, k) with x = i^k prod_j base[j]^v[j], for a base of `coprime_base`
    whose elements x is a unit times a product of."""
    v = []
    for p in base:
        e = 0
        while (q := gauss_quotient(x, p)) is not None:
            x, e = q, e + 1
        v.append(e)
    x, k = gauss_associate(x)
    if x != (1, 0):
        raise ValueError("not a unit times a product over the base")
    return v, k
