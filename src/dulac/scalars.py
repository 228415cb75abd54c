"""Exact scalar arithmetic: rationals and Gaussian rationals.

Coefficients throughout the package are either ``fractions.Fraction`` or
``GaussianRational``.  A Gaussian rational with zero imaginary part is never
stored: the ``gaussian`` factory collapses it to a plain ``Fraction``, so
equality and hashing stay structural.
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


def sc_div(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, int):
        a = Fraction(a)
    return a / b


def sc_pow(z: Scalar, k: int) -> Scalar:
    if isinstance(z, GaussianRational):
        return z ** k
    return Fraction(z) ** k


def exact_sqrt(q: Fraction) -> Fraction | None:
    """The exact rational square root of q >= 0, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


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
    z = Fraction(z)
    return [z.numerator, z.denominator]


def scalar_from_json(data) -> Scalar:
    if not isinstance(data, list) or len(data) not in (2, 4) or not all(
        isinstance(x, int) for x in data
    ):
        raise ValueError(
            "scalars must be integer pairs [num, den] or quadruples "
            "[re_num, re_den, im_num, im_den]"
        )
    if any(data[i] == 0 for i in (1, 3) if i < len(data)):
        raise ValueError("zero denominator in scalar")
    if len(data) == 2:
        return Fraction(data[0], data[1])
    return gaussian(Fraction(data[0], data[1]), Fraction(data[2], data[3]))
