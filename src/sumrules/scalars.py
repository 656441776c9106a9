"""Scalar arithmetic with two interchangeable backends.

Exact backend: ``int``, ``fractions.Fraction`` and :class:`GaussianRational`
(a complex number with rational real/imaginary parts).  All identities in this
package hold bit-exactly over these types and equality is decidable.

Approximate backend: ``float`` / ``complex`` doubles.  Comparisons involving
them must always go through an explicit tolerance; passing ``tol=None`` to a
comparison helper with a floating-point operand raises ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Union

Scalar = Union[int, Fraction, "GaussianRational", float, complex]


class GaussianRational:
    """Exact complex scalar ``re + im*i`` with rational ``re``, ``im``.

    Arithmetic collapses back to ``Fraction`` whenever the imaginary part
    cancels, so purely real exact computations stay plain rationals.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rational | int, im: Rational | int = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> "GaussianRational | Fraction":
        if im == 0:
            return re
        return GaussianRational(re, im)

    @staticmethod
    def _coerce(other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, Rational):
            return GaussianRational(other, 0)
        return None

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) + other
            return NotImplemented
        return self._make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) - other
            return NotImplemented
        return self._make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other - complex(self)
            return NotImplemented
        return self._make(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) * other
            return NotImplemented
        return self._make(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) / other
            return NotImplemented
        d = o.abs_squared()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self._make((self.re * o.re + self.im * o.im) / d,
                          (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other / complex(self)
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result: GaussianRational | Fraction = Fraction(1)
        base: GaussianRational | Fraction = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


EXACT_TYPES = (int, Fraction, GaussianRational)


def is_exact(x: Scalar) -> bool:
    return isinstance(x, EXACT_TYPES)


def to_complex(x: Scalar) -> complex:
    return complex(x)


def conjugate(x: Scalar) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return x
    return x.conjugate()


def abs_squared(x: Scalar) -> Scalar:
    """``x * conj(x)`` as a real scalar; exact for exact inputs."""
    if isinstance(x, GaussianRational):
        return x.abs_squared()
    if isinstance(x, (int, Fraction)):
        return x * x
    if isinstance(x, complex):
        return (x * x.conjugate()).real
    return x * x


def exact_div(x: Scalar, d: int) -> Scalar:
    """Divide by a positive integer without leaving the exact domain."""
    if d <= 0:
        raise ValueError("divisor must be a positive integer")
    if isinstance(x, int):
        return Fraction(x, d)
    return x / d


def is_zero(x: Scalar, tol: float | None = None) -> bool:
    """Zero test; ``tol=None`` demands an exact scalar."""
    if tol is None:
        if not is_exact(x):
            raise TypeError(
                "floating-point comparison requires an explicit tolerance")
        return x == 0
    return abs(to_complex(x)) <= tol


def close(a: Scalar, b: Scalar, tol: float | None = None) -> bool:
    """Equality up to ``tol``; ``tol=None`` means exact equality."""
    if tol is None:
        if not (is_exact(a) and is_exact(b)):
            raise TypeError(
                "floating-point comparison requires an explicit tolerance")
        return a == b
    return abs(to_complex(a) - to_complex(b)) <= tol


def _neumaier_sum(values: list[float]) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def neumaier_complex_sum(values: Iterable[complex | float]) -> complex:
    """Neumaier sums of the real and of the imaginary parts, in one pass.

    Takes doubles only (``float`` or ``complex``).  Each part goes through
    the same recurrence as a real Neumaier sum, so the result equals two
    separate sums of the parts bit for bit.
    """
    re = re_comp = im = im_comp = 0.0
    for v in values:
        x = v.real
        t = re + x
        if abs(re) >= abs(x):
            re_comp += (re - t) + x
        else:
            re_comp += (x - t) + re
        re = t
        y = v.imag
        t = im + y
        if abs(im) >= abs(y):
            im_comp += (im - t) + y
        else:
            im_comp += (y - t) + im
        im = t
    return complex(re + re_comp, im + im_comp)


def stable_sum(values: Iterable[Scalar]) -> Scalar:
    """Sum that is exact over exact scalars and compensated otherwise.

    Floating-point inputs are accumulated componentwise with Neumaier
    (compensated) summation in a fixed order so results are reproducible;
    the result is real unless a complex value appears.
    """
    vals = list(values)
    if all(is_exact(v) for v in vals):
        total: Scalar = 0
        for v in vals:
            total = total + v
        return total
    if all(isinstance(v, float) for v in vals):
        return _neumaier_sum(vals)
    summed = neumaier_complex_sum([to_complex(v) for v in vals])
    if any(isinstance(v, complex) or
           (isinstance(v, GaussianRational) and v.im != 0) for v in vals):
        return summed
    return summed.real
