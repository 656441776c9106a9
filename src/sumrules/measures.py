"""Measures: generally non-linear functionals on the group of history vectors.

A measure of order n satisfies the (n+1)-argument identity

    mu(a_1 + ... + a_{n+1}) = sum_S (-1)^(n-|S|) mu(sum_{i in S} a_i),

the sum running over subsets S of {1..n+1} with 1 <= |S| <= n.  Order 1 is
plain additivity (classical probability); order 2 is the quadratic case that
covers squared-modulus amplitude rules.

Three concrete variants are provided: black-box measures (a lookup table over
sampled points, or an arbitrary closure), polynomial measures in the additive
per-history coordinates, and squared-modulus amplitude measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import (InvalidInputError, SpaceMismatchError,
                     UnsampledPointError)
from .histories import GroupElement, HistorySpace
from .scalars import (Scalar, abs_squared, exact_div, is_exact,
                      neumaier_complex_sum, stable_sum)


class Measure:
    """Base class: a deterministic evaluator from group elements to scalars."""

    space: HistorySpace

    def __call__(self, g: GroupElement) -> Scalar:
        if g.space != self.space:
            raise SpaceMismatchError(
                "measure and argument live in different history spaces")
        return self._evaluate(g)

    def _evaluate(self, g: GroupElement) -> Scalar:
        raise NotImplementedError


class TableMeasure(Measure):
    """Black-box measure defined only on explicitly sampled points."""

    def __init__(self, space: HistorySpace,
                 values: Mapping[tuple[Scalar, ...], Scalar]):
        self.space = space
        self.values = dict(values)

    def _evaluate(self, g: GroupElement) -> Scalar:
        try:
            return self.values[g.coeffs]
        except KeyError:
            raise UnsampledPointError(
                f"unsampled point {g.coeffs!r}") from None

    def covers(self, g: GroupElement) -> bool:
        return g.coeffs in self.values


class ClosureMeasure(Measure):
    """Black-box measure backed by an arbitrary total evaluator."""

    def __init__(self, space: HistorySpace,
                 fn: Callable[[GroupElement], Scalar]):
        self.space = space
        self.fn = fn

    def _evaluate(self, g: GroupElement) -> Scalar:
        return self.fn(g)


class PolynomialMeasure(Measure):
    """Multivariate polynomial in the additive coordinates g_i.

    Terms map an exponent tuple (one exponent per history) to a coefficient.
    The additive coordinates are taken relative to the standard basis of
    single-history indicator vectors.
    """

    def __init__(self, space: HistorySpace,
                 terms: Mapping[tuple[int, ...], Scalar]):
        self.space = space
        cleaned: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in terms.items():
            if len(exps) != space.size:
                raise SpaceMismatchError(
                    "monomial exponent count does not match the history space")
            if any(e < 0 for e in exps):
                raise ValueError("monomial exponents must be non-negative")
            if is_exact(coeff) and coeff == 0:
                continue
            cleaned[tuple(exps)] = coeff
        self.terms = cleaned
        # Evaluation order: summing the terms by sorted exponent tuple
        # keeps float results independent of how the dict was built.
        self._sorted_terms = sorted(cleaned.items())

    @classmethod
    def zero(cls, space: HistorySpace) -> "PolynomialMeasure":
        return cls(space, {})

    @classmethod
    def coordinate(cls, space: HistorySpace, i: int) -> "PolynomialMeasure":
        exps = tuple(1 if j == i else 0 for j in range(space.size))
        return cls(space, {exps: 1})

    @classmethod
    def linear(cls, space: HistorySpace,
               weights: Sequence[Scalar]) -> "PolynomialMeasure":
        """The additive functional g -> sum_i weights[i] * g_i."""
        terms = {}
        for i, w in enumerate(weights):
            exps = tuple(1 if j == i else 0 for j in range(space.size))
            terms[exps] = w
        return cls(space, terms)

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    @property
    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.space.size, 0)

    def _evaluate(self, g: GroupElement) -> Scalar:
        parts = []
        for exps, coeff in self._sorted_terms:
            term = coeff
            for x, e in zip(g.coeffs, exps):
                if e:
                    term = term * x ** e
            parts.append(term)
        return stable_sum(parts)

    def __add__(self, other: "PolynomialMeasure") -> "PolynomialMeasure":
        if self.space != other.space:
            raise SpaceMismatchError("polynomials over different spaces")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return PolynomialMeasure(self.space, terms)

    def __sub__(self, other: "PolynomialMeasure") -> "PolynomialMeasure":
        return self + (-other)

    def __neg__(self) -> "PolynomialMeasure":
        return PolynomialMeasure(
            self.space, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "PolynomialMeasure") -> "PolynomialMeasure":
        if self.space != other.space:
            raise SpaceMismatchError("polynomials over different spaces")
        terms: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, 0) + c1 * c2
        return PolynomialMeasure(self.space, terms)

    def __pow__(self, d: int) -> "PolynomialMeasure":
        if d < 0:
            raise ValueError("polynomial powers must be non-negative")
        result = PolynomialMeasure(
            self.space, {(0,) * self.space.size: 1})
        for _ in range(d):
            result = result * self
        return result


class QuantumMeasure(Measure):
    """Squared-modulus amplitude measure: mu(g) = |sum_i g_i z_i|^2.

    On 0/1 indicator vectors this is the usual "add amplitudes of the open
    alternatives, then square" rule.  With exact (Gaussian-rational)
    amplitudes and rational coefficients the values are exact rationals.
    """

    def __init__(self, space: HistorySpace, amplitudes: Sequence[Scalar]):
        if len(amplitudes) != space.size:
            raise SpaceMismatchError(
                "amplitude count does not match the history space")
        self.space = space
        self.amplitudes = tuple(amplitudes)
        self._doubles = all(isinstance(z, (float, complex))
                            for z in self.amplitudes)

    @property
    def is_exact(self) -> bool:
        return all(is_exact(z) for z in self.amplitudes)

    def _evaluate(self, g: GroupElement) -> Scalar:
        products = [x * z for x, z in zip(g.coeffs, self.amplitudes)]
        if self._doubles:
            # Every product is a double here; this is stable_sum's float
            # path without its type dispatch, and gives the same bits.
            return abs_squared(neumaier_complex_sum(products))
        return abs_squared(stable_sum(products))


def quantum_measure_from_amplitudes(
        amplitudes: Sequence[Scalar],
        space: HistorySpace | None = None) -> QuantumMeasure:
    if space is None:
        space = HistorySpace.of_size(len(amplitudes))
    return QuantumMeasure(space, amplitudes)


def check_order_identity(mu: Measure, n: int,
                         args: Sequence[GroupElement],
                         tol: float | None = None) -> bool:
    """Test the defining order-n identity on one (n+1)-tuple of arguments.

    Moving mu(a_1 + ... + a_{n+1}) to the right-hand side turns the
    identity into "I_{n+1}(args) is zero", which is how it is tested, with
    the zero test of ``interference.vanishes``.
    """
    from .interference import interference, vanishes  # imports this module

    if n < 1:
        raise InvalidInputError("order must be >= 1")
    if len(args) != n + 1:
        raise InvalidInputError(f"order-{n} identity takes {n + 1} "
                                f"arguments, got {len(args)}")
    result = interference(mu, args)
    return vanishes(result.value, result.magnitude, tol)


@dataclass(frozen=True)
class ParitySplit:
    even: Measure
    odd: Measure


def parity_split(mu: Measure) -> ParitySplit:
    """Split into even and odd parts: mu(a) = even(a) + odd(a).

    even(a) = (mu(a) + mu(-a)) / 2 is invariant under negation, odd(a) is
    anti-invariant.  For quadratic measures the odd part is additive and the
    even part is the diagonal of a symmetric biadditive form.
    """
    even = ClosureMeasure(
        mu.space, lambda a: exact_div(stable_sum([mu(a), mu(-a)]), 2))
    odd = ClosureMeasure(
        mu.space, lambda a: exact_div(stable_sum([mu(a), -mu(-a)]), 2))
    return ParitySplit(even=even, odd=odd)


def bimodule_action(x: GroupElement, mu: Measure,
                    y: GroupElement) -> Measure:
    """Two-sided algebra action: (x mu y)(a) = mu(y * a * x) pointwise.

    The acting elements are functions on histories realized as coefficient
    vectors; the product is pointwise multiplication.
    """
    if x.space != mu.space or y.space != mu.space:
        raise SpaceMismatchError(
            "action elements live in a different history space")
    return ClosureMeasure(
        mu.space, lambda a: mu(y.pointwise_mul(a).pointwise_mul(x)))


def quadratic_even_form(mu: Measure, a: GroupElement,
                        b: GroupElement) -> Scalar:
    """The symmetric form (mu(a+b) - mu(a-b)) / 4 of an even quadratic measure."""
    return exact_div(stable_sum([mu(a + b), -mu(a - b)]), 4)
