"""Interference functionals of arbitrary order and order probing.

The order-k interference functional of a measure is the signed
inclusion-exclusion sum

    I_k(a_1, ..., a_k) = sum over non-empty S of (-1)^(k-|S|) mu(sum_{i in S} a_i).

I_2 is the familiar two-alternative interference term; I_{k+1} vanishing
identically characterizes measures of order k.  The functional is symmetric
in its arguments and satisfies, for completely arbitrary evaluators,

    I_{k+1}(b, c, rest...) = I_k(b+c, rest...) - I_k(b, rest...) - I_k(c, rest...).

We extend the definition down to k = 1 by I_1(a) = mu(a), which is the
inclusion-exclusion formula at k = 1 and lets the recursion bottom out.

Every signed subset sum in the package (interference, the defining order
identity, coderivatives, polarization) runs through ``signed_subset_sum``;
order probing, primitivity and the order identity judge zeros with
``vanishes``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Sequence

from .errors import CapExceededError, InvalidInputError
from .histories import GroupElement, SubsetMask, characteristic_function
from .measures import Measure, PolynomialMeasure
from .scalars import Scalar, close, is_exact, is_zero, stable_sum, to_complex

# 2^k evaluation terms; beyond this the enumeration is no longer desk-scale.
MAX_SUBSET_ORDER = 16

# Unit roundoff of a double.
UNIT_ROUNDOFF = sys.float_info.epsilon / 2
# Rounding floor of the approx zero test, in units of u * sum|terms|: a
# float subset sum counts as zero when |I| <= tol + c * u * sum|terms|.
# Each term carries the rounding of its own evaluation, a few u of its
# size, and the compensated sum adds about 2u |I| (Higham, "Accuracy and
# Stability of Numerical Algorithms", ch. 4; Neumaier 1974).  Vanishing
# I_3 .. I_5 of squared-modulus measures on sampled tuples (m = 6..10,
# amplitude scales 1 to 1e4) reached 2.76 u sum|terms|; c = 16 leaves a
# margin of about 6 and is the factor perfbench/oracles.py allows.
ZERO_FLOOR_FACTOR = 16


@dataclass(frozen=True)
class SubsetTerm:
    indices: tuple[int, ...]
    sign: int
    value: Scalar


@dataclass(frozen=True)
class SubsetSum:
    """A signed subset sum with its terms.

    ``values[bits]`` is the function at the subset point of the bitmask
    ``bits`` (``None`` for the empty subset when it is left out).
    ``magnitude`` is sum|terms| for a floating-point sum and 0.0 for an
    exact one, whose value carries no rounding.
    """
    value: Scalar
    magnitude: float
    values: list


@dataclass(frozen=True)
class InterferenceResult:
    k: int
    value: Scalar
    terms: tuple[SubsetTerm, ...] | None = None
    magnitude: float = 0.0


def subset_points(base: GroupElement, args: Sequence[GroupElement]
                  ) -> Iterator[tuple[int, GroupElement]]:
    """Yield ``(bits, base + sum of args[i] for i in bits)`` for every subset.

    The walk is depth-first and adds indices in increasing order, so the
    point of a subset is the point of the subset without its highest index
    plus that argument: one group addition per point, the association
    ``((base + a_i1) + a_i2) + ...`` of summing the subset from ``base``,
    and only the points on the current path alive.  The empty subset
    (``base`` itself) comes first; the rest come in depth-first order, not
    in bitmask order.
    """
    yield 0, base
    k = len(args)
    pending = [(0, base, i) for i in range(k - 1, -1, -1)]
    while pending:
        bits, parent, i = pending.pop()
        bits |= 1 << i
        point = parent + args[i]
        yield bits, point
        pending.extend((bits, point, j) for j in range(k - 1, i, -1))


def _sign(k: int, bits: int) -> int:
    """(-1)^(k - |S|) for the subset S with bitmask ``bits``."""
    return -1 if (k - bits.bit_count()) & 1 else 1


def signed_subset_sum(f: Callable[[GroupElement], Scalar],
                      base: GroupElement, args: Sequence[GroupElement],
                      empty: bool = True) -> SubsetSum:
    """sum over subsets S of (-1)^(k-|S|) f(base + sum_{i in S} a_i).

    The one inclusion-exclusion kernel behind interference, the defining
    order identity, coderivatives and polarization.  ``empty=False`` leaves
    the empty subset out.  Terms are summed in ascending bitmask order with
    ``stable_sum``.
    """
    k = len(args)
    values: list = [None] * (1 << k)
    for bits, point in subset_points(base, args):
        if bits or empty:
            values[bits] = f(point)
    parts = [_sign(k, bits) * values[bits]
             for bits in range(0 if empty else 1, 1 << k)]
    value = stable_sum(parts)
    magnitude = 0.0 if is_exact(value) else \
        sum(map(abs, map(to_complex, parts)))
    return SubsetSum(value, magnitude, values)


def vanishes(value: Scalar, magnitude: float, tol: float | None) -> bool:
    """The zero test of a signed subset sum.

    ``tol=None`` demands an exact zero.  Otherwise the value counts as zero
    when |value| <= tol + ZERO_FLOOR_FACTOR * u * magnitude, so that a float
    verdict does not change when the arguments are rescaled.
    """
    if tol is None:
        return is_zero(value)
    floor = ZERO_FLOOR_FACTOR * UNIT_ROUNDOFF * magnitude
    return abs(to_complex(value)) <= tol + floor


def interference(mu: Measure, args: Sequence[GroupElement],
                 breakdown: bool = False) -> InterferenceResult:
    """Evaluate the order-k interference functional, k = len(args)."""
    k = len(args)
    if k < 1:
        raise InvalidInputError("interference needs at least one argument")
    if k > MAX_SUBSET_ORDER:
        raise CapExceededError(
            f"interference order capped at {MAX_SUBSET_ORDER} "
            f"(2^{k} subset terms requested)")
    total = signed_subset_sum(mu, mu.space.zero(), args, empty=False)
    terms = None
    if breakdown:
        terms = tuple(
            SubsetTerm(tuple(i for i in range(k) if bits >> i & 1),
                       _sign(k, bits), total.values[bits])
            for bits in range(1, 1 << k))
    return InterferenceResult(k=k, value=total.value, terms=terms,
                              magnitude=total.magnitude)


def interference_value(mu: Measure,
                       args: Sequence[GroupElement]) -> Scalar:
    return interference(mu, args).value


def recursion_holds(mu: Measure, b: GroupElement, c: GroupElement,
                    rest: Sequence[GroupElement] = (),
                    tol: float | None = None) -> bool:
    """Check the one-step recursion splitting the first argument.

    Holds for completely arbitrary measures, with no order assumption.
    """
    lhs = interference_value(mu, [b, c, *rest])
    rhs = stable_sum([
        interference_value(mu, [b + c, *rest]),
        -interference_value(mu, [b, *rest]),
        -interference_value(mu, [c, *rest]),
    ])
    return close(lhs, rhs, tol)


def overlapping_pair_forms(mu: Measure, a: SubsetMask,
                           b: SubsetMask) -> tuple[Scalar, Scalar, Scalar]:
    """Three expressions for pairwise interference of possibly overlapping sets.

    Returns (set form, symmetric-difference form, indicator-sum form).  On
    disjoint sets all three reduce to the pairwise interference of the two
    indicator vectors.  For negation-even quadratic measures (the
    squared-amplitude case the forms were derived for) the three agree on
    every pair; a quadratic measure with an odd (additive) component shifts
    the two set forms by twice its value on the overlap indicator.
    """
    chi = characteristic_function
    form1 = stable_sum([
        mu(chi(a | b)), mu(chi(a & b)), -mu(chi(a - b)), -mu(chi(b - a))])
    form2 = stable_sum([
        mu(chi(a ^ b)), mu(chi(a)), mu(chi(b)),
        -2 * mu(chi(a - b)), -2 * mu(chi(b - a))])
    form_g = stable_sum([
        mu(chi(a) + chi(b)), -mu(chi(a)), -mu(chi(b))])
    return form1, form2, form_g


@dataclass(frozen=True)
class OrderReport:
    """Outcome of probing the order of a measure.

    ``exact`` is True only for polynomial measures, where the order is the
    total degree.  For black boxes the verdict is sample-based and the
    message never claims more than consistency on the sample set.
    """
    order: int | None
    exact: bool
    n_max: int
    message: str
    witness_args: tuple[GroupElement, ...] | None = None
    witness_value: Scalar | None = None


SampleFamily = Callable[[int], Sequence[tuple[GroupElement, ...]]]


def probe_order(mu: Measure, n_max: int,
                samples: SampleFamily | None = None,
                tol: float | None = None) -> OrderReport:
    """Find the smallest n with vanishing order-(n+1) interference.

    Polynomial measures are answered exactly by total degree (they must have
    zero constant term to be measures at all).  Other variants are probed on
    the supplied sample family, a callable mapping k to a list of k-tuples.
    """
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
    if isinstance(mu, PolynomialMeasure):
        return _probe_polynomial(mu, n_max)
    if samples is None:
        raise ValueError("non-polynomial measures need a sample family")
    witness: tuple[tuple[GroupElement, ...], Scalar] | None = None
    for n in range(0, n_max + 1):
        results = [(tup, interference(mu, tup)) for tup in samples(n + 1)]
        nonzero = [(tup, r.value) for tup, r in results
                   if not vanishes(r.value, r.magnitude, tol)]
        if not nonzero:
            return OrderReport(
                order=n, exact=False, n_max=n_max,
                message=f"consistent with order <= {n} on sample set",
                witness_args=witness[0] if witness else None,
                witness_value=witness[1] if witness else None)
        witness = nonzero[0]
    return OrderReport(order=None, exact=False, n_max=n_max,
                       message=f"order > {n_max} on samples")


def _strict_zero(v: Scalar) -> bool:
    return is_zero(v, None if is_exact(v) else 0.0)


def _probe_polynomial(mu: PolynomialMeasure, n_max: int) -> OrderReport:
    if not _strict_zero(mu.constant_term):
        raise InvalidInputError(
            "polynomial measures must have zero constant term")
    if not mu.terms:
        return OrderReport(order=0, exact=True, n_max=n_max,
                           message="zero measure (order 0)")
    d = mu.degree
    if d > n_max:
        return OrderReport(order=None, exact=True, n_max=n_max,
                           message=f"order {d} exceeds n_max = {n_max}")
    witness = _polynomial_witness(mu, d)
    return OrderReport(
        order=d, exact=True, n_max=n_max,
        message=f"total degree {d} (exact)",
        witness_args=witness[0] if witness else None,
        witness_value=witness[1] if witness else None)


def _polynomial_witness(mu: PolynomialMeasure, k: int):
    """A basis k-tuple with non-vanishing order-k interference.

    One always exists for a polynomial of exact degree k: the top-degree
    homogeneous form is non-zero on some basis tuple.
    """
    for idx in combinations_with_replacement(range(mu.space.size), k):
        args = tuple(mu.space.basis_element(i) for i in idx)
        v = interference_value(mu, args)
        if not _strict_zero(v):
            return args, v
    return None
