"""Polarization of measures into symmetric multiadditive forms.

An order-n measure is recovered from its homogeneous pieces: polarization
averages the measure over sign flips of n arguments,

    phi(a_1, ..., a_n) = (1 / (2^n n!)) * sum over signs z in {+-1}^n of
                         (-1)^(#negative signs) * mu(z_1 a_1 + ... + z_n a_n),

yielding a totally symmetric multiadditive form.  Projection tabulates this
form on the standard basis, the section maps a form back to the measure
x -> phi(x, ..., x), and repeated projection/subtraction decomposes a measure
into homogeneous components of orders n, n-1, ..., 1.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Mapping, Sequence

from .errors import CapExceededError, InvalidInputError, OrderMembershipError
from .histories import GroupElement, HistorySpace
from .interference import interference_value, signed_subset_sum
from .measures import ClosureMeasure, Measure, PolynomialMeasure
from .scalars import Scalar, exact_div, is_exact, is_zero, stable_sum

MAX_FORM_ORDER = 6
DEFAULT_TABLE_CAP = 20_000
# Random probe tuples appended to the basis tuples when checking membership.
PROBE_TUPLE_COUNT = 32


@dataclass(frozen=True)
class SymmetricForm:
    """Totally symmetric multiadditive functional of a fixed order.

    Stored as a table of values on non-decreasing basis index tuples and
    extended to arbitrary arguments by multiadditivity.
    """

    space: HistorySpace
    order: int
    table: "FormTable"

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("form order must be >= 1")

    @classmethod
    def from_table(cls, space: HistorySpace, order: int,
                   table: Mapping[tuple[int, ...], Scalar]) -> "SymmetricForm":
        cleaned = {}
        for idx, value in table.items():
            if len(idx) != order:
                raise ValueError(f"index tuple {idx!r} has wrong length")
            if any(not 0 <= i < space.size for i in idx):
                raise IndexError(f"index tuple {idx!r} out of range")
            key = tuple(sorted(idx))
            if is_exact(value) and value == 0:
                continue
            cleaned[key] = value
        return cls(space, order, FormTable(cleaned))

    def value_at(self, idx: Sequence[int]) -> Scalar:
        return self.table.data.get(tuple(sorted(idx)), 0)

    def __call__(self, args: Sequence[GroupElement]) -> Scalar:
        """Multilinear extension to arbitrary coefficient vectors."""
        if len(args) != self.order:
            raise ValueError(f"form of order {self.order} takes "
                             f"{self.order} arguments, got {len(args)}")
        m = self.space.size
        if m ** self.order > 2_000_000:
            raise CapExceededError("multilinear extension too large")
        parts = []
        for idx in product(range(m), repeat=self.order):
            value = self.value_at(idx)
            if is_exact(value) and value == 0:
                continue
            coeff = value
            for a, i in zip(args, idx):
                coeff = coeff * a.coeffs[i]
            parts.append(coeff)
        return stable_sum(parts)

    def diagonal(self, x: GroupElement) -> Scalar:
        """phi(x, ..., x), the homogeneous polynomial the form represents."""
        parts = []
        for idx, value in sorted(self.table.data.items()):
            coeff = _multiset_multiplicity(idx) * value
            for i in idx:
                coeff = coeff * x.coeffs[i]
            parts.append(coeff)
        return stable_sum(parts)

    def is_zero(self, tol: float | None = None) -> bool:
        return all(is_zero(v, tol) for v in self.table.data.values())


class FormTable:
    """Hashable wrapper for a basis-tuple table (sorted keys, no exact zeros)."""

    __slots__ = ("data",)

    def __init__(self, data: dict[tuple[int, ...], Scalar]):
        self.data = data

    def __eq__(self, other):
        if not isinstance(other, FormTable):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(frozenset(self.data.items()))

    def __repr__(self):
        return f"FormTable({self.data!r})"


def _multiset_multiplicity(idx: tuple[int, ...]) -> int:
    """Number of distinct orderings of a non-decreasing index tuple."""
    total = math.factorial(len(idx))
    run = 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            run += 1
        else:
            total //= math.factorial(run)
            run = 1
    total //= math.factorial(run)
    return total


def polarize(mu: Measure, n: int,
             args: Sequence[GroupElement]) -> Scalar:
    """Signed average over sign flips; the order-n form of the measure.

    The sign-flipped points z_1 a_1 + ... + z_n a_n are the subset points
    of the base -(a_1 + ... + a_n) with increments 2 a_i (the subset is
    where z_i = +1), and the sign (-1)^(#negative signs) is the kernel's
    (-1)^(n-|S|): the sum is the order-n coderivative at that base.
    """
    if n < 1:
        raise InvalidInputError("polarization order must be >= 1")
    if len(args) != n:
        raise InvalidInputError(
            f"polarization of order {n} takes {n} arguments")
    total = args[0]
    for a in args[1:]:
        total = total + a
    flips = signed_subset_sum(mu, -total, [2 * a for a in args])
    return exact_div(flips.value, (2 ** n) * math.factorial(n))


def project(mu: Measure, n: int,
            table_cap: int = DEFAULT_TABLE_CAP) -> SymmetricForm:
    """Tabulate the order-n polarization on all non-decreasing basis tuples."""
    if n < 1:
        raise InvalidInputError("projection order must be >= 1")
    if n > MAX_FORM_ORDER:
        raise CapExceededError(f"form order capped at {MAX_FORM_ORDER}")
    m = mu.space.size
    if math.comb(m + n - 1, n) > table_cap:
        raise CapExceededError(
            f"decomposition too large: {math.comb(m + n - 1, n)} basis "
            f"tuples exceed the cap of {table_cap}")
    table = {}
    for idx in combinations_with_replacement(range(m), n):
        args = [mu.space.basis_element(i) for i in idx]
        table[idx] = polarize(mu, n, args)
    return SymmetricForm.from_table(mu.space, n, table)


def section(phi: SymmetricForm) -> PolynomialMeasure:
    """The measure x -> phi(x, ..., x); always an order-n measure.

    Returned as an explicit homogeneous polynomial in the additive
    coordinates, with multiset multiplicities as coefficients.
    """
    terms: dict[tuple[int, ...], Scalar] = {}
    m = phi.space.size
    for idx, value in phi.table.data.items():
        exps = [0] * m
        for i in idx:
            exps[i] += 1
        key = tuple(exps)
        coeff = _multiset_multiplicity(idx) * value
        terms[key] = terms.get(key, 0) + coeff
    return PolynomialMeasure(phi.space, terms)


@dataclass(frozen=True)
class Decomposition:
    """Homogeneous components phi_1, ..., phi_n of an order-n measure."""

    space: HistorySpace
    components: tuple[SymmetricForm, ...]

    @property
    def order(self) -> int:
        return len(self.components)

    def component(self, k: int) -> SymmetricForm:
        if not 1 <= k <= self.order:
            raise IndexError(f"no component of order {k}")
        return self.components[k - 1]

    def reconstruct(self, x: GroupElement) -> Scalar:
        return stable_sum(phi.diagonal(x) for phi in self.components)

    def as_polynomial(self) -> PolynomialMeasure:
        total = PolynomialMeasure.zero(self.space)
        for phi in self.components:
            total = total + section(phi)
        return total


def decompose(mu: Measure, n: int, tol: float | None = None,
              probe_seed: int = 20_260_808) -> Decomposition:
    """Split an order-n measure into homogeneous components.

    Polynomial measures are decomposed symbolically (exact, with membership
    decided by degree).  Other variants go through repeated projection and
    subtraction; after each subtraction the remainder is probed for
    membership one order down on a fixed deterministic family of argument
    tuples (all basis tuples plus seeded random integer tuples).

    The exact backend is the intended habitat; with a tolerance the repeated
    subtractions amplify floating-point error, so a warning is emitted.
    """
    if n < 1:
        raise InvalidInputError("decomposition order must be >= 1")
    if n > MAX_FORM_ORDER:
        raise CapExceededError(f"decomposition order capped at {MAX_FORM_ORDER}")
    if tol is not None:
        warnings.warn(
            "approximate decomposition: repeated subtraction amplifies "
            "floating-point error", stacklevel=2)
    if isinstance(mu, PolynomialMeasure):
        return _decompose_polynomial(mu, n, tol)
    return _decompose_generic(mu, n, tol, probe_seed)


def _decompose_polynomial(mu: PolynomialMeasure, n: int,
                          tol: float | None) -> Decomposition:
    constant = mu.constant_term
    if not is_zero(constant, tol if not is_exact(constant) else None):
        raise OrderMembershipError(
            "input is not an order-n measure: non-zero constant term")
    if mu.degree > n:
        raise OrderMembershipError(
            f"input is not an order-{n} measure: total degree {mu.degree}")
    remainder = mu
    components: list[SymmetricForm] = []
    for k in range(n, 0, -1):
        phi = project(remainder, k)
        components.append(phi)
        remainder = remainder - section(phi)
        if tol is not None:
            remainder = _drop_small_terms(remainder, tol)
        if remainder.degree > k - 1 and remainder.terms:
            raise OrderMembershipError(
                "input is not an order-n measure: degree did not drop "
                f"below {k} after removing the order-{k} component")
    return Decomposition(mu.space, tuple(reversed(components)))


def _drop_small_terms(poly: PolynomialMeasure,
                      tol: float) -> PolynomialMeasure:
    kept = {e: c for e, c in poly.terms.items() if not is_zero(c, tol)}
    return PolynomialMeasure(poly.space, kept)


def _decompose_generic(mu: Measure, n: int, tol: float | None,
                       probe_seed: int) -> Decomposition:
    remainder: Measure = _cached(mu)
    components: list[SymmetricForm] = []
    for k in range(n, 0, -1):
        phi = project(remainder, k)
        components.append(phi)
        diag = section(phi)
        prev = remainder
        remainder = _cached(ClosureMeasure(
            mu.space, lambda a, p=prev, d=diag: stable_sum([p(a), -d(a)])))
        for args in _probe_family(mu.space, k, probe_seed):
            if not is_zero(interference_value(remainder, args), tol):
                raise OrderMembershipError(
                    f"input is not an order-{n} measure: remainder fails "
                    f"the order-{k - 1} membership probe")
    return Decomposition(mu.space, tuple(reversed(components)))


def _cached(mu: Measure) -> Measure:
    cache: dict[tuple, Scalar] = {}

    def fn(a: GroupElement, inner=mu, cache=cache):
        key = a.coeffs
        if key not in cache:
            cache[key] = inner(a)
        return cache[key]

    return ClosureMeasure(mu.space, fn)


def _probe_family(space: HistorySpace, k: int,
                  seed: int) -> list[tuple[GroupElement, ...]]:
    """Deterministic tuples for membership probing: basis tuples plus
    seeded random small-integer vectors (integer coefficients keep the
    family valid for both scalar backends)."""
    rng = random.Random(seed * 1_000_003 + k * 1009 + space.size)
    family = [
        tuple(space.basis_element(i) for i in idx)
        for idx in combinations_with_replacement(range(space.size), k)
    ]
    for _ in range(PROBE_TUPLE_COUNT):
        family.append(tuple(
            space.element([rng.randint(-2, 2) for _ in range(space.size)])
            for _ in range(k)))
    return family


def binomial_section_check(n: int, k: int) -> int:
    """Alternating binomial sum counting enveloping subsets; always 1.

    This is the coefficient with which an index pattern using exactly k
    distinct arguments appears when the diagonal of an order-n form is
    expanded through the defining identity; its being 1 is what makes the
    section land in the order-n measures.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return sum((-1) ** (n - l) * math.comb(n + 1 - k, l - k)
               for l in range(k, n + 1))
