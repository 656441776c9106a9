"""Finite history spaces, subsets, and the abelian group of coefficient vectors.

A history space is an ordered finite set of history labels.  Subsets are
bitmasks over it.  The group elements are coefficient vectors: a linear
combination of characteristic functions, flattened to one coefficient per
history.  Addition is the group law, the zero vector is the identity and
negation is the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, SpaceMismatchError
from .scalars import Scalar, is_zero

# Bitmask enumeration over subsets stays cheap up to this many histories.
MAX_HISTORIES = 24


@dataclass(frozen=True)
class HistorySpace:
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValueError("a history space needs at least one history")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("history labels must be unique")
        if len(self.labels) > MAX_HISTORIES:
            raise CapExceededError(
                f"history spaces are capped at {MAX_HISTORIES} histories")

    @classmethod
    def of_size(cls, m: int, prefix: str = "h") -> "HistorySpace":
        return cls(tuple(f"{prefix}{i}" for i in range(m)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown history label {label!r}") from None

    def subset(self, items: Iterable[str | int] = ()) -> "SubsetMask":
        bits = 0
        for item in items:
            i = item if isinstance(item, int) else self.index(item)
            if not 0 <= i < self.size:
                raise IndexError(f"history index {i} out of range")
            bits |= 1 << i
        return SubsetMask(self, bits)

    def subset_from_bits(self, bits: int) -> "SubsetMask":
        if not 0 <= bits < (1 << self.size):
            raise ValueError("bitmask out of range for this history space")
        return SubsetMask(self, bits)

    def all_subsets(self) -> Iterator["SubsetMask"]:
        for bits in range(1 << self.size):
            yield SubsetMask(self, bits)

    def empty(self) -> "SubsetMask":
        return SubsetMask(self, 0)

    def full(self) -> "SubsetMask":
        return SubsetMask(self, (1 << self.size) - 1)

    def element(self, coeffs: Sequence[Scalar]) -> "GroupElement":
        if len(coeffs) != self.size:
            raise SpaceMismatchError(
                f"expected {self.size} coefficients, got {len(coeffs)}")
        return GroupElement(self, tuple(coeffs))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.size)

    def basis_element(self, i: int) -> "GroupElement":
        return characteristic_function(self.subset([i]))


@dataclass(frozen=True)
class SubsetMask:
    """Subset of a history space, stored as a bitmask."""

    space: HistorySpace
    bits: int

    def _check(self, other: "SubsetMask") -> None:
        if self.space != other.space:
            raise SpaceMismatchError("subset masks live in different spaces")

    def union(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.space, self.bits | other.bits)

    def intersection(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.space, self.bits & other.bits)

    def difference(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.space, self.bits & ~other.bits)

    def symmetric_difference(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.space, self.bits ^ other.bits)

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.space, ~self.bits & ((1 << self.space.size) - 1))

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference

    def is_disjoint(self, other: "SubsetMask") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.space.size) if self.bits >> i & 1)

    def label_list(self) -> list[str]:
        return [self.space.labels[i] for i in self.indices()]

    def __contains__(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def __len__(self) -> int:
        return bin(self.bits).count("1")


@dataclass(frozen=True)
class GroupElement:
    """Coefficient vector over the histories; addition is the group law."""

    space: HistorySpace
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.space.size:
            raise SpaceMismatchError(
                "coefficient count does not match the history space")

    def _check(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement):
            raise TypeError(f"cannot combine GroupElement with {type(other)!r}")
        if self.space != other.space:
            raise SpaceMismatchError(
                "group elements live in different history spaces")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.space,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.space,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.space, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: Scalar) -> "GroupElement":
        if isinstance(scalar, GroupElement):
            raise TypeError("use pointwise_mul for the algebra product")
        return GroupElement(self.space, tuple(scalar * a for a in self.coeffs))

    __rmul__ = __mul__

    def pointwise_mul(self, other: "GroupElement") -> "GroupElement":
        """Pointwise product: the product of functions on the history set."""
        self._check(other)
        return GroupElement(
            self.space,
            tuple(a * b for a, b in zip(self.coeffs, other.coeffs)))

    def is_zero(self, tol: float | None = None) -> bool:
        return all(is_zero(c, tol) for c in self.coeffs)


def characteristic_function(subset: SubsetMask) -> GroupElement:
    """0/1 indicator vector of a subset; disjoint unions add componentwise."""
    return GroupElement(
        subset.space,
        tuple(1 if i in subset else 0 for i in range(subset.space.size)))


def ones(space: HistorySpace) -> GroupElement:
    """The constant-one function on histories (the algebra unit)."""
    return characteristic_function(space.full())
