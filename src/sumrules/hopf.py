"""Group-dual operations on functions over the history-vector group.

Functions on an abelian group carry operations dual to the group structure:
the coproduct evaluates a function on a product (here: sum) of two group
arguments, the counit evaluates at the identity, and the antipode pulls back
along inversion.  Because evaluation is the duality pairing, each operation
is implemented literally as the corresponding evaluation rule.

The iterated difference operator built from the coproduct,

    (D^k f)(base; a_1, ..., a_k)
        = sum over all S of {1..k} of (-1)^(k-|S|) f(base + sum_{i in S} a_i),

is a discrete k-th derivative.  Evaluated at the identity it coincides with
the order-k interference functional whenever f vanishes at the identity (the
empty subset contributes (-1)^k f(0), which the interference sum omits).
A function is k-primitive when these evaluations vanish for every order
above k but not at k itself; such functions are exactly the polynomials of
total degree k in the additive coordinate functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidInputError
from .histories import GroupElement, HistorySpace
from .interference import signed_subset_sum, vanishes
from .measures import PolynomialMeasure
from .sampling import sample_family
from .scalars import Scalar, is_exact, is_zero

GroupFunction = Callable[[GroupElement], Scalar]


def _space_of(f: GroupFunction, space: HistorySpace | None) -> HistorySpace:
    resolved = getattr(f, "space", None) if space is None else space
    if resolved is None:
        raise ValueError(
            "pass space= explicitly for functions that do not carry one")
    return resolved


def coproduct(f: GroupFunction, g: GroupElement,
              h: GroupElement) -> Scalar:
    """Evaluate the coproduct of f on (g, h): f at the group sum g + h."""
    return f(g + h)


def counit(f: GroupFunction, space: HistorySpace | None = None) -> Scalar:
    """Evaluate f at the group identity (the zero vector)."""
    return f(_space_of(f, space).zero())


def antipode(f: GroupFunction, g: GroupElement) -> Scalar:
    """Evaluate the antipode of f on g: f at the group inverse -g."""
    return f(-g)


def iterated_coproduct(f: GroupFunction,
                       args: Sequence[GroupElement]) -> Scalar:
    """Evaluate the (r-1)-fold coproduct on r group arguments.

    Coassociativity makes the bracketing irrelevant: any grouping evaluates
    f on the total sum.
    """
    if not args:
        raise ValueError("iterated coproduct needs at least one argument")
    total = args[0]
    for a in args[1:]:
        total = total + a
    return f(total)


def coderivative(f: GroupFunction, k: int, base: GroupElement,
                 increments: Sequence[GroupElement]) -> Scalar:
    """k-th discrete derivative of f at ``base`` along the increments."""
    if k < 1:
        raise InvalidInputError("coderivative order must be >= 1")
    if len(increments) != k:
        raise InvalidInputError(
            f"order-{k} coderivative takes {k} increments")
    return signed_subset_sum(f, base, increments).value


def coderivative_at_identity(f: GroupFunction, k: int,
                             args: Sequence[GroupElement],
                             space: HistorySpace | None = None) -> Scalar:
    """k-th coderivative evaluated at the group identity.

    Equals the order-k interference functional of f whenever f(0) = 0; the
    only difference in general is the empty-subset term (-1)^k f(0).
    """
    resolved = _space_of(f, space)
    return coderivative(f, k, resolved.zero(), args)


@dataclass(frozen=True)
class PrimitivityReport:
    """Classification of a function by the top non-vanishing coderivative.

    ``order=None`` means no non-zero coderivative was found (a constant, or
    a function vanishing on all samples).  ``exact`` is True only on the
    polynomial path; black-box verdicts are sample-consistent only.
    """
    order: int | None
    exact: bool
    k_max: int
    witnesses: tuple[tuple[tuple[GroupElement, ...], Scalar], ...]
    vanished_orders: tuple[int, ...]
    message: str


def classify_primitivity(f: GroupFunction, k_max: int,
                         space: HistorySpace | None = None,
                         samples=None, tol: float | None = None,
                         seed: int = 0,
                         sample_count: int = 32) -> PrimitivityReport:
    """Determine the primitivity order of a function on the group.

    Polynomial functions are classified exactly by the total degree of the
    non-constant part (constants are annihilated by every coderivative at
    the identity).  Anything else is probed on sampled argument tuples.
    """
    if k_max < 1:
        raise InvalidInputError("k_max must be >= 1")
    if isinstance(f, PolynomialMeasure):
        return _classify_polynomial(f, k_max)
    resolved = _space_of(f, space)
    if samples is None:
        samples = sample_family(resolved, seed, sample_count)
    nonzero: dict[int, list[tuple[tuple[GroupElement, ...], Scalar]]] = {}
    for k in range(1, k_max + 1):
        found = []
        for tup in samples(k):
            total = signed_subset_sum(f, resolved.zero(), tup)
            if not vanishes(total.value, total.magnitude, tol):
                found.append((tup, total.value))
                if len(found) >= 3:
                    break
        if found:
            nonzero[k] = found
    if not nonzero:
        return PrimitivityReport(
            order=None, exact=False, k_max=k_max, witnesses=(),
            vanished_orders=tuple(range(1, k_max + 1)),
            message="0-primitive or vanishing on samples")
    order = max(nonzero)
    return PrimitivityReport(
        order=order, exact=False, k_max=k_max,
        witnesses=tuple(nonzero[order]),
        vanished_orders=tuple(range(order + 1, k_max + 1)),
        message=(f"sample-consistent: {order}-primitive "
                 f"(coderivatives vanish on samples up to order {k_max})"))


def _classify_polynomial(f: PolynomialMeasure, k_max: int) -> PrimitivityReport:
    degrees = [sum(e) for e in f.terms if sum(e) >= 1]
    if not degrees:
        return PrimitivityReport(
            order=None, exact=True, k_max=k_max, witnesses=(),
            vanished_orders=tuple(range(1, k_max + 1)),
            message="constant function: every coderivative at the "
                    "identity vanishes")
    d = max(degrees)
    witness = _polynomial_coderivative_witness(f, d)
    return PrimitivityReport(
        order=d, exact=True, k_max=k_max,
        witnesses=(witness,) if witness else (),
        vanished_orders=tuple(range(d + 1, k_max + 1)),
        message=f"exactly {d}-primitive: polynomial of total degree {d} "
                f"in the additive coordinates")


def _polynomial_coderivative_witness(f: PolynomialMeasure, k: int):
    from itertools import combinations_with_replacement
    for idx in combinations_with_replacement(range(f.space.size), k):
        args = tuple(f.space.basis_element(i) for i in idx)
        v = coderivative_at_identity(f, k, args)
        if not is_zero(v, None if is_exact(v) else 0.0):
            return args, v
    return None
