"""The depth-first subset kernel against a naive enumeration.

The references below rebuild every subset point from zero and sum the
terms the way the package did before the kernel existed, so float results
must agree bit for bit and exact results in value and type.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from sumrules.histories import HistorySpace
from sumrules.hopf import coderivative
from sumrules.interference import interference, subset_points
from sumrules.measures import PolynomialMeasure, QuantumMeasure, TableMeasure
from sumrules.polarization import polarize
from sumrules.sampling import random_element, random_rational
from sumrules.scalars import GaussianRational, exact_div, is_exact, stable_sum
from sumrules.selftest import _table_measure_over_subset_sums


def neumaier(values):
    total = comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def reference_sum(values):
    """Exact sum from 0, or one Neumaier pass per complex component."""
    if all(is_exact(v) for v in values):
        total = 0
        for v in values:
            total = total + v
        return total
    parts = [complex(v) for v in values]
    re = neumaier([c.real for c in parts])
    im = neumaier([c.imag for c in parts])
    if any(isinstance(v, complex) or
           (isinstance(v, GaussianRational) and v.im != 0) for v in values):
        return complex(re, im)
    return re


def reference_quantum(mu):
    def evaluate(g):
        w = reference_sum([x * z for x, z in zip(g.coeffs, mu.amplitudes)])
        return (w * w.conjugate()).real if isinstance(w, complex) else w * w
    return evaluate


def naive_terms(f, base, args, empty):
    """(indices, sign, value) per subset, ascending bitmask, from scratch."""
    k = len(args)
    terms = []
    for bits in range(0 if empty else 1, 1 << k):
        point = base
        indices = []
        for i in range(k):
            if bits >> i & 1:
                point = point + args[i]
                indices.append(i)
        sign = 1 if (k - len(indices)) % 2 == 0 else -1
        terms.append((tuple(indices), sign, f(point)))
    return terms


def naive_value(f, base, args, empty=False):
    return reference_sum([s * v for _, s, v in naive_terms(f, base, args,
                                                            empty)])


def test_stable_sum_float_paths_match_reference():
    rng = random.Random(1)
    for _ in range(200):
        floats = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
                  for _ in range(rng.randint(1, 30))]
        complexes = [complex(x, rng.uniform(-1, 1)) for x in floats]
        for values in (floats, complexes, floats + [Fraction(1, 3), 7],
                       floats + [GaussianRational(1, 2)]):
            got, want = stable_sum(values), reference_sum(values)
            assert (got, type(got)) == (want, type(want))


@pytest.mark.parametrize("k", range(1, 15))
def test_float_quantum_interference_is_bit_identical(k):
    rng = random.Random(k)
    space = HistorySpace.of_size(4)
    mu = QuantumMeasure(space, [
        complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(4)])
    args = [space.element([float(rng.randint(-3, 3)) for _ in range(4)])
            for _ in range(k)]
    expected = naive_value(reference_quantum(mu), space.zero(), args)
    value = interference(mu, args).value
    assert type(value) is float
    assert value == expected


def exact_fixtures():
    space = HistorySpace.of_size(3)
    rng = random.Random(3)
    integer = PolynomialMeasure.linear(space, (1, -2, 3)) ** 4
    rational = PolynomialMeasure(space, {
        (2, 1, 1): Fraction(1, 3), (0, 1, 0): Fraction(-5, 2)})
    gaussian = PolynomialMeasure(space, {
        (2, 1, 1): GaussianRational(1, 2), (0, 3, 0): Fraction(1, 7)})
    quantum = QuantumMeasure(space, (GaussianRational(1, 1), Fraction(1, 2),
                                     GaussianRational(0, Fraction(1, 3))))
    ints = [space.element([rng.randint(-3, 3) for _ in range(3)])
            for _ in range(4)]
    fracs = [random_element(space, rng) for _ in range(4)]
    table = _table_measure_over_subset_sums(space, rng, fracs)
    return [(integer, ints, int), (rational, fracs, Fraction),
            (gaussian, ints, GaussianRational), (quantum, fracs, Fraction),
            (table, fracs, Fraction)]


@pytest.mark.parametrize("case", range(5))
def test_exact_interference_keeps_value_type_and_breakdown(case):
    mu, args, kind = exact_fixtures()[case]
    result = interference(mu, args, breakdown=True)
    terms = naive_terms(mu, mu.space.zero(), args, empty=False)
    expected = reference_sum([s * v for _, s, v in terms])
    assert type(result.value) is type(expected) is kind
    assert result.value == expected
    assert [(t.indices, t.sign, t.value) for t in result.terms] == terms
    assert [type(t.value) for t in result.terms] == \
        [type(v) for _, _, v in terms]


@pytest.mark.parametrize("case", range(5))
def test_exact_coderivative_matches_reference(case):
    mu, args, _ = exact_fixtures()[case]
    got = coderivative(mu, 3, args[0], args[1:])
    want = naive_value(mu, args[0], args[1:], empty=True)
    assert (got, type(got)) == (want, type(want))


@pytest.mark.parametrize("case", range(4))
def test_exact_polarize_matches_sign_flip_reference(case):
    mu, args, _ = exact_fixtures()[case]
    n = 3
    parts = []
    for signs in product((1, -1), repeat=n):
        point = mu.space.zero()
        for s, a in zip(signs, args):
            point = point + a if s > 0 else point - a
        value = mu(point)
        parts.append(value if signs.count(-1) % 2 == 0 else -value)
    want = exact_div(reference_sum(parts), 2 ** n * math.factorial(n))
    got = polarize(mu, n, args[:n])
    assert (got, type(got)) == (want, type(want))


def test_walk_keeps_the_association_of_summing_each_subset():
    space = HistorySpace.of_size(2)
    args = [space.element([0.1, 1e16]), space.element([0.2, 1.0]),
            space.element([0.3, -1e16])]
    points = dict(subset_points(space.zero(), args))
    assert sorted(points) == list(range(8))
    for indices, _, point in naive_terms(lambda g: g, space.zero(), args,
                                         empty=True):
        bits = sum(1 << i for i in indices)
        assert points[bits].coeffs == point.coeffs


def test_selftest_table_draws_values_in_ascending_bitmask_order():
    space = HistorySpace.of_size(3)
    rng = random.Random(9)
    elements = [random_element(space, rng) for _ in range(4)]
    state = rng.getstate()
    table = _table_measure_over_subset_sums(space, rng, elements)
    rng.setstate(state)
    expected = {}
    for _, _, point in naive_terms(lambda g: g, space.zero(), elements,
                                   empty=False):
        if point.coeffs not in expected:
            expected[point.coeffs] = random_rational(rng)
    assert list(table.values.items()) == list(expected.items())
