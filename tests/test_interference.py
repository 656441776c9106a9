"""Interference functionals: values, symmetry, recursion, order probing."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from sumrules.errors import CapExceededError
from sumrules.histories import HistorySpace, characteristic_function
from sumrules.hopf import classify_primitivity
from sumrules.interference import (UNIT_ROUNDOFF, ZERO_FLOOR_FACTOR,
                                   interference, interference_value,
                                   overlapping_pair_forms, probe_order,
                                   recursion_holds, vanishes)
from sumrules.measures import (ClosureMeasure, PolynomialMeasure,
                               TableMeasure, quantum_measure_from_amplitudes)
from sumrules.sampling import (random_element, random_rational, random_tuple,
                               sample_family)

SPACE = HistorySpace.of_size(3)

coeff = st.fractions(min_value=-2, max_value=2, max_denominator=3)
elements = st.lists(coeff, min_size=3, max_size=3).map(SPACE.element)


def brute_force_interference(mu, args):
    """Independent oracle: loop subset sizes with itertools.combinations."""
    k = len(args)
    total = Fraction(0) if all(
        isinstance(c, (int, Fraction)) for a in args for c in a.coeffs
    ) else 0.0
    for size in range(1, k + 1):
        sign = (-1) ** (k - size)
        for combo in combinations(range(k), size):
            point = reduce(lambda x, y: x + y, (args[i] for i in combo))
            total = total + sign * mu(point)
    return total


def cubic_fixture():
    return PolynomialMeasure.linear(SPACE, (1, 1, 2)) ** 3


def test_cubic_frozen_value_and_oracle():
    # subset sums by hand: 64 - 8 - 27 - 27 + 1 + 1 + 8 = 12
    mu = cubic_fixture()
    args = [SPACE.basis_element(0), SPACE.basis_element(0),
            SPACE.basis_element(2)]
    assert interference_value(mu, args) == 12
    assert brute_force_interference(mu, args) == 12


@given(st.lists(elements, min_size=2, max_size=4))
@settings(max_examples=30)
def test_matches_brute_force_oracle(args):
    mu = cubic_fixture()
    assert interference_value(mu, args) == brute_force_interference(mu, args)


def test_order_one_is_plain_evaluation():
    mu = cubic_fixture()
    g = SPACE.element((1, Fraction(1, 2), -1))
    assert interference_value(mu, [g]) == mu(g)


def test_empty_argument_list_rejected():
    with pytest.raises(ValueError):
        interference(cubic_fixture(), [])


def test_subset_order_cap():
    space = HistorySpace.of_size(2)
    mu = PolynomialMeasure.linear(space, (1, 1))
    with pytest.raises(CapExceededError):
        interference(mu, [space.zero()] * 17)


def test_breakdown_sums_to_value():
    mu = cubic_fixture()
    args = [SPACE.basis_element(i) for i in range(3)]
    result = interference(mu, args, breakdown=True)
    assert len(result.terms) == 7
    total = sum(t.sign * t.value for t in result.terms)
    assert total == result.value


def test_additive_measure_has_no_pairwise_interference():
    mu = PolynomialMeasure.linear(SPACE, (2, -1, Fraction(1, 3)))
    rng = random.Random(0)
    for _ in range(25):
        a, b = random_element(SPACE, rng), random_element(SPACE, rng)
        assert interference_value(mu, [a, b]) == 0


def test_quantum_triple_interference_vanishes():
    rng = random.Random(1)
    mu = quantum_measure_from_amplitudes(
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)],
        SPACE)
    for _ in range(50):
        args = random_tuple(SPACE, 3, rng, integers_only=True)
        assert abs(interference_value(mu, args)) < 1e-9


def test_symmetry_under_argument_permutations():
    mu = cubic_fixture()
    rng = random.Random(2)
    args = random_tuple(SPACE, 3, rng)
    reference = interference_value(mu, args)
    for perm in permutations(args):
        assert interference_value(mu, list(perm)) == reference


def random_table_over_subset_sums(space, rng, elements):
    values = {}
    k = len(elements)
    for bits in range(1, 1 << k):
        point = space.zero()
        for i in range(k):
            if bits >> i & 1:
                point = point + elements[i]
        values.setdefault(point.coeffs, random_rational(rng))
    return TableMeasure(space, values)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_recursion_exact_on_random_tables(k):
    rng = random.Random(100 + k)
    for _ in range(10):
        els = [random_element(SPACE, rng) for _ in range(k + 1)]
        mu = random_table_over_subset_sums(SPACE, rng, els)
        b, c, *rest = els
        assert recursion_holds(mu, b, c, rest)


def test_recursion_trivial_on_all_zero_arguments():
    mu = cubic_fixture()
    z = SPACE.zero()
    assert recursion_holds(mu, z, z, [z, z])
    assert interference_value(mu, [z, z, z]) == 0


def test_recursion_both_sides_vanish_above_degree():
    # a cubic has no order-4 interference, and its order-3 term is additive
    mu = cubic_fixture()
    rng = random.Random(5)
    b, c = random_element(SPACE, rng), random_element(SPACE, rng)
    rest = [random_element(SPACE, rng) for _ in range(2)]
    lhs = interference_value(mu, [b, c, *rest])
    assert lhs == 0
    assert interference_value(mu, [b + c, *rest]) == \
        interference_value(mu, [b, *rest]) + interference_value(mu, [c, *rest])
    assert recursion_holds(mu, b, c, rest)


@given(elements, elements, elements)
@settings(max_examples=25)
def test_vanishing_next_order_makes_interference_multiadditive(a, a2, b):
    mu = PolynomialMeasure.linear(SPACE, (1, -2, 3)) ** 2
    assert interference_value(mu, [a + a2, b]) == \
        interference_value(mu, [a, b]) + interference_value(mu, [a2, b])


def test_overlapping_forms_frozen_example():
    # sum-of-coordinates squared, A = {0,1}, B = {1,2}:
    # form1 = 9 + 1 - 1 - 1, formG = 16 - 4 - 4
    mu = PolynomialMeasure.linear(SPACE, (1, 1, 1)) ** 2
    a = SPACE.subset([0, 1])
    b = SPACE.subset([1, 2])
    assert overlapping_pair_forms(mu, a, b) == (8, 8, 8)


def test_overlapping_forms_reduce_to_interference_when_disjoint():
    mu = cubic_fixture()
    a, b = SPACE.subset([0]), SPACE.subset([1, 2])
    i2 = interference_value(mu, [characteristic_function(a),
                                 characteristic_function(b)])
    assert overlapping_pair_forms(mu, a, b) == (i2, i2, i2)


def test_overlapping_forms_for_additive_measures():
    # the indicator-sum form vanishes by linearity on every pair; the two
    # set forms vanish on disjoint pairs and pick up twice the value on the
    # overlap otherwise (substitute the disjoint split of the union)
    mu = PolynomialMeasure.linear(SPACE, (1, 5, -2))
    for a in SPACE.all_subsets():
        for b in SPACE.all_subsets():
            f1, f2, fg = overlapping_pair_forms(mu, a, b)
            assert fg == 0
            assert f1 == f2 == 2 * mu(characteristic_function(a & b))
            if a.is_disjoint(b):
                assert (f1, f2, fg) == (0, 0, 0)


def test_forms_agree_for_all_quadratic_pairs_m5():
    space = HistorySpace.of_size(5)
    mu = PolynomialMeasure.linear(space, (1, 2, 3, 5, 7)) ** 2
    for a in space.all_subsets():
        for b in space.all_subsets():
            f1, f2, fg = overlapping_pair_forms(mu, a, b)
            assert f1 == f2 == fg


def test_forms_shift_by_odd_part_on_overlaps():
    # general quadratic measure = additive part + even part: the set forms
    # exceed the indicator-sum form by twice the odd part on the overlap
    lam = PolynomialMeasure.linear(SPACE, (1, -2, 3))
    mu = lam + lam * lam
    for a in SPACE.all_subsets():
        for b in SPACE.all_subsets():
            f1, f2, fg = overlapping_pair_forms(mu, a, b)
            shift = 2 * lam(characteristic_function(a & b))
            assert f1 == f2 == fg + shift


def test_probe_order_polynomial_exact():
    mu = PolynomialMeasure.linear(SPACE, (1, 2, 0)) ** 2
    report = probe_order(mu, 4)
    assert report.order == 2 and report.exact
    cubic = cubic_fixture()
    report = probe_order(cubic, 5)
    assert report.order == 3 and report.exact
    assert report.witness_value != 0
    assert interference_value(cubic, report.witness_args) == \
        report.witness_value


def test_probe_order_polynomial_beyond_cap_reports_exceeded():
    report = probe_order(cubic_fixture(), 2)
    assert report.order is None
    assert "exceeds" in report.message


def test_probe_order_rejects_nonzero_constant_polynomial():
    mu = PolynomialMeasure(SPACE, {(0, 0, 0): 1, (1, 0, 0): 1})
    with pytest.raises(ValueError):
        probe_order(mu, 3)


def test_probe_order_quantum_sampled():
    mu = quantum_measure_from_amplitudes(
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)], SPACE)
    report = probe_order(mu, 4, samples=sample_family(SPACE, seed=7,
                                                      count=200))
    assert report.order == 2
    assert not report.exact
    assert "consistent with order <= 2" in report.message
    assert report.witness_value != 0


def test_probe_order_black_box_exceeding_cap():
    mu_table_space = HistorySpace.of_size(2)
    quartic = PolynomialMeasure.linear(mu_table_space, (1, 1)) ** 4
    from sumrules.measures import ClosureMeasure
    opaque = ClosureMeasure(mu_table_space, quartic)
    report = probe_order(opaque, 2,
                         samples=sample_family(mu_table_space, 3, 20))
    assert report.order is None
    assert report.message == "order > 2 on samples"


def _scaled_family(space, scale, seed=11, count=32):
    """Sample tuples with float coefficients, multiplied by ``scale``."""
    family = sample_family(space, seed, count)

    def scaled(k):
        return [tuple(space.element([float(scale * c) for c in a.coeffs])
                      for a in tup) for tup in family(k)]
    return scaled


def _float_quantum(m, seed=4):
    rng = random.Random(seed)
    return quantum_measure_from_amplitudes(
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)])


@pytest.mark.parametrize("scale", [1, 100, 10 ** 4])
@pytest.mark.parametrize("wrap", ["quantum", "closure"])
def test_approx_order_verdicts_do_not_change_with_scale(scale, wrap):
    # |I_3| of an order-2 measure is pure rounding, which grows with the
    # arguments; at x1e4 it passes an absolute 1e-9, not the floor that
    # scales with sum|terms|
    mu = _float_quantum(6)
    if wrap == "closure":
        mu = ClosureMeasure(mu.space, mu)
    samples = _scaled_family(mu.space, scale)
    assert probe_order(mu, 4, samples=samples, tol=1e-9).order == 2
    assert classify_primitivity(mu, 4, samples=samples,
                                tol=1e-9).order == 2


@pytest.mark.parametrize("scale", [1, 100, 10 ** 4])
def test_approx_order_three_closure_keeps_order_three(scale):
    quantum = _float_quantum(6)
    weights = [0.5, -1.25, 2.0, 0.75, -0.5, 1.5]

    def cubic(g):
        return quantum(g) * sum(w * c for w, c in zip(weights, g.coeffs))

    mu = ClosureMeasure(quantum.space, cubic)
    samples = _scaled_family(mu.space, scale)
    assert probe_order(mu, 4, samples=samples, tol=1e-9).order == 3
    assert classify_primitivity(mu, 4, samples=samples,
                                tol=1e-9).order == 3


def test_zero_floor_scales_with_the_terms():
    result = interference(_float_quantum(4), [
        HistorySpace.of_size(4).element([1e4 * c for c in coeffs])
        for coeffs in ([1, 0, 2, 0], [0, 1, 0, 3], [1, 1, 1, 1])])
    assert result.magnitude > 1e8
    floor = ZERO_FLOOR_FACTOR * UNIT_ROUNDOFF * result.magnitude
    assert vanishes(result.value, result.magnitude, 0.0) == \
        (abs(result.value) <= floor)
    assert vanishes(result.value, result.magnitude, 1e-9)
    assert not vanishes(2 * floor, result.magnitude, 0.0)
    exact = interference(cubic_fixture(), [SPACE.basis_element(0)] * 3)
    assert exact.magnitude == 0.0 and not vanishes(exact.value, 0.0, 1e-9)
