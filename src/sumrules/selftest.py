"""Seeded invariant suite behind the ``selftest`` command.

Each check is a named, seed-deterministic verification of one of the
package's core guarantees, at its stated tolerance (exact checks use no
tolerance at all).  The acceptance test module drives exactly these checks,
so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import math
import random
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, TextIO

from .histories import HistorySpace, characteristic_function, ones
from .hopf import classify_primitivity, coderivative_at_identity
from .interference import (interference_value, overlapping_pair_forms,
                           probe_order, recursion_holds, subset_points)
from .measures import (ClosureMeasure, PolynomialMeasure, QuantumMeasure,
                       TableMeasure, bimodule_action, parity_split,
                       quadratic_even_form)
from .polarization import (SymmetricForm, binomial_section_check, decompose,
                           polarize, project, section)
from .sampling import (random_element, random_polynomial, random_rational,
                       random_tuple)
from .scalars import GaussianRational
from .slits import build_measure, random_scenario, run_sum_rules

CheckFn = Callable[[int], "tuple[bool, str]"]


def _unit_amplitudes(rng: random.Random, m: int) -> list[complex]:
    while True:
        amps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(m)]
        norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
        if norm > 1e-3:
            return [z / norm for z in amps]


def _table_measure_over_subset_sums(space, rng, elements,
                                    zero_value=None) -> TableMeasure:
    """Random rational table covering every subset sum of the elements.

    Values are drawn in ascending bitmask order of the subsets.
    """
    values = {}
    points = sorted(subset_points(space.zero(), elements),
                    key=lambda entry: entry[0])
    for _, point in points[1:]:
        if point.coeffs not in values:
            values[point.coeffs] = random_rational(rng)
    if zero_value is not None:
        values[space.zero().coeffs] = zero_value
    return TableMeasure(space, values)


def check_three_slit_sum_rule(seed: int) -> tuple[bool, str]:
    """200 amplitude triples and 200 geometries: order-3 interference < 1e-9."""
    rng = random.Random(seed)
    start = time.perf_counter()
    space = HistorySpace.of_size(3)
    chi = [characteristic_function(space.subset([i])) for i in range(3)]
    worst = 0.0
    for _ in range(200):
        mu = QuantumMeasure(space, _unit_amplitudes(rng, 3))
        worst = max(worst, abs(interference_value(mu, chi)))
    for _ in range(200):
        scenario = random_scenario(rng, 3)
        mu = build_measure(scenario)
        args = [characteristic_function(mu.space.subset([i]))
                for i in range(3)]
        worst = max(worst, abs(interference_value(mu, args)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    detail = f"max |I3| = {worst:.3e} over 400 runs"
    if elapsed >= 1.0:
        detail += f"; runtime budget exceeded ({elapsed:.2f}s >= 1s)"
    return ok, detail


def check_four_slit_sum_rule(seed: int) -> tuple[bool, str]:
    """200 geometries: order-4 interference < 1e-9 while pairs interfere."""
    rng = random.Random(seed + 1)
    start = time.perf_counter()
    worst_i4 = 0.0
    interfering = 0
    for _ in range(200):
        report = run_sum_rules(random_scenario(rng, 4), tol=1e-9)
        worst_i4 = max(worst_i4, report.max_abs_quadruples)
        if report.max_abs_pairwise > 1e-6:
            interfering += 1
    elapsed = time.perf_counter() - start
    ok = worst_i4 < 1e-9 and interfering >= 190 and elapsed < 2.0
    detail = (f"max |I4| = {worst_i4:.3e}; "
              f"{interfering}/200 geometries show |I2| > 1e-6")
    if elapsed >= 2.0:
        detail += f"; runtime budget exceeded ({elapsed:.2f}s >= 2s)"
    return ok, detail


def check_recursion_arbitrary_measure(seed: int) -> tuple[bool, str]:
    """Argument-splitting recursion, exact, on 500 random lookup tables."""
    rng = random.Random(seed + 2)
    space = HistorySpace.of_size(3)
    failures = 0
    for i in range(500):
        k = 2 + i % 4
        elements = [random_element(space, rng) for _ in range(k + 1)]
        mu = _table_measure_over_subset_sums(space, rng, elements)
        b, c, *rest = elements
        if not recursion_holds(mu, b, c, rest, tol=None):
            failures += 1
    return failures == 0, f"500 exact recursion checks, k = 2..5; " \
                          f"{failures} failures"


def check_power_degree_vanishing(seed: int) -> tuple[bool, str]:
    """Powers of an additive functional: order d exactly, order d+1 kills."""
    rng = random.Random(seed + 3)
    space = HistorySpace.of_size(3)
    lam = PolynomialMeasure.linear(space, (1, 2, 3))
    problems = []
    for d in range(1, 5):
        mu = lam ** d
        report = probe_order(mu, n_max=5)
        if not (report.exact and report.order == d
                and report.witness_value not in (None, 0)):
            problems.append(f"degree {d}: wrong order verdict")
            continue
        for _ in range(100):
            args = random_tuple(space, d + 1, rng)
            if interference_value(mu, args) != 0:
                problems.append(f"degree {d}: non-zero order-{d + 1} term")
                break
    return not problems, "; ".join(problems) or \
        "d = 1..4: witnessed I_d != 0, I_(d+1) = 0 on 100 tuples each"


def check_polarization_factorial_identity(seed: int) -> tuple[bool, str]:
    """Order-n interference equals n! times the polarized form, exactly."""
    rng = random.Random(seed + 4)
    space = HistorySpace.of_size(3)
    failures = 0
    for n in (2, 3, 4):
        mu = random_polynomial(space, rng, n, ensure_top=True,
                               integer_coeffs=True)
        for _ in range(100):
            args = random_tuple(space, n, rng, integers_only=True)
            lhs = interference_value(mu, args)
            rhs = math.factorial(n) * polarize(mu, n, args)
            if lhs != rhs:
                failures += 1
    return failures == 0, f"n = 2..4, 100 tuples each; {failures} mismatches"


def check_projection_section_roundtrip(seed: int) -> tuple[bool, str]:
    """Projecting the section of a form recovers the form, table-exactly."""
    rng = random.Random(seed + 5)
    space = HistorySpace.of_size(3)
    failures = 0
    for n in (2, 3, 4):
        for _ in range(50):
            table = {
                idx: random_rational(rng)
                for idx in combinations_with_replacement(range(3), n)
            }
            phi = SymmetricForm.from_table(space, n, table)
            if project(section(phi), n) != phi:
                failures += 1
    return failures == 0, f"50 forms at each n = 2, 3, 4; " \
                          f"{failures} round-trip failures"


def check_projection_kernel(seed: int) -> tuple[bool, str]:
    """Projection kills degree <= n-1 exactly and nothing of degree n."""
    rng = random.Random(seed + 6)
    space = HistorySpace.of_size(3)
    failures = 0
    for i in range(50):
        n = 2 + i % 3
        low = random_polynomial(space, rng, n - 1, integer_coeffs=True)
        if not project(low, n).is_zero():
            failures += 1
        full = random_polynomial(space, rng, n, ensure_top=True,
                                 integer_coeffs=True)
        if project(full, n).is_zero():
            failures += 1
    return failures == 0, f"50 kernel + 50 non-kernel projections; " \
                          f"{failures} failures"


def check_decomposition_roundtrip(seed: int) -> tuple[bool, str]:
    """Homogeneous components reassemble the measure exactly."""
    rng = random.Random(seed + 7)
    space = HistorySpace.of_size(3)
    failures = 0
    for _ in range(50):
        mu = random_polynomial(space, rng, 4, integer_coeffs=True)
        dec = decompose(mu, 4)
        if dec.as_polynomial().terms != mu.terms:
            failures += 1
            continue
        points = [space.zero()] + \
            [space.basis_element(i) for i in range(3)] + \
            [random_element(space, rng) for _ in range(10)]
        if any(dec.reconstruct(x) != mu(x) for x in points):
            failures += 1
    return failures == 0, f"50 degree-<=4 measures; {failures} " \
                          f"reconstruction failures"


def check_quadratic_parity_lemmas(seed: int) -> tuple[bool, str]:
    """Odd parts of quadratic measures are additive; even parts reconstruct."""
    rng = random.Random(seed + 8)
    space = HistorySpace.of_size(3)
    failures = 0
    for _ in range(20):
        mu = random_polynomial(space, rng, 2, ensure_top=True)
        split = parity_split(mu)
        for _ in range(10):
            a = random_element(space, rng)
            b = random_element(space, rng)
            if split.odd(a + b) != split.odd(a) + split.odd(b):
                failures += 1
        for _ in range(5):
            x = random_element(space, rng)
            if quadratic_even_form(split.even, x, x) != split.even(x):
                failures += 1
    return failures == 0, f"20 quadratic measures, 200 additivity pairs; " \
                          f"{failures} failures"


def check_overlapping_pair_forms(seed: int) -> tuple[bool, str]:
    """The three pairwise interference expressions agree on all subset pairs."""
    space = HistorySpace.of_size(4)
    lam = PolynomialMeasure.linear(space, (1, 2, 3, 5))
    mu = lam * lam
    failures = 0
    pairs = 0
    for a in space.all_subsets():
        for b in space.all_subsets():
            pairs += 1
            f1, f2, fg = overlapping_pair_forms(mu, a, b)
            if not (f1 == f2 == fg):
                failures += 1
    return failures == 0, f"{pairs} subset pairs at m = 4; " \
                          f"{failures} disagreements"


def check_coderivative_bridge(seed: int) -> tuple[bool, str]:
    """Coderivatives at the identity equal interference when f(0) = 0."""
    rng = random.Random(seed + 10)
    space = HistorySpace.of_size(3)
    failures = 0
    for i in range(200):
        k = 1 + i % 5
        if i % 2 == 0:
            mu = random_polynomial(space, rng, max(k, 2),
                                   integer_coeffs=True)
            args = random_tuple(space, k, rng, integers_only=True)
        else:
            elements = [random_element(space, rng) for _ in range(k)]
            mu = _table_measure_over_subset_sums(
                space, rng, elements, zero_value=Fraction(0))
            args = tuple(elements)
        if coderivative_at_identity(mu, k, args) != \
                interference_value(mu, args):
            failures += 1
    return failures == 0, f"200 cases, k = 1..5; {failures} mismatches"


def check_primitivity_classification(seed: int) -> tuple[bool, str]:
    """Degrees classify: monomials at d, amplitude measures at 2, additive at 1."""
    space = HistorySpace.of_size(3)
    problems = []
    for d in range(1, 5):
        exps = [0, 0, 0]
        exps[0] = d - 1
        exps[1] += 1
        mono = PolynomialMeasure(space, {tuple(exps): Fraction(2, 3)})
        report = classify_primitivity(mono, k_max=5)
        if not (report.exact and report.order == d):
            problems.append(f"degree-{d} monomial -> {report.order}")
    quantum = QuantumMeasure(
        space, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    report = classify_primitivity(quantum, k_max=4, seed=seed)
    if report.order != 2:
        problems.append(f"rational amplitudes -> {report.order}")
    additive = PolynomialMeasure.linear(space, (1, 2, 3))
    report = classify_primitivity(additive, k_max=4)
    if not (report.exact and report.order == 1):
        problems.append(f"additive measure -> {report.order}")
    return not problems, "; ".join(problems) or \
        "monomials d = 1..4, amplitude and additive measures all classified"


def check_vanishing_at_identity(seed: int) -> tuple[bool, str]:
    """Every built measure evaluates to zero on the zero vector."""
    rng = random.Random(seed + 12)
    space = HistorySpace.of_size(3)
    lam = PolynomialMeasure.linear(space, (1, 2, 3))
    form = SymmetricForm.from_table(
        space, 2, {(0, 1): Fraction(1, 2), (2, 2): 3})
    table = _table_measure_over_subset_sums(
        space, rng, [random_element(space, rng) for _ in range(2)],
        zero_value=Fraction(0))
    split = parity_split(lam + lam * lam)
    fixtures = [
        random_polynomial(space, rng, 3),
        lam ** 3,
        QuantumMeasure(space, (Fraction(1, 2), Fraction(1, 3), Fraction(1))),
        QuantumMeasure(space, _unit_amplitudes(rng, 3)),
        QuantumMeasure(space, (GaussianRational(1, 1),
                               GaussianRational(0, Fraction(1, 2)),
                               Fraction(1))),
        table,
        split.even,
        split.odd,
        bimodule_action(characteristic_function(space.subset([0, 1])),
                        lam * lam, ones(space)),
        section(form),
        ClosureMeasure(space, decompose(lam + lam * lam, 2).reconstruct),
    ]
    bad = sum(1 for mu in fixtures if mu(space.zero()) != 0)
    return bad == 0, f"{len(fixtures)} fixtures evaluated at zero; {bad} " \
                     f"non-vanishing"


def check_binomial_section_identity(seed: int) -> tuple[bool, str]:
    """The enveloping-subset alternating sum is 1 for all 1 <= k <= n <= 8."""
    bad = [(n, k) for n in range(1, 9) for k in range(1, n + 1)
           if binomial_section_check(n, k) != 1]
    return not bad, f"36 (n, k) pairs checked; failures: {bad or 'none'}"


CHECKS: list[tuple[str, CheckFn]] = [
    ("three-slit-sum-rule", check_three_slit_sum_rule),
    ("four-slit-sum-rule", check_four_slit_sum_rule),
    ("recursion-arbitrary-measure", check_recursion_arbitrary_measure),
    ("power-degree-vanishing", check_power_degree_vanishing),
    ("polarization-factorial-identity", check_polarization_factorial_identity),
    ("projection-section-roundtrip", check_projection_section_roundtrip),
    ("projection-kernel", check_projection_kernel),
    ("decomposition-roundtrip", check_decomposition_roundtrip),
    ("quadratic-parity-lemmas", check_quadratic_parity_lemmas),
    ("overlapping-pair-forms", check_overlapping_pair_forms),
    ("coderivative-interference-bridge", check_coderivative_bridge),
    ("primitivity-classification", check_primitivity_classification),
    ("vanishing-at-identity", check_vanishing_at_identity),
    ("binomial-section-identity", check_binomial_section_identity),
]


def run_selftest(seed: int = 42,
                 stream: TextIO | None = None) -> tuple[bool, dict]:
    """Run every check; print one pass/fail line each; report as a dict."""
    stream = stream if stream is not None else sys.stdout
    results = []
    start = time.perf_counter()
    for check_id, fn in CHECKS:
        ok, detail = fn(seed)
        results.append({"id": check_id, "ok": ok, "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {check_id:<34} {detail}",
              file=stream)
    elapsed = time.perf_counter() - start
    all_ok = all(r["ok"] for r in results)
    failing = [r["id"] for r in results if not r["ok"]]
    print(f"{'PASS' if all_ok else 'FAIL'}  "
          f"{len(results) - len(failing)}/{len(results)} checks passed "
          f"in {elapsed:.1f}s"
          + (f"; failing: {', '.join(failing)}" if failing else ""),
          file=stream)
    report = {"seed": seed, "checks": results, "all_passed": all_ok}
    return all_ok, report
