"""Output oracles.  ``check(job)`` returns None when the output is accepted
and a one-line reason when it is rejected.

The oracles use only the job's in-memory inputs and their own arithmetic,
never the ``sumrules`` code they check:

* exact-cli: I_k recomputed over Fractions; n! * polarize == I_n; each
  decomposition's polynomial rebuilt from its component tables; order and
  primitivity of a quantum measure are 2.
* float-highk: doubles converted exactly to rationals (integers over a common
  power of two), so I_k is computed exactly; the float value must lie within
  ``FLOAT_ERROR_FACTOR * u * sum|terms|`` of it, where sum|terms| adds, over
  all subsets, the square of sum_j |x_j| |z_j| (the magnitudes rounding acts
  on).  Each approx order verdict must be 2.
* slit-lab: probabilities and pairwise interference from the amplitudes of
  the geometry, zero triples and quadruples, the verdicts, the CSV row count.
* selftest: the check passes.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from fractions import Fraction
from itertools import combinations

from workloads import SLIT_COUNTS, slit_csv_rows

U = 2.0 ** -53
FLOAT_ERROR_FACTOR = 16
SLIT_ABS_TOL = 1e-12

ZERO = (Fraction(0), Fraction(0))


# -- exact complex arithmetic on (re, im) Fraction pairs ----------------------

def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cscale(a, r: Fraction):
    return (a[0] * r, a[1] * r)


def parse_exact(node):
    """Report scalar -> (re, im); rejects floats."""
    if isinstance(node, bool) or isinstance(node, float):
        raise ValueError(f"not an exact scalar: {node!r}")
    if isinstance(node, int):
        return (Fraction(node), Fraction(0))
    if isinstance(node, str):
        return (Fraction(node), Fraction(0))
    if isinstance(node, list) and len(node) == 2 and \
            all(isinstance(x, str) for x in node):
        return (Fraction(node[0]), Fraction(node[1]))
    raise ValueError(f"not an exact scalar: {node!r}")


def evaluate(measure: dict, point) -> tuple[Fraction, Fraction]:
    variant = measure["variant"]
    if variant == "polynomial":
        total = ZERO
        for exps, coeff in measure["terms"]:
            mono = Fraction(1)
            for x, e in zip(point, exps):
                mono *= x ** e
            total = cadd(total, cscale(coeff, mono))
        return total
    if variant == "table":
        return measure["values"][tuple(point)]
    if variant == "quantum":
        w = ZERO
        for x, z in zip(point, measure["amplitudes"]):
            w = cadd(w, cscale(z, x))
        return (w[0] * w[0] + w[1] * w[1], Fraction(0))
    raise ValueError(variant)


def interference(measure: dict, args) -> tuple[Fraction, Fraction]:
    k = len(args)
    m = len(args[0])
    total = ZERO
    for bits in range(1, 1 << k):
        point = [Fraction(0)] * m
        size = 0
        for i in range(k):
            if bits >> i & 1:
                point = [p + c for p, c in zip(point, args[i])]
                size += 1
        value = evaluate(measure, point)
        total = cadd(total, value if (k - size) % 2 == 0
                     else (-value[0], -value[1]))
    return total


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- exact-cli -----------------------------------------------------------------

def _multiplicity(idx) -> int:
    total = math.factorial(len(idx))
    for i in set(idx):
        total //= math.factorial(idx.count(i))
    return total


def _polynomial_from_decomposition(report: dict, m: int) -> dict:
    """Sum over components of multiplicity(idx) * value * x^idx."""
    terms: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    for component in report["components"]:
        for row in component["table"]:
            idx = row["idx"]
            if len(idx) != component["order"]:
                raise ValueError("index tuple length != component order")
            exps = [0] * m
            for i in idx:
                exps[i] += 1
            key = tuple(exps)
            value = cscale(parse_exact(row["value"]),
                           Fraction(_multiplicity(idx)))
            terms[key] = cadd(terms.get(key, ZERO), value)
    return {e: c for e, c in terms.items() if c != ZERO}


def _expected_polynomial(measure: dict, m: int) -> dict:
    if measure["variant"] == "polynomial":
        terms: dict = {}
        for exps, coeff in measure["terms"]:
            terms[exps] = cadd(terms.get(exps, ZERO), coeff)
        return {e: c for e, c in terms.items() if c != ZERO}
    # |sum_i g_i z_i|^2 = sum_i |z_i|^2 g_i^2 + sum_{i<j} 2 Re(z_i conj z_j) g_i g_j
    z = measure["amplitudes"]
    terms = {}
    for i in range(m):
        for j in range(i, m):
            re = z[i][0] * z[j][0] + z[i][1] * z[j][1]
            coeff = re if i == j else 2 * re
            if coeff:
                exps = [0] * m
                exps[i] += 1
                exps[j] += 1
                terms[tuple(exps)] = (coeff, Fraction(0))
    return terms


def check_exact(job) -> str | None:
    report = read_json(job.outputs[0])
    spec = job.spec
    if job.kind == "ik":
        expected = interference(spec["measure"], spec["args"])
        if report.get("k") != spec["k"]:
            return f"k = {report.get('k')} != {spec['k']}"
        got = parse_exact(report["value"])
        return None if got == expected else f"I_k {got} != {expected}"
    if job.kind == "polarize":
        n = spec["n"]
        expected = interference(spec["measure"], spec["args"])
        got = cscale(parse_exact(report["value"]), Fraction(math.factorial(n)))
        return None if got == expected else \
            f"n! * polarize = {got} != I_n = {expected}"
    if job.kind == "decompose":
        if report.get("order") != spec["n"] or report.get("m") != spec["m"]:
            return "wrong decomposition order or m"
        rebuilt = _polynomial_from_decomposition(report, spec["m"])
        expected = _expected_polynomial(spec["measure"], spec["m"])
        return None if rebuilt == expected else \
            "components do not rebuild the measure's polynomial"
    if job.kind in ("order", "primitivity"):
        return None if report.get("order") == 2 else \
            f"{job.kind} verdict {report.get('order')} != 2"
    raise ValueError(job.kind)


# -- float-highk -----------------------------------------------------------------

def _dyadic(values: list[float]) -> tuple[list[int], int]:
    """Exact integers n_i and exponent e with values[i] == n_i / 2**e."""
    fracs = [Fraction(v) for v in values]
    e = max((f.denominator.bit_length() - 1 for f in fracs), default=0)
    return [int(f * (1 << e)) for f in fracs], e


def exact_float_interference(amplitudes, args) -> tuple[Fraction, float]:
    """Exact I_k of the squared-modulus measure and sum|terms| (float).

    Amplitudes are doubles taken as exact rationals; subsets are visited in
    Gray-code order so that each step adds or removes one argument.
    """
    k = len(args)
    m = len(amplitudes)
    ints, e = _dyadic([c for z in amplitudes for c in (z.real, z.imag)])
    zr, zi = ints[0::2], ints[1::2]
    mags = [abs(z) for z in amplitudes]
    w_args = [(sum(a[j] * zr[j] for j in range(m)),
               sum(a[j] * zi[j] for j in range(m))) for a in args]
    wr = wi = 0
    coeffs = [0] * m
    size = 0
    total = 0
    magnitude = 0.0
    in_set = [False] * k
    for step in range(1, 1 << k):
        i = (step & -step).bit_length() - 1
        sign = -1 if in_set[i] else 1
        in_set[i] = not in_set[i]
        size += sign
        wr += sign * w_args[i][0]
        wi += sign * w_args[i][1]
        a = args[i]
        for j in range(m):
            coeffs[j] += sign * a[j]
        value = wr * wr + wi * wi
        total += value if (k - size) % 2 == 0 else -value
        bound = sum(abs(c) * s for c, s in zip(coeffs, mags))
        magnitude += bound * bound
    return Fraction(total, 1 << (2 * e)), magnitude


def _within(value: float, exact: Fraction, magnitude: float) -> bool:
    slack = FLOAT_ERROR_FACTOR * U * magnitude
    return abs(Fraction(value) - exact) <= Fraction(slack)


def check_float(job) -> str | None:
    report = read_json(job.outputs[0])
    amps = job.spec["amplitudes"]
    if job.kind == "float-ik":
        args = job.spec["args"]
        exact, magnitude = exact_float_interference(amps, args)
        if len(args) >= 3 and exact != 0:
            return f"oracle: exact I_{len(args)} = {exact} is not 0"
        value = report["value"]
        if not isinstance(value, float):
            return f"value {value!r} is not a float"
        return None if _within(value, exact, magnitude) else \
            f"|I_k - exact| = {abs(value - float(exact)):.3e} exceeds " \
            f"{FLOAT_ERROR_FACTOR} u sum|terms| = " \
            f"{FLOAT_ERROR_FACTOR * U * magnitude:.3e}"
    if job.kind == "float-order":
        if report.get("order") != 2:
            return f"approx order verdict {report.get('order')} != 2"
        witness = report.get("witness")
        if witness is None:
            return "order-2 verdict without an I_2 witness"
        args = [[Fraction(c) for c in a["coeffs"]] for a in witness["args"]]
        if len(args) != 2:
            return "witness is not a pair"
        exact = _exact_rational_i2(amps, args)
        if exact == 0:
            return "witness has exact I_2 = 0"
        magnitude = sum(
            sum(abs(float(c)) * abs(z) for c, z in zip(point, amps)) ** 2
            for point in (args[0], args[1],
                          [x + y for x, y in zip(*args)]))
        return None if _within(witness["value"], exact, magnitude) else \
            "witness I_2 value outside the summation error bound"
    raise ValueError(job.kind)


def _exact_rational_i2(amplitudes, args) -> Fraction:
    """2 Re(w_a conj w_b) with w = <x, z>, all exact."""
    zs = [(Fraction(z.real), Fraction(z.imag)) for z in amplitudes]

    def w(x):
        return (sum(c * z[0] for c, z in zip(x, zs)),
                sum(c * z[1] for c, z in zip(x, zs)))

    a, b = w(args[0]), w(args[1])
    return 2 * (a[0] * b[0] + a[1] * b[1])


# -- slit-lab ------------------------------------------------------------------

def slit_amplitudes(scenario: dict) -> list[complex]:
    src, det, k = scenario["source"], scenario["detector"], \
        scenario["wavenumber"]
    slits = scenario["slits"]
    norm = 1.0 / math.sqrt(len(slits))
    return [norm * cmath.exp(1j * k * (math.dist(src, s) + math.dist(s, det)))
            for s in slits]


def check_slits(job) -> str | None:
    report = read_json(job.outputs[0])
    scenario = job.spec["scenario"]
    n = len(scenario["slits"])
    if n not in SLIT_COUNTS or report.get("slit_count") != n:
        return "wrong slit count"
    z = slit_amplitudes(scenario)
    probs = {tuple(r["slits"]): r["value"] for r in report["probabilities"]}
    if len(probs) != 1 << n:
        return f"{len(probs)} blocking patterns, expected {1 << n}"
    for bits in range(1 << n):
        key = tuple(i for i in range(n) if bits >> i & 1)
        expected = abs(sum(z[i] for i in key)) ** 2
        if abs(probs.get(key, math.inf) - expected) > SLIT_ABS_TOL:
            return f"P{key} = {probs.get(key)} != {expected}"
    tables = report["interference"]
    pairs = {tuple(r["slits"]): r["value"] for r in tables["pairs"]}
    if set(pairs) != set(combinations(range(n), 2)):
        return "pair table does not list every pair"
    worst_pair = 0.0
    for (i, j), value in pairs.items():
        expected = 2.0 * (z[i] * z[j].conjugate()).real
        worst_pair = max(worst_pair, abs(expected))
        if abs(value - expected) > SLIT_ABS_TOL:
            return f"I2{(i, j)} = {value} != {expected}"
    for name, r in (("triples", 3), ("quadruples", 4)):
        rows = {tuple(row["slits"]): row["value"] for row in tables[name]}
        if set(rows) != set(combinations(range(n), r)):
            return f"{name} table does not list every {r}-subset"
        if any(abs(v) > SLIT_ABS_TOL for v in rows.values()):
            return f"non-zero {name}: order-2 measures have I_{r} = 0"
    tol = job.spec["tol"]
    expected_verdicts = {"interference_present": worst_pair > tol}
    if n >= 3:
        expected_verdicts["order3_vanishes"] = True
    if n >= 4:
        expected_verdicts["order4_vanishes"] = True
    if report["verdicts"] != expected_verdicts:
        return f"verdicts {report['verdicts']} != {expected_verdicts}"
    with open(job.outputs[1], newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh))
    if rows != slit_csv_rows(n):
        return f"CSV has {rows} rows, expected {slit_csv_rows(n)}"
    return None


def check(job, result) -> str | None:
    """Accept or reject one job given what running it returned."""
    if job.kind == "selftest":
        ok, detail = result
        return None if ok is True else f"{job.spec['check']}: {detail}"
    if result != 0:
        return f"exit code {result}"
    if job.kind in ("float-ik", "float-order"):
        return check_float(job)
    if job.kind == "slits":
        return check_slits(job)
    return check_exact(job)
