"""Seeded job streams for the four benchmark workloads.

A stream is a sequence of rounds.  Every round of a workload has the same
shape (commands, history counts, orders, variants); the seed and the round
number only choose the numbers inside the inputs.  Runs of different length
or seed therefore run the same job mix, which keeps the medians steady.

A job is one ``sumrules.cli.main(argv)`` call (or one selftest check).  Its
input files are written before the round is timed; ``spec`` keeps the same
inputs in memory for the oracle in ``oracles.py``.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WHY = {
    "exact-cli": "exact Fraction/GaussianRational CLI jobs on m=3..6 "
                 "(ik k<=7, polarize, decompose, order, primitivity): "
                 "scalar arithmetic, polarization and JSON parsing; "
                 "job_tail_ms is p90",
    "float-highk": "approx ik at k=m=10..14 and order at m=6..10, scale "
                   "1..100: the 2^k subset enumeration, group adds and "
                   "Neumaier sums; job_tail_ms is p88",
    "slit-lab": "many small slits jobs on 2..6-slit geometries writing "
                "report JSON and CSV: fixed per-call cost, 474 evaluations "
                "per 6-slit report, writing; job_tail_ms is p98",
    "selftest": "the 14 selftest checks over consecutive seeds, one job per "
                "check: small-m TableMeasure recursion and Fraction "
                "projection; job_tail_ms is p75",
}

# Highest percentile with at least ten samples beyond it at the job count a
# run of the recorded length makes; fixed per workload so that it is the
# same percentile on every run.
TAIL_PERCENTILE = {"exact-cli": 90, "float-highk": 88, "slit-lab": 98,
                   "selftest": 75}


@dataclass
class Job:
    kind: str
    argv: list[str] | None
    outputs: list[str]
    spec: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def _write(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


# -- exact data ---------------------------------------------------------------

def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if value or not nonzero:
            return value


def _exact_scalar(rng: random.Random, gaussian: bool, nonzero: bool = True):
    """An exact scalar as (JSON node, (re, im))."""
    re = _rational(rng, nonzero)
    im = _rational(rng, True) if gaussian else Fraction(0)
    node = [str(re), str(im)] if gaussian else str(re)
    return node, (re, im)


def _monomials(m: int, max_degree: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, left):
        if len(prefix) == m:
            if sum(prefix) >= 1:
                out.append(tuple(prefix))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)

    rec([], max_degree)
    return out


def _polynomial(rng: random.Random, m: int, degree: int, gaussian: bool,
                n_terms: int):
    """Zero-constant polynomial with ``n_terms`` terms, one of them of total
    degree ``degree`` and none higher."""
    monos = _monomials(m, degree)
    top = [e for e in monos if sum(e) == degree]
    first = rng.choice(top)
    rest = [e for e in monos if e != first]
    chosen = [first] + rng.sample(rest, min(n_terms - 1, len(rest)))
    terms_node, terms = [], []
    for exps in chosen:
        node, value = _exact_scalar(rng, gaussian)
        terms_node.append({"monomial": list(exps), "coeff": node})
        terms.append((exps, value))
    return ({"variant": "polynomial", "m": m, "terms": terms_node},
            {"variant": "polynomial", "terms": terms})


def _rational_args(rng: random.Random, m: int, k: int):
    args = [[_rational(rng) for _ in range(m)] for _ in range(k)]
    return {"args": [[str(c) for c in a] for a in args]}, args


def _subset_points(args) -> list[tuple[Fraction, ...]]:
    m = len(args[0])
    points = []
    for bits in range(1, 1 << len(args)):
        point = [Fraction(0)] * m
        for i, a in enumerate(args):
            if bits >> i & 1:
                point = [p + c for p, c in zip(point, a)]
        points.append(tuple(point))
    return points


def _table(rng: random.Random, m: int, args, gaussian: bool):
    values = {}
    for point in _subset_points(args):
        if point not in values:
            values[point] = _exact_scalar(rng, gaussian, nonzero=False)
    node = {"variant": "table", "m": m, "table": [
        {"point": [str(c) for c in point], "value": v[0]}
        for point, v in values.items()]}
    return node, {"variant": "table",
                  "values": {p: v[1] for p, v in values.items()}}


def _exact_quantum(rng: random.Random, m: int):
    amps = [_exact_scalar(rng, True) for _ in range(m)]
    return ({"variant": "quantum", "m": m, "amplitudes": [a[0] for a in amps]},
            {"variant": "quantum", "amplitudes": [a[1] for a in amps]})


# Round shapes.  ik: (k, m, variant, gaussian); polarize: (n, m, gaussian);
# decompose: (variant, n, m, gaussian).
EXACT_IK = [(2, 6, "polynomial", True), (3, 5, "table", False),
            (4, 4, "polynomial", False), (5, 3, "table", True),
            (6, 6, "table", False), (7, 4, "polynomial", True)]
EXACT_POLARIZE = [(2, 6, True), (3, 5, False), (4, 4, False)]
EXACT_DECOMPOSE = [("polynomial", 3, 5, False), ("quantum", 2, 6, True),
                   ("polynomial", 4, 4, True), ("quantum", 3, 6, True)]
EXACT_ORDER_M = 4
EXACT_PRIMITIVITY_M = 4
# Term counts of the generated polynomials.
IK_TERMS, POLARIZE_TERMS, DECOMPOSE_TERMS = 12, 10, 14
POLY_IK_DEGREE = 3


def exact_cli_round(workdir: str, seed: int, round_no: int) -> list[Job]:
    rng = _rng("exact-cli", seed, round_no)
    jobs = []

    def base(i):
        return os.path.join(workdir, f"r{round_no}-{i}")

    for k, m, variant, gaussian in EXACT_IK:
        b = base(len(jobs))
        args_node, args = _rational_args(rng, m, k)
        if variant == "polynomial":
            node, measure = _polynomial(rng, m, POLY_IK_DEGREE, gaussian,
                                        IK_TERMS)
        else:
            node, measure = _table(rng, m, args, gaussian)
        jobs.append(Job("ik", [
            "ik", "--measure", _write(b + "-measure.json", node),
            "--args", _write(b + "-args.json", args_node),
            "--k", str(k), "--out", b + "-out.json"],
            [b + "-out.json"], {"measure": measure, "args": args, "k": k}))
    for n, m, gaussian in EXACT_POLARIZE:
        b = base(len(jobs))
        node, measure = _polynomial(rng, m, n, gaussian, POLARIZE_TERMS)
        args_node, args = _rational_args(rng, m, n)
        jobs.append(Job("polarize", [
            "polarize", "--measure", _write(b + "-measure.json", node),
            "--args", _write(b + "-args.json", args_node),
            "--out", b + "-out.json"],
            [b + "-out.json"], {"measure": measure, "args": args, "n": n}))
    for variant, n, m, gaussian in EXACT_DECOMPOSE:
        b = base(len(jobs))
        if variant == "polynomial":
            node, measure = _polynomial(rng, m, n, gaussian, DECOMPOSE_TERMS)
        else:
            node, measure = _exact_quantum(rng, m)
        jobs.append(Job("decompose", [
            "decompose", "--measure", _write(b + "-measure.json", node),
            "--n", str(n), "--seed", str(rng.randint(0, 999)),
            "--out", b + "-out.json"],
            [b + "-out.json"], {"measure": measure, "m": m, "n": n}))
    for kind, m, flag in (("order", EXACT_ORDER_M, "--n"),
                          ("primitivity", EXACT_PRIMITIVITY_M, "--kmax")):
        b = base(len(jobs))
        node, measure = _exact_quantum(rng, m)
        jobs.append(Job(kind, [
            kind, "--measure" if kind == "order" else "--fn",
            _write(b + "-measure.json", node), flag, "3",
            "--seed", str(rng.randint(0, 999)), "--out", b + "-out.json"],
            [b + "-out.json"], {"measure": measure}))
    return jobs


# -- float data ---------------------------------------------------------------

FLOAT_IK_K = [10, 11, 12, 13, 14, 14, 14]
FLOAT_ORDER_M = [6, 7, 8, 9, 10] * 2
FLOAT_SCALE = (1.0, 100.0)


def _float_amplitudes(rng: random.Random, m: int, scale: float):
    return [complex(scale * rng.uniform(-1, 1), scale * rng.uniform(-1, 1))
            for _ in range(m)]


def float_highk_round(workdir: str, seed: int, round_no: int) -> list[Job]:
    rng = _rng("float-highk", seed, round_no)
    jobs = []
    for k in FLOAT_IK_K:
        b = os.path.join(workdir, f"r{round_no}-{len(jobs)}")
        amps = _float_amplitudes(rng, k, 1.0)
        args = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        node = {"variant": "quantum", "m": k,
                "amplitudes": [[z.real, z.imag] for z in amps]}
        jobs.append(Job("float-ik", [
            "ik", "--backend", "approx",
            "--measure", _write(b + "-measure.json", node),
            "--args", _write(b + "-args.json", {"args": args}),
            "--out", b + "-out.json"],
            [b + "-out.json"], {"amplitudes": amps, "args": args}))
    for m in FLOAT_ORDER_M:
        b = os.path.join(workdir, f"r{round_no}-{len(jobs)}")
        amps = _float_amplitudes(rng, m, rng.uniform(*FLOAT_SCALE))
        node = {"variant": "quantum", "m": m,
                "amplitudes": [[z.real, z.imag] for z in amps]}
        jobs.append(Job("float-order", [
            "order", "--backend", "approx",
            "--measure", _write(b + "-measure.json", node),
            "--seed", str(rng.randint(0, 999)), "--out", b + "-out.json"],
            [b + "-out.json"], {"amplitudes": amps}))
    return jobs


# -- slit lab -----------------------------------------------------------------

SLIT_COUNTS = [2, 3, 4, 5, 6]
SLIT_TOL = 1e-9


def _scenario(rng: random.Random, n_slits: int) -> dict:
    return {"source": [0.0, rng.uniform(-1.0, 1.0)],
            "slits": [[1.0, rng.uniform(-2.0, 2.0)] for _ in range(n_slits)],
            "detector": [2.0, rng.uniform(-1.0, 1.0)],
            "wavenumber": rng.uniform(5.0, 40.0)}


def slit_lab_round(workdir: str, seed: int, round_no: int) -> list[Job]:
    rng = _rng("slit-lab", seed, round_no)
    jobs = []
    for n_slits in SLIT_COUNTS:
        b = os.path.join(workdir, f"r{round_no}-{len(jobs)}")
        scenario = _scenario(rng, n_slits)
        jobs.append(Job("slits", [
            "slits", "--scenario", _write(b + "-scenario.json", scenario),
            "--tol", repr(SLIT_TOL), "--report", b + "-out.json",
            "--csv", b + "-out.csv"],
            [b + "-out.json", b + "-out.csv"],
            {"scenario": scenario, "tol": SLIT_TOL}))
    return jobs


# -- selftest -----------------------------------------------------------------

def selftest_round(workdir: str, seed: int, round_no: int) -> list[Job]:
    from sumrules.selftest import CHECKS
    check_seed = seed * 1000 + round_no
    return [Job("selftest", None, [], {"check": check_id, "fn": fn,
                                       "seed": check_seed})
            for check_id, fn in CHECKS]


ROUNDS = {
    "exact-cli": exact_cli_round,
    "float-highk": float_highk_round,
    "slit-lab": slit_lab_round,
    "selftest": selftest_round,
}


def slit_csv_rows(n_slits: int) -> int:
    """Header, every blocking pattern, and the pair/triple/quadruple rows."""
    return 1 + (1 << n_slits) + sum(math.comb(n_slits, r) for r in (2, 3, 4))
