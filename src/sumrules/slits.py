"""Multi-slit scenarios and the numerical sum-rule lab.

One history per slit.  The "phase-sum" amplitude model assigns each slit the
phase accumulated along source -> slit -> detector at a fixed wavenumber,
normalized so the amplitude vector has unit norm.  The squared-modulus
measure built from these amplitudes shows pairwise interference while its
order-3 and order-4 interference functionals vanish to machine precision:
the numerical face of "squared amplitudes are an order-2 theory".
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping

from .errors import InvalidInputError
from .histories import HistorySpace, characteristic_function
from .interference import interference_value
from .measures import QuantumMeasure, quantum_measure_from_amplitudes

Point = tuple[float, float]

AMPLITUDE_MODELS = ("phase-sum",)


@dataclass(frozen=True)
class SlitScenario:
    source: Point
    slits: tuple[Point, ...]
    detector: Point
    wavenumber: float
    amplitude_model: str = "phase-sum"

    def __post_init__(self):
        if len(self.slits) < 1:
            raise ValueError("a scenario needs at least one slit")
        for p in (self.source, *self.slits, self.detector):
            if not all(math.isfinite(c) for c in p):
                raise ValueError("positions must be finite")
        if not (math.isfinite(self.wavenumber) and self.wavenumber > 0):
            raise ValueError("wavenumber must be positive and finite")
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValueError(
                f"unknown amplitude model {self.amplitude_model!r}")

    @property
    def slit_count(self) -> int:
        return len(self.slits)


def _distance(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def build_measure(scenario: SlitScenario) -> QuantumMeasure:
    """Amplitude vector for the scenario, one history per slit.

    Each amplitude is exp(i * wavenumber * path length) / sqrt(#slits), so
    the vector has unit norm and a fully open configuration has total
    probability concentrated in the mutual phases.
    """
    k = scenario.slit_count
    norm = 1.0 / math.sqrt(k)
    amplitudes = []
    for slit in scenario.slits:
        d_in = _distance(scenario.source, slit)
        d_out = _distance(slit, scenario.detector)
        if d_in == 0.0 or d_out == 0.0:
            raise InvalidInputError(
                "degenerate geometry: slit coincides with source or detector")
        phase = scenario.wavenumber * (d_in + d_out)
        amplitudes.append(norm * cmath.exp(1j * phase))
    space = HistorySpace.of_size(k, prefix="slit")
    return quantum_measure_from_amplitudes(amplitudes, space)


@dataclass(frozen=True)
class SumRuleReport:
    """All subset probabilities and interference tables for one scenario."""

    slit_count: int
    tol: float
    probabilities: Mapping[tuple[int, ...], float]
    pairwise: Mapping[tuple[int, ...], float]
    triples: Mapping[tuple[int, ...], float] = field(default_factory=dict)
    quadruples: Mapping[tuple[int, ...], float] = field(default_factory=dict)

    @property
    def max_abs_pairwise(self) -> float:
        return max((abs(v) for v in self.pairwise.values()), default=0.0)

    @property
    def max_abs_triples(self) -> float:
        return max((abs(v) for v in self.triples.values()), default=0.0)

    @property
    def max_abs_quadruples(self) -> float:
        return max((abs(v) for v in self.quadruples.values()), default=0.0)

    @property
    def verdicts(self) -> dict[str, bool]:
        out = {"interference_present": self.max_abs_pairwise > self.tol}
        if self.slit_count >= 3:
            out["order3_vanishes"] = self.max_abs_triples < self.tol
        if self.slit_count >= 4:
            out["order4_vanishes"] = self.max_abs_quadruples < self.tol
        return out


def run_sum_rules(scenario: SlitScenario, tol: float = 1e-9) -> SumRuleReport:
    """Probabilities for every blocking pattern plus interference tables."""
    k = scenario.slit_count
    if not 2 <= k <= 6:
        raise InvalidInputError("sum-rule runs support 2 to 6 slits")
    mu = build_measure(scenario)
    space = mu.space
    chi = {i: characteristic_function(space.subset([i])) for i in range(k)}

    probabilities = {}
    for mask in space.all_subsets():
        probabilities[mask.indices()] = mu(characteristic_function(mask))

    pairwise = {
        pair: interference_value(mu, [chi[i] for i in pair])
        for pair in combinations(range(k), 2)
    }
    triples = {
        trip: interference_value(mu, [chi[i] for i in trip])
        for trip in combinations(range(k), 3)
    }
    quadruples = {
        quad: interference_value(mu, [chi[i] for i in quad])
        for quad in combinations(range(k), 4)
    }
    return SumRuleReport(
        slit_count=k, tol=tol, probabilities=probabilities,
        pairwise=pairwise, triples=triples, quadruples=quadruples)


def random_scenario(rng: random.Random, n_slits: int,
                    wavenumber_range: tuple[float, float] = (5.0, 40.0)
                    ) -> SlitScenario:
    """A generic non-degenerate geometry: source, slit column, detector."""
    source = (0.0, rng.uniform(-1.0, 1.0))
    slits = tuple(
        (1.0, rng.uniform(-2.0, 2.0)) for _ in range(n_slits))
    detector = (2.0, rng.uniform(-1.0, 1.0))
    wavenumber = rng.uniform(*wavenumber_range)
    return SlitScenario(source=source, slits=slits, detector=detector,
                        wavenumber=wavenumber)
