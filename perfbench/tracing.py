"""Per-layer tracing of ``sumrules`` from outside the package.

``install(tracer)`` wraps the public functions of each layer (and the hot
methods ``Measure.__call__``, ``GroupElement.__add__``/``__sub__`` and
``GroupElement.__post_init__``) by rebinding them in every loaded
``sumrules`` module; the returned callable puts the originals back.  Nothing
under ``src/`` is edited, and an untraced run installs no wrapper at all.

Every wrapped call pushes a frame on one stack (the benchmark is
single-threaded), so a layer's self time is its span time minus the time its
child spans cover.  Calls of the outer functions of a layer are recorded as
spans ``(id, name, start_ns, end_ns, parent_id, job_id)``, kept in memory and
written out when the run ends.  The per-evaluation, per-addition and
per-summation calls (``LEAF`` names) run millions of times in one run, so
they are folded into call counts and self time instead of one span each.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Hot calls: counted and timed, but not stored one span each.
LEAF = frozenset({
    "measures.eval", "histories.add", "histories.sub", "scalars.stable_sum",
    "jsonio.dump.scalar", "sampling.random_rational",
    "sampling.random_element",
})

# (module, attribute, span name) for plain functions of each layer.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("jsonio", "load_json_file", "jsonio.load.file"),
    ("jsonio", "measure_from_json", "jsonio.load.measure"),
    ("jsonio", "args_from_json", "jsonio.load.args"),
    ("jsonio", "scenario_from_json", "jsonio.load.scenario"),
    ("jsonio", "dump_json_bytes", "jsonio.dump.bytes"),
    ("jsonio", "scalar_to_json", "jsonio.dump.scalar"),
    ("jsonio", "element_to_json", "jsonio.dump.element"),
    ("jsonio", "decomposition_to_json", "jsonio.dump.decomposition"),
    ("jsonio", "sum_rule_report_to_json", "jsonio.dump.sum_rule_report"),
    ("slits", "run_sum_rules", "slits.run_sum_rules"),
    ("slits", "build_measure", "slits.build_measure"),
    ("slits", "random_scenario", "slits.random_scenario"),
    ("interference", "interference", "interference.interference"),
    ("interference", "interference_value", "interference.interference_value"),
    ("interference", "probe_order", "interference.probe_order"),
    ("interference", "recursion_holds", "interference.recursion_holds"),
    ("interference", "overlapping_pair_forms",
     "interference.overlapping_pair_forms"),
    ("polarization", "polarize", "polarization.polarize"),
    ("polarization", "project", "polarization.project"),
    ("polarization", "section", "polarization.section"),
    ("polarization", "decompose", "polarization.decompose"),
    ("hopf", "coderivative", "hopf.coderivative"),
    ("hopf", "coderivative_at_identity", "hopf.coderivative_at_identity"),
    ("hopf", "classify_primitivity", "hopf.classify_primitivity"),
    ("measures", "check_order_identity", "measures.check_order_identity"),
    ("measures", "parity_split", "measures.parity_split"),
    ("scalars", "stable_sum", "scalars.stable_sum"),
    ("sampling", "sample_family", "sampling.sample_family"),
    ("sampling", "random_rational", "sampling.random_rational"),
    ("sampling", "random_element", "sampling.random_element"),
    ("sampling", "random_tuple", "sampling.random_tuple"),
    ("sampling", "random_polynomial", "sampling.random_polynomial"),
]

# (module, class, method, span name) for methods.
METHODS = [
    ("measures", "Measure", "__call__", "measures.eval"),
    ("measures", "PolynomialMeasure", "__add__", "measures.poly_arith"),
    ("measures", "PolynomialMeasure", "__mul__", "measures.poly_arith"),
    ("histories", "GroupElement", "__add__", "histories.add"),
    ("histories", "GroupElement", "__sub__", "histories.sub"),
]


class Tracer:
    """Spans, per-name call counts and self times, and layer counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: set = set()
        self.job = None
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def start_job(self, job_id) -> None:
        self.job = job_id
        self.distinct.clear()

    def end_job(self) -> None:
        self.counts["measures.distinct"] += len(self.distinct)
        self.distinct.clear()
        self.job = None

    def reset(self) -> None:
        """Zero the counters and self times (spans are kept)."""
        for pair in self.stats.values():
            pair[0] = pair[1] = 0
        for key in self.counts:
            self.counts[key] = 0

    def snapshot(self) -> dict:
        return {"stats": {k: tuple(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")


def _timed(tracer: Tracer, name: str, fn):
    """Wrap ``fn`` in a span; frames are [child_ns, start_ns, span_id, name]."""
    stats = tracer.stats[name]
    stack = tracer.stack
    spans = tracer.spans
    clock = time.perf_counter_ns
    leaf = name in LEAF

    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else None
        parent_id = parent[2] if parent is not None else 0
        sid = parent_id if leaf else tracer.new_id()
        frame = [0, clock(), sid, name]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - frame[1]
            stats[0] += 1
            stats[1] += duration - frame[0]
            if parent is not None:
                parent[0] += duration
            if not leaf:
                spans.append((sid, name, frame[1], end, parent_id,
                              tracer.job))

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _hooked(tracer: Tracer, name: str, fn, modules: dict):
    """Layer-specific counting around ``fn`` before the span is added."""
    counts = tracer.counts
    stack = tracer.stack
    if name == "measures.eval":
        m = modules["measures"]
        variants = {m.PolynomialMeasure: "measures.evals.polynomial",
                    m.QuantumMeasure: "measures.evals.quantum",
                    m.TableMeasure: "measures.evals.table",
                    m.ClosureMeasure: "measures.evals.closure"}
        distinct = tracer.distinct

        def evaluate(self, g):
            counts[variants.get(type(self), "measures.evals.other")] += 1
            distinct.add((self, g.coeffs))
            if len(stack) > 1 and stack[-2][3] == "interference.interference":
                counts["interference.direct_evals"] += 1
            return fn(self, g)
        return evaluate
    if name == "interference.interference":
        def interference(mu, args, *rest, **kwargs):
            counts["interference.terms"] += (1 << len(args)) - 1
            return fn(mu, args, *rest, **kwargs)
        return interference
    if name == "scalars.stable_sum":
        def stable_sum(values):
            result = fn(values)
            if isinstance(result, (float, complex)):
                counts["scalars.stable_sum.float_calls"] += 1
            return result
        return stable_sum
    if name == "jsonio.dump.bytes":
        def dump_json_bytes(obj):
            payload = fn(obj)
            counts["jsonio.dump.bytes"] += len(payload)
            return payload
        return dump_json_bytes
    if name == "slits.run_sum_rules":
        eval_stats = tracer.stats["measures.eval"]

        def run_sum_rules(scenario, *args, **kwargs):
            before = eval_stats[0]
            report = fn(scenario, *args, **kwargs)
            n = scenario.slit_count
            evals = eval_stats[0] - before
            counts["slits.reports"] += 1
            counts[f"slits.reports.{n}"] += 1
            counts["slits.evals"] += evals
            counts[f"slits.evals.{n}"] += evals
            counts["slits.useful"] += 1 << n
            return report
        return run_sum_rules
    if name == "sampling.sample_family":
        def sample_family(*args, **kwargs):
            return _timed(tracer, "sampling.family", fn(*args, **kwargs))
        return sample_family
    return fn


def install(tracer: Tracer):
    """Wrap every layer's public functions; return a callable that undoes it."""
    import sumrules  # noqa: F401  (loads every submodule)

    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("sumrules.")}
    rebinds: list[tuple[object, str, object]] = []

    for mod_name, attr, span in FUNCTIONS:
        original = getattr(modules[mod_name], attr)
        wrapped = _timed(tracer, span,
                         _hooked(tracer, span, original, modules))
        for mod in [sys.modules["sumrules"], *modules.values()]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    rebinds.append((mod, key, original))
                    setattr(mod, key, wrapped)

    for mod_name, cls_name, method, span in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        original = cls.__dict__[method]
        rebinds.append((cls, method, original))
        setattr(cls, method, _timed(tracer, span,
                                    _hooked(tracer, span, original, modules)))

    element = modules["histories"].GroupElement
    post_init = element.__dict__["__post_init__"]
    counts = tracer.counts

    def counted_post_init(self):
        counts["histories.elements"] += 1
        post_init(self)

    rebinds.append((element, "__post_init__", post_init))
    element.__post_init__ = counted_post_init

    def uninstall():
        for owner, key, original in reversed(rebinds):
            setattr(owner, key, original)

    return uninstall


def timed_call(tracer: Tracer, name: str, fn, *args):
    """Run ``fn(*args)`` inside a span of its own (used for selftest checks)."""
    return _timed(tracer, name, fn)(*args)
