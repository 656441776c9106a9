"""Checks of the benchmark itself: oracles, tracing and determinism.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import sumrules.cli as cli  # noqa: E402
from sumrules.histories import GroupElement, HistorySpace  # noqa: E402
from sumrules.measures import Measure, QuantumMeasure  # noqa: E402
from sumrules.scalars import GaussianRational  # noqa: E402

# The package re-exports the function ``interference`` under the module name.
sr_interference = importlib.import_module("sumrules.interference")


def traced_pass(jobs):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        results = []
        for i, job in enumerate(jobs):
            tracer.start_job(i)
            results.append(run.run_job(cli, job, tracer))
            tracer.end_job()
    finally:
        uninstall()
    return tracer, results


def counts_only(metrics):
    return {k: v for k, v in metrics.items() if v[1] != "ms"}


def test_accepts_every_job_of_one_round(tmp_path):
    for name in ("exact-cli", "float-highk", "slit-lab"):
        for job in workloads.ROUNDS[name](str(tmp_path), 5, 0):
            assert oracles.check(job, run.run_job(cli, job)) is None, job


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _negate(node):
    if isinstance(node, list):
        return [str(-Fraction(node[0])), node[1]]
    return str(-Fraction(node)) if isinstance(node, str) else -node


def _first_job(jobs, kind):
    job = next(j for j in jobs if j.kind == kind)
    assert run.run_job(cli, job) == 0
    assert oracles.check(job, 0) is None
    return job


def test_oracles_reject_an_altered_report(tmp_path):
    exact = workloads.exact_cli_round(str(tmp_path), 7, 0)

    job = _first_job(exact, "ik")
    _rewrite(job.outputs[0], lambda r: r.update(value=_negate(r["value"])))
    assert oracles.check(job, 0) is not None

    job = _first_job(exact, "decompose")

    def change_one_rational(report):
        row = next(row for c in report["components"] for row in c["table"])
        value = oracles.parse_exact(row["value"])
        row["value"] = str(value[0] + Fraction(1, 7)) \
            if value[1] == 0 else [str(value[0] + Fraction(1, 7)),
                                   str(value[1])]
    _rewrite(job.outputs[0], change_one_rational)
    assert oracles.check(job, 0) is not None

    job = _first_job(exact, "polarize")
    _rewrite(job.outputs[0], lambda r: r.update(value=_negate(r["value"])))
    assert oracles.check(job, 0) is not None

    job = _first_job(workloads.float_highk_round(str(tmp_path), 7, 0),
                     "float-ik")
    _rewrite(job.outputs[0], lambda r: r.update(value=r["value"] + 1e-6))
    assert oracles.check(job, 0) is not None

    job = _first_job(workloads.slit_lab_round(str(tmp_path), 7, 0), "slits")
    _rewrite(job.outputs[0], lambda r: r["interference"]["pairs"][0].update(
        value=-r["interference"]["pairs"][0]["value"]))
    assert oracles.check(job, 0) is not None

    selftest_job = workloads.selftest_round(str(tmp_path), 7, 0)[0]
    assert oracles.check(selftest_job, (False, "altered")) is not None
    assert oracles.check(exact[0], 2) == "exit code 2"


def test_order_verdict_other_than_two_is_rejected(tmp_path):
    job = _first_job(workloads.float_highk_round(str(tmp_path), 7, 0),
                     "float-order")
    _rewrite(job.outputs[0], lambda r: r.update(order=3))
    assert oracles.check(job, 0) == "approx order verdict 3 != 2"


def test_float_oracle_agrees_with_the_exact_backend():
    import random
    rng = random.Random(3)
    for k in (3, 4, 5):
        amps = workloads._float_amplitudes(rng, k, 50.0)
        args = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        space = HistorySpace.of_size(k)
        exact_mu = QuantumMeasure(space, [
            GaussianRational(Fraction(z.real), Fraction(z.imag))
            for z in amps])
        expected = sr_interference.interference_value(
            exact_mu, [space.element(a) for a in args])
        value, magnitude = oracles.exact_float_interference(amps, args)
        assert value == expected == 0
        assert magnitude > 0
    pair = [[Fraction(1, 3), 2, 0], [0, Fraction(-2, 3), 1]]
    amps = workloads._float_amplitudes(rng, 3, 7.0)
    exact_mu = QuantumMeasure(HistorySpace.of_size(3), [
        GaussianRational(Fraction(z.real), Fraction(z.imag)) for z in amps])
    expected = sr_interference.interference_value(
        exact_mu, [exact_mu.space.element(a) for a in pair])
    assert oracles._exact_rational_i2(amps, pair) == expected


def test_six_slit_report_makes_474_evaluations(tmp_path):
    jobs = [j for j in workloads.slit_lab_round(str(tmp_path), 1, 0)]
    tracer, _ = traced_pass(jobs)
    metrics = run.layer_metrics(tracer.snapshot())
    assert metrics["slits.evals_per_report.6"][0] == 474 == 64 + 45 + 140 + 225
    assert metrics["slits.evals_per_report.4"][0] == 77
    assert metrics["slits.eval_useful_ratio"][0] == \
        sum(1 << n for n in workloads.SLIT_COUNTS) / (7 + 24 + 77 + 207 + 474)


def test_interference_terms_are_two_to_the_k_minus_one(tmp_path):
    jobs = workloads.float_highk_round(str(tmp_path), 2, 0)
    tracer, _ = traced_pass(jobs[:2])
    metrics = run.layer_metrics(tracer.snapshot())
    ks = workloads.FLOAT_IK_K[:2]
    assert metrics["interference.calls"][0] == 2
    assert metrics["interference.terms"][0] == sum((1 << k) - 1 for k in ks)
    assert metrics["interference.direct_evals"][0] == \
        metrics["interference.terms"][0]


def test_uninstall_restores_every_binding():
    before_cli = cli.main
    before_eval = Measure.__call__
    before_add = GroupElement.__add__
    before_post = GroupElement.__post_init__
    before_iv = sr_interference.interference_value
    uninstall = tracing.install(tracing.Tracer())
    assert cli.main is not before_cli
    uninstall()
    assert cli.main is before_cli
    assert Measure.__call__ is before_eval
    assert GroupElement.__add__ is before_add
    assert GroupElement.__post_init__ is before_post
    assert sr_interference.interference_value is before_iv


@pytest.mark.parametrize("name", ["exact-cli", "slit-lab"])
def test_traced_and_untraced_reports_are_byte_identical(tmp_path, name):
    jobs = workloads.ROUNDS[name](str(tmp_path), 4, 0)
    _, results = traced_pass(jobs)
    traced = run._read_outputs(jobs, results)
    untraced = run._read_outputs(
        jobs, [run.run_job(cli, job) for job in jobs])
    assert traced == untraced


def test_two_traced_runs_give_identical_counts(tmp_path):
    jobs = workloads.exact_cli_round(str(tmp_path), 9, 0)
    first = run.layer_metrics(traced_pass(jobs)[0].snapshot())
    second = run.layer_metrics(traced_pass(jobs)[0].snapshot())
    assert counts_only(first) == counts_only(second)
    assert first["measures.evals"][0] > 0


def _traced_run_counts(seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "slit-lab", "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in ("ms", "1/s")}


def test_two_traced_processes_give_identical_counts():
    assert _traced_run_counts(11) == _traced_run_counts(11)
