"""End-to-end and per-layer benchmark of the ``sumrules`` CLI and selftest.

Run from the repository root:

    python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 20 --trace 0

One process, one client, closed loop, no threads: each job starts when the
previous one has returned.  Jobs are ``sumrules.cli.main(argv)`` calls made
in-process (and, for the ``selftest`` workload, the checks of
``sumrules.selftest.CHECKS``).  Jobs run in rounds of a fixed shape
(``workloads.py``); input generation and the output oracles
(``oracles.py``) run between rounds, outside the timed loop, and the run
stops at the first round boundary after ``--seconds`` of timed jobs.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh interpreter
importing ``sumrules.cli``, median of several), ``jobs_per_s``,
``job_p50_ms``, ``job_tail_ms`` (fixed percentile per workload, see
``workloads.TAIL_PERCENTILE``), ``failed_frac`` (printed, and carried by the
``attempted``/``failed`` fields) and ``peak_rss_mb``.  Times are normalized
to a reference machine speed (``reference.py``); the values as measured are
printed next to them.

``--trace 1`` runs round 0 of the stream repeatedly, alternating a pass with
the layer wrappers of ``tracing.py`` installed and a pass without them, and
prints the per-layer metrics: counts per pass (identical on every pass,
which the run checks), self times as measured and as medians over passes,
and the tracing overhead.  Spans go to
``.perfbench_work/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is false
when any output was rejected.  The run exits 1 without printing it when the
``sumrules`` sources are not next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 9
SHOWN_REJECTIONS = 5


def _import_sumrules():
    """Import the package from ``src/`` next to the benchmark, or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "sumrules", "cli.py")):
        sys.exit(f"perfbench: no sumrules sources under {SRC}")
    sys.path.insert(0, SRC)
    import sumrules.cli
    if os.path.dirname(os.path.dirname(sumrules.cli.__file__)) != SRC:
        sys.exit(f"perfbench: imported sumrules from "
                 f"{sumrules.cli.__file__}, not from {SRC}")
    return sumrules.cli


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import TAIL_PERCENTILE, WHY
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "clients": 1, "loop": "closed",
            "tail_percentile": TAIL_PERCENTILE[workload],
            "why": WHY}


def measure_setup(speed) -> tuple[float, float]:
    """Median time of a fresh interpreter importing ``sumrules.cli``,
    normalized and as measured."""
    env = dict(os.environ, PYTHONPATH=SRC)
    normalized, measured = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sumrules.cli"],
                       env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        measured.append(elapsed)
        normalized.append(elapsed * speed.factor())
    return statistics.median(normalized), statistics.median(measured)


def run_job(cli, job, tracer=None):
    """Run one job; the CLI exit code, or (ok, detail) for a selftest check.

    An exception is returned as its repr, which the oracle rejects.
    """
    try:
        if job.kind == "selftest":
            fn, seed = job.spec["fn"], job.spec["seed"]
            if tracer is None:
                return fn(seed)
            from tracing import timed_call
            return timed_call(tracer, f"selftest.{job.spec['check']}",
                              fn, seed)
        return cli.main(job.argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a job failure, counted and reported
        return repr(exc)


def judge(job, result) -> str | None:
    from oracles import check
    try:
        return check(job, result)
    except Exception as exc:  # a malformed report is a rejected output
        return f"unreadable output: {exc!r}"


def _remove_outputs(jobs) -> None:
    for job in jobs:
        for path in job.outputs:
            if os.path.exists(path):
                os.remove(path)


def _tail(latencies: list[float], percentile: int) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100,
                                method="exclusive")[percentile - 1]


class Outcome:
    """Attempted jobs and rejected ones with their reasons."""

    def __init__(self):
        self.attempted = 0
        self.rejected: list[str] = []

    def record(self, job, result) -> None:
        self.attempted += 1
        reason = judge(job, result)
        if reason is not None:
            label = os.path.basename(job.outputs[0]) if job.outputs \
                else job.spec["check"]
            self.rejected.append(f"{job.kind} {label}: {reason}")


def run_untraced(cli, workload: str, seed: int, seconds: int,
                 workdir: str) -> tuple[Outcome, dict, list[str]]:
    from reference import REF_MS, Speed
    from workloads import ROUNDS, TAIL_PERCENTILE
    speed = Speed()
    setup_s, setup_raw = measure_setup(speed)
    outcome = Outcome()
    latencies: list[float] = []
    raw: list[float] = []
    peak_kb = 0
    round_no = 0
    clock = time.perf_counter
    while sum(raw) < seconds:
        jobs = ROUNDS[workload](workdir, seed, round_no)
        gc.collect()
        results = []
        for job in jobs:
            speed.before_job()
            start = clock()
            results.append(run_job(cli, job))
            elapsed = clock() - start
            raw.append(elapsed)
            latencies.append(speed.after_job(elapsed))
        peak_kb = max(peak_kb,
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        for job, result in zip(jobs, results):
            outcome.record(job, result)
        _remove_outputs(jobs)
        round_no += 1

    pct = TAIL_PERCENTILE[workload]
    n = len(latencies)
    tail = _tail(latencies, pct)
    beyond = sum(1 for x in latencies if x > tail)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / sum(latencies), "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    failed_frac = len(outcome.rejected) / outcome.attempted
    notes = [
        f"rounds {round_no}, jobs {n}, timed wall {sum(raw):.3f} s "
        f"(jobs back to back; reference runs and oracles between them)",
        f"times normalized to a {REF_MS} ms reference loop: median "
        f"reference {statistics.median(speed.samples) * 1e3:.3f} ms over "
        f"{len(speed.samples)} samples",
        f"as measured: setup_s {setup_raw:.6f} s, jobs_per_s "
        f"{n / sum(raw):.6f} 1/s, job_p50_ms "
        f"{statistics.median(raw) * 1e3:.6f} ms, job_tail_ms "
        f"{_tail(raw, pct) * 1e3:.6f} ms",
        f"job_p50_ms over {n} samples; job_tail_ms is p{pct} with "
        f"{beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than ten)"),
        f"failed_frac {failed_frac:.6f} ({len(outcome.rejected)}/"
        f"{outcome.attempted})",
    ]
    return outcome, metrics, notes


# -- traced run -------------------------------------------------------------

def _selftest_ids() -> list[str]:
    from sumrules.selftest import CHECKS
    return [check_id for check_id, _ in CHECKS]


def _read_outputs(jobs, results) -> list:
    out = []
    for job, result in zip(jobs, results):
        if job.kind == "selftest":
            out.append(result)
            continue
        blobs = []
        for path in job.outputs:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        out.append(blobs)
    return out


def layer_metrics(snapshot: dict) -> dict:
    """Per-layer metrics of one traced pass, from a tracer snapshot."""
    from workloads import SLIT_COUNTS
    stats, counts = snapshot["stats"], snapshot["counts"]

    def calls(name):
        return stats.get(name, (0, 0))[0]

    def self_ms(name):
        return stats.get(name, (0, 0))[1] / 1e6

    def group_ms(prefix):
        return sum(v[1] for k, v in stats.items()
                   if k.startswith(prefix)) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    evals = calls("measures.eval")
    return {
        "histories.elements": (counts.get("histories.elements", 0), "count"),
        "histories.add.calls": (calls("histories.add"), "count"),
        "histories.add.self_ms": (self_ms("histories.add"), "ms"),
        "histories.sub.calls": (calls("histories.sub"), "count"),
        "histories.sub.self_ms": (self_ms("histories.sub"), "ms"),
        "interference.calls": (calls("interference.interference"), "count"),
        "interference.terms": (counts.get("interference.terms", 0), "count"),
        "interference.direct_evals":
            (counts.get("interference.direct_evals", 0), "count"),
        "interference.self_ms":
            (self_ms("interference.interference"), "ms"),
        "interference.other.self_ms":
            (group_ms("interference.") - self_ms("interference.interference"),
             "ms"),
        "measures.evals": (evals, "count"),
        "measures.evals.polynomial":
            (counts.get("measures.evals.polynomial", 0), "count"),
        "measures.evals.quantum":
            (counts.get("measures.evals.quantum", 0), "count"),
        "measures.evals.table":
            (counts.get("measures.evals.table", 0), "count"),
        "measures.evals.closure":
            (counts.get("measures.evals.closure", 0), "count"),
        "measures.eval.self_ms": (self_ms("measures.eval"), "ms"),
        "measures.poly_arith.self_ms": (self_ms("measures.poly_arith"), "ms"),
        "measures.distinct_ratio":
            (ratio(counts.get("measures.distinct", 0), evals), "ratio"),
        "slits.run_sum_rules.self_ms": (self_ms("slits.run_sum_rules"), "ms"),
        "slits.reports": (counts.get("slits.reports", 0), "count"),
        "slits.evals_per_report":
            (ratio(counts.get("slits.evals", 0),
                   counts.get("slits.reports", 0)), "count"),
        "slits.eval_useful_ratio":
            (ratio(counts.get("slits.useful", 0),
                   counts.get("slits.evals", 0)), "ratio"),
        **{f"slits.evals_per_report.{n}":
           (ratio(counts.get(f"slits.evals.{n}", 0),
                  counts.get(f"slits.reports.{n}", 0)), "count")
           for n in SLIT_COUNTS},
        "scalars.stable_sum.calls": (calls("scalars.stable_sum"), "count"),
        "scalars.stable_sum.float_calls":
            (counts.get("scalars.stable_sum.float_calls", 0), "count"),
        "scalars.stable_sum.self_ms": (self_ms("scalars.stable_sum"), "ms"),
        "polarization.polarize.calls":
            (calls("polarization.polarize"), "count"),
        "polarization.polarize.self_ms":
            (self_ms("polarization.polarize"), "ms"),
        "polarization.project.self_ms":
            (self_ms("polarization.project"), "ms"),
        "polarization.decompose.self_ms":
            (self_ms("polarization.decompose"), "ms"),
        "polarization.section.self_ms":
            (self_ms("polarization.section"), "ms"),
        "hopf.coderivative.calls": (calls("hopf.coderivative"), "count"),
        "hopf.coderivative.self_ms": (self_ms("hopf.coderivative"), "ms"),
        "hopf.classify_primitivity.self_ms":
            (self_ms("hopf.classify_primitivity"), "ms"),
        "sampling.self_ms": (group_ms("sampling."), "ms"),
        "jsonio.load.self_ms": (group_ms("jsonio.load."), "ms"),
        "jsonio.dump.self_ms": (group_ms("jsonio.dump."), "ms"),
        "jsonio.dump.bytes": (counts.get("jsonio.dump.bytes", 0), "bytes"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
    }


def run_traced(cli, workload: str, seed: int, seconds: int,
               workdir: str) -> tuple[Outcome, dict, list[str]]:
    from tracing import Tracer, install
    from workloads import ROUNDS
    jobs = ROUNDS[workload](workdir, seed, 0)
    outcome = Outcome()
    tracer = Tracer()
    per_pass: list[dict] = []
    check_ms: dict[str, list[float]] = {}
    walls = {"traced": 0.0, "untraced": 0.0}
    mismatched = 0
    clock = time.perf_counter
    start = clock()
    pass_no = 0
    while pass_no == 0 or clock() - start < seconds:
        outputs = {}
        for mode in ("traced", "untraced"):
            gc.collect()
            results = []
            uninstall = install(tracer) if mode == "traced" else None
            try:
                round_start = clock()
                for i, job in enumerate(jobs):
                    job_start = clock()
                    if uninstall is not None:
                        tracer.start_job(f"p{pass_no}-j{i}")
                        results.append(run_job(cli, job, tracer))
                        tracer.end_job()
                    else:
                        results.append(run_job(cli, job))
                    if job.kind == "selftest" and mode == "traced":
                        check_ms.setdefault(job.spec["check"], []).append(
                            (clock() - job_start) * 1e3)
                walls[mode] += clock() - round_start
            finally:
                if uninstall is not None:
                    uninstall()
            if mode == "traced":
                per_pass.append(tracer.snapshot())
                tracer.reset()
            for job, result in zip(jobs, results):
                outcome.record(job, result)
            outputs[mode] = _read_outputs(jobs, results)
            _remove_outputs(jobs)
        mismatched += sum(a != b for a, b in zip(outputs["traced"],
                                                 outputs["untraced"]))
        pass_no += 1

    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")
    tracer.write(trace_path)

    passes = [layer_metrics(s) for s in per_pass]
    counts_repeat = all(
        {k: v for k, v in p.items() if v[1] != "ms"} ==
        {k: v for k, v in passes[0].items() if v[1] != "ms"} for p in passes)
    metrics = {}
    for name, (value, unit) in passes[0].items():
        if unit == "ms":
            value = statistics.median(p[name][0] for p in passes)
        metrics[name] = (value, unit)
    for check_id in _selftest_ids():
        values = check_ms.get(check_id)
        metrics[f"selftest.{check_id}.ms"] = (
            statistics.median(values) if values else 0.0, "ms")
    traced_rate = len(jobs) * pass_no / walls["traced"]
    untraced_rate = len(jobs) * pass_no / walls["untraced"]
    metrics["layers.wait_ms"] = (0.0, "ms")
    metrics["trace.jobs_per_s.traced"] = (traced_rate, "1/s")
    metrics["trace.jobs_per_s.untraced"] = (untraced_rate, "1/s")
    metrics["trace.overhead_jobs_per_s"] = (traced_rate - untraced_rate,
                                            "1/s")
    metrics["trace.counts_repeat"] = (int(counts_repeat), "bool")
    metrics["trace.output_mismatches"] = (mismatched, "count")
    if not counts_repeat:
        outcome.rejected.append("per-layer counts differ between passes")
    if mismatched:
        outcome.rejected.append(
            f"{mismatched} outputs differ between traced and untraced passes")
    notes = [
        f"{pass_no} passes of {len(jobs)} jobs, each traced then untraced",
        "every layer is single-threaded with no queue: waiting time is 0",
        f"spans written to {os.path.relpath(trace_path, ROOT)} "
        f"({len(tracer.spans)} spans; per-evaluation, per-add and per-sum "
        f"calls folded into counts)",
    ]
    return outcome, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact-cli", "float-highk", "slit-lab",
                                 "selftest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    cli = _import_sumrules()
    sys.path.insert(0, HERE)
    workdir = os.path.join(WORK, f"{ns.workload}-seed{ns.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = run_traced if ns.trace else run_untraced
    try:
        outcome, metrics, notes = runner(cli, ns.workload, ns.seed,
                                         ns.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("context " + json.dumps(
        context(ns.workload, ns.seed, ns.seconds, bool(ns.trace)),
        sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    for reason in outcome.rejected[:SHOWN_REJECTIONS]:
        print(f"rejected: {reason}")
    if len(outcome.rejected) > SHOWN_REJECTIONS:
        print(f"rejected: ... {len(outcome.rejected) - SHOWN_REJECTIONS} more")
    print(json.dumps({
        "correct": not outcome.rejected,
        "attempted": outcome.attempted,
        "failed": len(outcome.rejected),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
