"""Command line: JSON specs in, JSON reports out, fully seed-deterministic.

Exit codes: 0 success, 1 failing selftest invariant, 2 unusable input
(unparseable, or outside what the command accepts), 3 enumeration cap
exceeded.  Any other exception is a fault of the program and propagates.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

from . import jsonio
from .errors import (CapExceededError, InvalidInputError, SpecFormatError,
                     UnsampledPointError)
from .hopf import classify_primitivity, coderivative_at_identity
from .interference import ZERO_FLOOR_FACTOR, interference, probe_order
from .measures import Measure
from .polarization import decompose, polarize
from .sampling import sample_family
from .selftest import run_selftest
from .slits import run_sum_rules

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_CAP = 3


@dataclass
class RunConfig:
    """Everything one invocation depends on; same config, same report bytes."""

    command: str
    measure_path: str | None = None
    fn_path: str | None = None
    args_path: str | None = None
    scenario_path: str | None = None
    out_path: str | None = None
    csv_path: str | None = None
    backend: str = "exact"
    tol: float | None = None
    seed: int = 0
    k: int | None = None
    n: int | None = None
    k_max: int | None = None
    breakdown: bool = False
    sample_count: int = 64

    @property
    def effective_tol(self) -> float | None:
        if self.tol is not None:
            return self.tol
        return None if self.backend == "exact" else 1e-9


def _load_measure(cfg: RunConfig, path: str | None) -> Measure:
    if path is None:
        raise SpecFormatError(f"{cfg.command}: a measure/function JSON file "
                              f"is required")
    return jsonio.measure_from_json(jsonio.load_json_file(path), cfg.backend)


def _load_args(cfg: RunConfig, mu: Measure):
    if cfg.args_path is None:
        raise SpecFormatError(f"{cfg.command}: an args JSON file is required")
    return jsonio.args_from_json(
        jsonio.load_json_file(cfg.args_path), mu.space, cfg.backend)


def _emit(cfg: RunConfig, report: dict) -> None:
    payload = jsonio.dump_json_bytes(report)
    if cfg.out_path:
        with open(cfg.out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _cmd_ik(cfg: RunConfig) -> int:
    mu = _load_measure(cfg, cfg.measure_path)
    args = _load_args(cfg, mu)
    if cfg.k is not None and cfg.k != len(args):
        raise SpecFormatError(
            f"ik: --k {cfg.k} does not match {len(args)} arguments")
    result = interference(mu, args, breakdown=cfg.breakdown)
    report = {"k": result.k, "value": jsonio.scalar_to_json(result.value)}
    if result.terms is not None:
        report["terms"] = [
            {"subset": list(t.indices), "sign": t.sign,
             "value": jsonio.scalar_to_json(t.value)}
            for t in result.terms
        ]
    _emit(cfg, report)
    return EXIT_OK


def _cmd_order(cfg: RunConfig) -> int:
    mu = _load_measure(cfg, cfg.measure_path)
    n_max = cfg.n if cfg.n is not None else 4
    samples = sample_family(mu.space, cfg.seed, cfg.sample_count)
    report = probe_order(mu, n_max, samples=samples, tol=cfg.effective_tol)
    payload = {
        "order": report.order,
        "exact": report.exact,
        "n_max": report.n_max,
        "message": report.message,
    }
    if report.witness_value is not None:
        payload["witness"] = {
            "args": [jsonio.element_to_json(a) for a in report.witness_args],
            "value": jsonio.scalar_to_json(report.witness_value),
        }
    _emit(cfg, payload)
    return EXIT_OK


def _cmd_decompose(cfg: RunConfig) -> int:
    mu = _load_measure(cfg, cfg.measure_path)
    if cfg.n is None:
        raise SpecFormatError("decompose: --n is required")
    dec = decompose(mu, cfg.n, tol=cfg.effective_tol, probe_seed=cfg.seed)
    _emit(cfg, jsonio.decomposition_to_json(dec))
    return EXIT_OK


def _cmd_polarize(cfg: RunConfig) -> int:
    mu = _load_measure(cfg, cfg.measure_path)
    args = _load_args(cfg, mu)
    n = cfg.n if cfg.n is not None else len(args)
    value = polarize(mu, n, args)
    _emit(cfg, {"n": n, "value": jsonio.scalar_to_json(value)})
    return EXIT_OK


def _cmd_coderiv(cfg: RunConfig) -> int:
    fn = _load_measure(cfg, cfg.fn_path)
    args = _load_args(cfg, fn)
    k = cfg.k if cfg.k is not None else len(args)
    if k != len(args):
        raise SpecFormatError(
            f"coderiv: --k {k} does not match {len(args)} arguments")
    value = coderivative_at_identity(fn, k, args)
    _emit(cfg, {"k": k, "value": jsonio.scalar_to_json(value)})
    return EXIT_OK


def _cmd_primitivity(cfg: RunConfig) -> int:
    fn = _load_measure(cfg, cfg.fn_path)
    k_max = cfg.k_max if cfg.k_max is not None else 4
    report = classify_primitivity(
        fn, k_max, tol=cfg.effective_tol, seed=cfg.seed,
        sample_count=cfg.sample_count)
    payload = {
        "order": report.order,
        "exact": report.exact,
        "k_max": report.k_max,
        "vanished_orders": list(report.vanished_orders),
        "message": report.message,
        "witnesses": [
            {"args": [jsonio.element_to_json(a) for a in args],
             "value": jsonio.scalar_to_json(value)}
            for args, value in report.witnesses
        ],
    }
    _emit(cfg, payload)
    return EXIT_OK


def _cmd_slits(cfg: RunConfig) -> int:
    if cfg.scenario_path is None:
        raise SpecFormatError("slits: a scenario JSON file is required")
    scenario = jsonio.scenario_from_json(
        jsonio.load_json_file(cfg.scenario_path))
    tol = cfg.tol if cfg.tol is not None else 1e-9
    report = run_sum_rules(scenario, tol=tol)
    _emit(cfg, jsonio.sum_rule_report_to_json(report))
    if cfg.csv_path:
        _write_slits_csv(cfg.csv_path, report)
    return EXIT_OK


def _write_slits_csv(path: str, report) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "slits", "value"])
        for key, value in sorted(report.probabilities.items()):
            writer.writerow(["probability", " ".join(map(str, key)), value])
        for kind, mapping in (("pair", report.pairwise),
                              ("triple", report.triples),
                              ("quadruple", report.quadruples)):
            for key, value in sorted(mapping.items()):
                writer.writerow([kind, " ".join(map(str, key)), value])


def _cmd_selftest(cfg: RunConfig) -> int:
    ok, report = run_selftest(seed=cfg.seed)
    if cfg.out_path:
        with open(cfg.out_path, "wb") as fh:
            fh.write(jsonio.dump_json_bytes(report))
    return EXIT_OK if ok else EXIT_INVARIANT


_HANDLERS = {
    "ik": _cmd_ik,
    "order": _cmd_order,
    "decompose": _cmd_decompose,
    "polarize": _cmd_polarize,
    "coderiv": _cmd_coderiv,
    "primitivity": _cmd_primitivity,
    "slits": _cmd_slits,
    "selftest": _cmd_selftest,
}


def dispatch(cfg: RunConfig) -> int:
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        raise SpecFormatError(f"unknown command {cfg.command!r}")
    try:
        return handler(cfg)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvalidInputError, UnsampledPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumrules",
        description="Higher-order measures: interference sum rules, "
                    "polarization, coderivatives, and slit experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    zero_test = (
        "tolerance of the zero test: with doubles an interference or "
        f"coderivative value I counts as zero when |I| <= TOL + "
        f"{ZERO_FLOOR_FACTOR}*u*sum|terms| (u = 2^-53, the terms are the "
        "signed subset evaluations); default 1e-9 on the approx backend, "
        "exact zero on the exact backend")

    def common(p, *, out=True, tol_help=None):
        p.add_argument("--backend", choices=jsonio.BACKENDS, default="exact")
        p.add_argument("--tol", type=float, default=None, help=tol_help)
        p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", dest="out_path", default=None)

    p = sub.add_parser("ik", help="evaluate an interference functional")
    p.add_argument("--measure", dest="measure_path", required=True)
    p.add_argument("--args", dest="args_path", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--breakdown", action="store_true")
    common(p)

    p = sub.add_parser("order", help="probe the order of a measure")
    p.add_argument("--measure", dest="measure_path", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="largest order to probe (default 4)")
    common(p, tol_help=zero_test)

    p = sub.add_parser("decompose",
                       help="split a measure into homogeneous components")
    p.add_argument("--measure", dest="measure_path", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("polarize", help="evaluate the polarized form")
    p.add_argument("--measure", dest="measure_path", required=True)
    p.add_argument("--args", dest="args_path", required=True)
    p.add_argument("--n", type=int, default=None)
    common(p)

    p = sub.add_parser("coderiv",
                       help="coderivative at the identity of a function")
    p.add_argument("--fn", dest="fn_path", required=True)
    p.add_argument("--args", dest="args_path", required=True)
    p.add_argument("--k", type=int, default=None)
    common(p)

    p = sub.add_parser("primitivity", help="classify primitivity order")
    p.add_argument("--fn", dest="fn_path", required=True)
    p.add_argument("--kmax", dest="k_max", type=int, default=None)
    common(p, tol_help=zero_test)

    p = sub.add_parser("slits", help="run slit-scenario sum rules")
    p.add_argument("--scenario", dest="scenario_path", required=True)
    p.add_argument("--report", dest="out_path", default=None,
                   help="alias for --out")
    p.add_argument("--csv", dest="csv_path", default=None)
    common(p, out=False)
    p.add_argument("--out", dest="out_path", default=None)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    common(p)

    return parser


def config_from_argv(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    return RunConfig(**{k: v for k, v in vars(ns).items() if k in fields})


def main(argv=None) -> int:
    cfg = config_from_argv(argv)
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
