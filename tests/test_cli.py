"""End-to-end command-line runs over JSON fixtures."""

import json

import pytest

import sumrules.cli as cli
import sumrules.selftest as selftest
from sumrules import jsonio
from sumrules.histories import HistorySpace
from sumrules.measures import PolynomialMeasure
from sumrules.slits import SlitScenario

SPACE = HistorySpace.of_size(3)


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def cubic_fixture(tmp_path):
    lam = PolynomialMeasure.linear(SPACE, (1, 1, 2))
    measure = write(tmp_path / "measure.json",
                    jsonio.measure_to_json(lam ** 3))
    args = write(tmp_path / "args.json",
                 {"args": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]})
    return measure, args


def run(argv):
    return cli.main(argv)


def test_ik_reports_frozen_cubic_value(cubic_fixture, tmp_path, capsys):
    measure, args = cubic_fixture
    out = tmp_path / "report.json"
    code = run(["ik", "--measure", measure, "--args", args,
                "--k", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report == {"k": 3, "value": 12}

    code = run(["ik", "--measure", measure, "--args", args, "--breakdown"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 12
    assert len(report["terms"]) == 7
    assert sum(t["sign"] * jsonio.scalar_from_json(t["value"])
               for t in report["terms"]) == 12


def test_ik_argument_count_mismatch_is_a_parse_error(cubic_fixture):
    measure, args = cubic_fixture
    assert run(["ik", "--measure", measure, "--args", args, "--k", "2"]) == 2


def test_ik_cap_exceeded_exit_code(tmp_path):
    measure = write(tmp_path / "m.json", jsonio.measure_to_json(
        PolynomialMeasure.linear(SPACE, (1, 1, 1))))
    args = write(tmp_path / "a.json", {"args": [[1, 0, 0]] * 17})
    assert run(["ik", "--measure", measure, "--args", args]) == 3


def test_order_command(cubic_fixture, capsys):
    measure, _ = cubic_fixture
    assert run(["order", "--measure", measure, "--n", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 3
    assert report["exact"] is True
    assert report["witness"]["value"] != 0


def test_decompose_command(tmp_path, capsys):
    lam = PolynomialMeasure.linear(SPACE, (1, 2, 3))
    measure = write(tmp_path / "m.json",
                    jsonio.measure_to_json(lam + lam * lam))
    out = tmp_path / "dec.json"
    assert run(["decompose", "--measure", measure, "--n", "2",
                "--out", str(out)]) == 0
    dec = jsonio.decomposition_from_json(json.loads(out.read_text()))
    assert dec.order == 2
    assert dec.component(1).table.data == {(0,): 1, (1,): 2, (2,): 3}

    cubic = write(tmp_path / "m3.json", jsonio.measure_to_json(lam ** 3))
    assert run(["decompose", "--measure", cubic, "--n", "2"]) == 2


def test_polarize_command(cubic_fixture, capsys):
    measure, args = cubic_fixture
    assert run(["polarize", "--measure", measure, "--args", args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert jsonio.scalar_from_json(report["value"]) * 6 == 12


def test_coderiv_command(cubic_fixture, capsys):
    measure, args = cubic_fixture
    assert run(["coderiv", "--fn", measure, "--args", args,
                "--k", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"k": 3, "value": 12}


def test_primitivity_command(cubic_fixture, capsys):
    measure, _ = cubic_fixture
    assert run(["primitivity", "--fn", measure, "--kmax", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 3
    assert report["exact"] is True
    assert report["vanished_orders"] == [4, 5]


def test_slits_command_with_csv(tmp_path):
    scenario = SlitScenario((0.0, 0.2), ((1.0, -1.0), (1.0, 0.0), (1.0, 1.0)),
                            (2.0, -0.1), 18.0)
    path = write(tmp_path / "scen.json", jsonio.scenario_to_json(scenario))
    out = tmp_path / "report.json"
    csv_path = tmp_path / "tables.csv"
    assert run(["slits", "--scenario", path, "--tol", "1e-9",
                "--report", str(out), "--csv", str(csv_path)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["order3_vanishes"] is True
    assert report["verdicts"]["interference_present"] is True
    assert report["max_abs"]["triples"] < 1e-9
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "kind,slits,value"
    assert len(lines) == 1 + 8 + 3 + 1  # header, subsets, pairs, triple


def test_parse_failures_exit_2(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert run(["ik", "--measure", missing, "--args", missing]) == 2
    bad = write(tmp_path / "bad.json", {"variant": "nope", "m": 2})
    args = write(tmp_path / "args.json", {"args": [[1, 0]]})
    assert run(["ik", "--measure", bad, "--args", args]) == 2
    scenario = write(tmp_path / "scen.json", {"slits": []})
    assert run(["slits", "--scenario", scenario]) == 2


def test_exact_backend_rejects_float_content(tmp_path):
    measure = write(tmp_path / "m.json", {
        "variant": "quantum", "m": 2, "amplitudes": [[0.1, 0.0], [0.0, 0.3]]})
    args = write(tmp_path / "a.json", {"args": [[1, 0], [0, 1]]})
    assert run(["ik", "--measure", measure, "--args", args,
                "--backend", "exact"]) == 2
    assert run(["ik", "--measure", measure, "--args", args,
                "--backend", "approx"]) == 0


def test_reports_are_byte_identical_across_runs(cubic_fixture, tmp_path):
    measure, args = cubic_fixture
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["ik", "--measure", measure, "--args", args, "--breakdown"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_selftest_wiring_and_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(selftest, "CHECKS",
                        [("always-passes", lambda seed: (True, "ok"))])
    out = tmp_path / "selftest.json"
    assert run(["selftest", "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert report["checks"] == [
        {"id": "always-passes", "ok": True, "detail": "ok"}]
    assert "PASS" in capsys.readouterr().out

    monkeypatch.setattr(selftest, "CHECKS",
                        [("always-fails", lambda seed: (False, "boom"))])
    assert run(["selftest", "--seed", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_config_determinism_fields():
    cfg = cli.RunConfig(command="ik", backend="approx")
    assert cfg.effective_tol == 1e-9
    assert cli.RunConfig(command="ik").effective_tol is None
    assert cli.RunConfig(command="ik", tol=1e-6).effective_tol == 1e-6


def test_out_of_domain_options_exit_2(cubic_fixture, tmp_path):
    measure, args = cubic_fixture
    assert run(["order", "--measure", measure, "--n", "0"]) == 2
    assert run(["primitivity", "--fn", measure, "--kmax", "0"]) == 2
    assert run(["polarize", "--measure", measure, "--args", args,
                "--n", "2"]) == 2
    scenario = SlitScenario((0.0, 0.0), tuple((1.0, float(i))
                                              for i in range(7)),
                            (2.0, 0.0), 10.0)
    path = write(tmp_path / "scen7.json", jsonio.scenario_to_json(scenario))
    assert run(["slits", "--scenario", path]) == 2


def test_internal_value_error_is_not_reported_as_bad_input(
        cubic_fixture, monkeypatch, capsys):
    measure, args = cubic_fixture

    def broken(cfg):
        raise ValueError("internal fault")

    monkeypatch.setitem(cli._HANDLERS, "ik", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["ik", "--measure", measure, "--args", args])
    assert "error:" not in capsys.readouterr().err
