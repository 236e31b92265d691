import json
import math

import numpy as np
import pytest

from gptkit import minkowski, poincare
from gptkit import cli
from gptkit.cli import main
from gptkit.core import theory_from_dict, theory_from_json


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_zoo_list(capsys):
    code, out = run_cli(["zoo", "--list"], capsys)
    assert code == 0
    names = [row["name"] for row in json.loads(out)]
    assert "polygon:N" in names


def test_zoo_export_round_trip(tmp_path, capsys):
    out_file = tmp_path / "bit.json"
    code, _ = run_cli(["zoo", "--name", "bit", "--out", str(out_file)], capsys)
    assert code == 0
    theory = theory_from_json(out_file.read_text())
    assert theory.name == "bit"
    assert theory.states.vertices.tolist() == [[1.0, -1.0], [1.0, 1.0]]


def test_zoo_unknown_name(capsys):
    code, _ = run_cli(["zoo", "--name", "nonsense"], capsys)
    assert code == 2


def test_minkowski_checks_pass(capsys):
    code, out = run_cli(
        ["minkowski-checks", "--n", "4", "--samples", "50", "--seed", "3"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert all(row["pass"] for row in rows)
    assert any(row["check"] == "interval-invariance" for row in rows)


def test_little_group_checks_pass(capsys):
    code, out = run_cli(
        ["little-group-checks", "--samples", "40", "--seed", "1"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    checks = {row["check"] for row in rows}
    assert "little-group-fixes-rest-pair" in checks
    assert "little-group-composition-law" in checks


def test_invariance_checks_pass(capsys):
    code, out = run_cli(["invariance-checks", "--samples", "50"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert any(row["check"] == "detector-sphere-invariance" for row in rows)


def test_toy_spacetime_report(capsys):
    code, out = run_cli(["toy-spacetime", "--N", "5", "--k", "2"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert all(row["pass"] for row in rows)
    assert rows[0]["N"] == 5 and rows[0]["k"] == 2


def test_chsh_scan_csv(capsys):
    code, out = run_cli(["chsh-scan", "--locals", "polygon:4"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("scenario_id,")
    value = float(lines[1].split(",")[3])
    assert abs(value - 4.0) < 1e-6


def test_chsh_scan_scenario_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps([{"id": "bits", "local_a": "bit", "local_b": "bit"}]))
    code, out = run_cli(["chsh-scan", "--scenario", str(path), "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert abs(rows[0]["chsh_value"] - 2.0) < 1e-9


def test_reports_are_deterministic(capsys):
    args = ["minkowski-checks", "--samples", "20", "--seed", "7"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_exact_report_matches_float_report(capsys):
    # --exact solves the chsh-polygon:4 and chsh-bit rows' LPs exactly; they
    # hit 4 and 2 on both paths, so every byte of the report agrees
    args = ["report", "--seed", "3", "--samples", "40"]
    float_code, float_out = run_cli(args, capsys)
    exact_code, exact_out = run_cli(args + ["--exact"], capsys)
    assert float_code == exact_code == 0
    assert exact_out == float_out


def test_csv_format_for_checks(capsys):
    code, out = run_cli(
        ["minkowski-checks", "--samples", "10", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.startswith("check,samples,worst_deviation,tolerance,pass")


def test_invalid_config_rejected(capsys):
    assert main(["minkowski-checks", "--tol", "-1"]) == 2
    assert main(["minkowski-checks", "--n", "0"]) == 2
    for argv in (
        ["minkowski-checks", "--samples", "2", "--out", "/nonexistent/dir/x.json"],
        ["zoo", "--name", "bit", "--out", "/nonexistent/dir/x.json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    for argv in (
        ["minkowski-checks", "--samples", "0"],
        ["little-group-checks", "--samples", "-3"],
        ["invariance-checks", "--samples", "0"],
        ["report", "--samples", "0"],
        ["minkowski-checks", "--mass", "0"],
        ["little-group-checks", "--mass", "-1"],
        ["minkowski-checks", "--mass", "nan"],
        ["minkowski-checks", "--tol", "nan"],
        ["toy-spacetime", "--tol", "inf"],
        ["invariance-checks", "--seed", "-1"],
        ["toy-spacetime", "--N", "2"],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_zoo_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zoo", "--name", "bit", "--format", "csv"])
    assert exc.value.code == 2


def test_transform_log(tmp_path, capsys):
    log = tmp_path / "transforms.json"
    code, _ = run_cli(
        ["minkowski-checks", "--samples", "5", "--log-transforms", str(log)], capsys
    )
    assert code == 0
    doc = json.loads(log.read_text())
    assert len(doc) == 5
    assert set(doc[0]) == {"a", "Lambda"}
    assert len(doc[0]["Lambda"]) == 4  # row-major 1+n matrix


def test_failing_suite_exits_nonzero(capsys):
    # an absurdly tight tolerance forces failures and a nonzero exit status
    code, out = run_cli(
        ["minkowski-checks", "--samples", "50", "--tol", "1e-18"], capsys
    )
    assert code == 1
    rows = json.loads(out)
    assert any(not row["pass"] for row in rows)
    # every row's pass agrees with its own columns, the orbit and toy rows
    # included, and the exit status agrees with the rows
    for argv in (
        ["invariance-checks", "--samples", "20"],
        ["report", "--samples", "20"],
        ["toy-spacetime"],
    ):
        for tol in ([], ["--tol", "1e-16"]):
            code, out = run_cli(argv + tol, capsys)
            rows = json.loads(out)
            assert all(row["pass"] == (row["worst_deviation"] <= row["tolerance"]) for row in rows)
            assert code == (0 if all(row["pass"] for row in rows) else 1)
            assert code == (1 if tol else 0)
            _, csv_out = run_cli(argv + tol + ["--format", "csv"], capsys)
            assert csv_out.split("\n")[0] == "check,samples,worst_deviation,tolerance,pass"
            if tol and argv[0] == "invariance-checks":
                orbit = next(row for row in rows if row["check"] == "ball-orbit-reconstruction")
                assert orbit["worst_deviation"] > orbit["tolerance"] and not orbit["pass"]


def test_trivial_toy_wiring_fails_with_a_measured_deviation(monkeypatch, capsys):
    monkeypatch.setattr(poincare, "toy_translation_rep", lambda sides: poincare.trivial_rep(3))
    code, out = run_cli(["toy-spacetime"], capsys)
    assert code == 1
    rows = {row["check"]: row for row in json.loads(out)}
    assert rows["toy-spacetime-homomorphism"]["pass"]  # the law cannot see it
    nontrivial = rows["toy-spacetime-nontrivial"]
    assert 0.5 < nontrivial["worst_deviation"] < math.inf
    assert not nontrivial["pass"]


def test_nan_deviation_fails_its_row(monkeypatch, capsys):
    for command, module, kernel, nan_kernel, check in (
        (
            "minkowski-checks",
            minkowski,
            "interval",
            lambda x, y: float("nan"),
            "interval-invariance",
        ),
        (
            "little-group-checks",
            minkowski,
            "wigner_rotation",
            lambda lam, p: np.full(np.shape(lam), np.nan),
            "induced-rotation-in-so-n",
        ),
        (
            "invariance-checks",
            poincare,
            "classical_pairing",
            lambda effect, state, p_tol=0.0: float("nan"),
            "pairing-invariance",
        ),
    ):
        with monkeypatch.context() as patch, np.errstate(invalid="ignore"):
            patch.setattr(module, kernel, nan_kernel)
            code, out = run_cli([command, "--samples", "5"], capsys)
        assert code == 1
        row = next(row for row in json.loads(out) if row["check"] == check)
        assert math.isnan(row["worst_deviation"])
        assert not row["pass"]


def test_zoo_roundtrip_rows_measure_the_largest_entry_change(monkeypatch, capsys):
    code, out = run_cli(["report", "--samples", "5"], capsys)
    assert code == 0
    rows = [row for row in json.loads(out) if row["check"].startswith("zoo-roundtrip-")]
    assert len(rows) == 5 and all(row["worst_deviation"] == 0.0 for row in rows)

    def shifted(text):
        # the unit row of every reversible is (1, 0, ..., 0): shift a zero
        doc = json.loads(text)
        doc["reversibles"][0][0][1] += 1e-3
        return theory_from_dict(doc)

    monkeypatch.setattr(cli, "theory_from_json", shifted)
    code, out = run_cli(["report", "--samples", "5"], capsys)
    assert code == 1
    rows = [row for row in json.loads(out) if row["check"].startswith("zoo-roundtrip-")]
    assert len(rows) == 5
    assert all(row["worst_deviation"] == 1e-3 and not row["pass"] for row in rows)
