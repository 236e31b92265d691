import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gptkit import composites, minkowski, poincare
from gptkit import cli
from gptkit.cli import main
from gptkit.core import theory_from_dict, theory_from_json

from chsh_reference import full_scan_chsh


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def _modules_after_importing_the_cli() -> set[str]:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, gptkit, gptkit.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return set(out.stdout.split())


def test_importing_the_cli_leaves_sympy_unloaded():
    # sympy is a test extra: only the symbolic theories of the tests use it
    assert not any(m.split(".")[0] == "sympy" for m in _modules_after_importing_the_cli())


def test_importing_the_cli_runs_no_scipy_subpackage_init():
    # gptkit loads its one compiled scipy module, HiGHS, by path, not through
    # these packages, whose __init__ would load hundreds of modules
    loaded = _modules_after_importing_the_cli()
    assert "scipy.optimize._highspy._core" in loaded
    for package in ("scipy", "scipy.optimize", "scipy.spatial", "scipy.linalg", "scipy.sparse"):
        assert package not in loaded
    # what qhull needed: its extension, the LAPACK it cimports, numpy.ma
    for module in ("scipy.spatial._qhull", "scipy.linalg.cython_lapack", "numpy.ma"):
        assert module not in loaded


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


@pytest.mark.parametrize("mass", ["1e200", "1e6", "1e4", "1e-3", "1e-200"])
@pytest.mark.parametrize("suite", ["minkowski-checks", "little-group-checks", "invariance-checks"])
def test_geometry_suites_pass_at_any_mass(capsys, suite, mass):
    # each row is measured in units of the mass, so none scales with it
    code, out = run_cli([suite, "--samples", "200", "--mass", mass], capsys)
    assert code == 0
    assert all(row["pass"] for row in json.loads(out))


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


def test_chsh_scan_prints_float_and_exact_alike(capsys):
    # values are rounded to 9 decimals, below which the two paths differ
    # only by solver noise
    args = ["chsh-scan", "--locals", "polygon:6"]
    float_code, float_out = run_cli(args, capsys)
    exact_code, exact_out = run_cli(args + ["--exact"], capsys)
    assert float_code == exact_code == 0
    assert exact_out == float_out


def test_chsh_scan_rounds_the_separable_optimum(capsys):
    # polygon:3 is classical, so its optimum is 2; unrounded it read
    # 2.000000000000004 through HiGHS noise, above the separable bound
    code, out = run_cli(["chsh-scan", "--locals", "polygon:3"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "polygon:3xpolygon:3,polygon:3,polygon:3,2.0,separable"


def test_chsh_scan_scenario_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps([{"id": "bits", "local_a": "bit", "local_b": "bit"}]))
    code, out = run_cli(["chsh-scan", "--scenario", str(path), "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert abs(rows[0]["chsh_value"] - 2.0) < 1e-9


SQUARE = {"local_a": "polygon:4", "local_b": "polygon:4"}
BITS = {"local_a": "bit", "local_b": "bit"}


@pytest.mark.parametrize(
    "doc, code",
    [
        ([1], 2),  # a document that is not an object
        ("polygon:4", 2),
        ({"local_a": 5, "local_b": "bit"}, 2),
        ({"local_a": "bit"}, 2),
        ({**SQUARE, "measurements_a": [1]}, 2),  # an index where a pair belongs
        ({**SQUARE, "measurements_a": [[0, 9]]}, 2),  # past the extremal effects
        ({**SQUARE, "measurements_a": [[-4, -2]]}, 2),  # would wrap around
        ({**SQUARE, "measurements_a": [[0, 1.0]]}, 2),
        ({**SQUARE, "measurements_b": [[True, 2]]}, 2),
        ({**SQUARE, "measurements_a": []}, 2),
        ({**SQUARE, "measurements_a": [[0, 1]]}, 2),  # does not sum to the unit
        ({**SQUARE, "measurements_a": [[0, 2]], "measurements_b": [[0, 2]]}, 0),
        ({**SQUARE, "measurements_a": [[2, 0]], "measurements_b": [[1, 3]]}, 0),
        ({**BITS, "joint_vector": [1, 0, 0, {}]}, 2),  # a joint vector of numbers only
        ({**BITS, "joint_vector": {}}, 2),
        ({**BITS, "joint_vector": ["1", "0", "0", "0"]}, 2),
        ({**BITS, "joint_vector": [1, True, 0, 0]}, 2),
        ({**BITS, "joint_vector": [1, 0, 0, 10**400]}, 2),
        ({**BITS, "joint_vector": [1, 0.5, 0, 0]}, 0),
    ],
)
def test_chsh_scan_rejects_malformed_scenarios(tmp_path, capsys, doc, code):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["chsh-scan", "--scenario", str(path)]) == code
    captured = capsys.readouterr()
    assert ("error:" in captured.err) == (code == 2)


def test_reports_are_deterministic(capsys):
    # 300 samples span two stacks of cli.SAMPLE_CHUNK
    assert cli.SAMPLE_CHUNK < 300 <= 2 * cli.SAMPLE_CHUNK
    for command in ("report", "minkowski-checks", "little-group-checks", "invariance-checks"):
        args = [command, "--samples", "300", "--seed", "7"]
        first_code, first = run_cli(args, capsys)
        second_code, second = run_cli(args, capsys)
        assert first_code == second_code == 0
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
        ["minkowski-checks", "--samples", "5", "--log-transforms", "/nonexistent/dir/t.json"],
        ["zoo", "--name", "bit", "--out", "/nonexistent/dir/x.json"],
        # options that would be silently ignored
        ["chsh-scan", "--locals", "polygon:5", "--scenario", "tests/golden/scenarios.json"],
        ["zoo", "--name", "polygon:4", "--list"],
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


@pytest.mark.parametrize("nan_call", [1, 3])
def test_a_nan_in_one_stack_fails_its_row(monkeypatch, capsys, nan_call):
    # a NaN in the first stack is lost by a running max() seeded with 0.0,
    # and one in a later stack by max() over the stacks; each suite's first
    # kernel call falls in its first stack, the third in a later one
    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 7)  # 20 samples: stacks of 7, 7 and 6
    for command, module, kernel, check in (
        ("minkowski-checks", minkowski, "interval", "interval-invariance"),
        ("little-group-checks", minkowski, "wigner_rotation", "induced-rotation-in-so-n"),
        ("invariance-checks", poincare, "classical_pairing", "pairing-invariance"),
    ):
        original, calls = getattr(module, kernel), []

        def nan_once(*args, original=original, calls=calls, **kwargs):
            calls.append(None)
            out = original(*args, **kwargs)
            return out * np.nan if len(calls) == nan_call else out

        with monkeypatch.context() as patch, np.errstate(invalid="ignore"):
            patch.setattr(module, kernel, nan_once)
            code, out = run_cli([command, "--samples", "20"], capsys)
        assert len(calls) >= nan_call
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


@pytest.mark.parametrize(
    "args",
    [
        ["chsh-scan", "--locals", "polygon:4", "--exact"],
        ["chsh-scan", "--locals", "polygon:6", "--format", "json"],
    ],
    ids=["polygon:4-exact", "polygon:6-json"],
)
def test_chsh_scan_prints_the_full_scan_bytes(monkeypatch, capsys, args):
    code, out = run_cli(args, capsys)
    monkeypatch.setattr(
        composites, "maximize_chsh", lambda *a, **kw: full_scan_chsh(*a, **kw)[0]
    )
    assert run_cli(args, capsys) == (code, out)
    assert code == 0
