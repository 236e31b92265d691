"""`chsh-scan` CSV output, byte for byte, against committed files.

Each file under tests/golden/ is the output of one `gptkit chsh-scan` run:
`<locals>.csv` for `--locals <locals>` (":" written "-"), `<locals>-exact.csv`
with `--exact`, `scenarios.csv` for `--scenario scenarios.json`, and
`joint-vectors.csv` and `joint-vectors-exact.csv` for `--scenario
joint-vectors.json` without and with `--exact`.  A change that moves a
printed value or verdict shows up as a diff of these files.  The exact scans
of `polygon:5` and `polygon:8` were written when each polygon's class LPs
came from its rotations alone; they now solve one LP per class of the full
dihedral group.  `ball-2.csv` is the float scan of `ball:2`, an outer
relaxation through its K extremal effects; with `--exact` a ball side stays
on the float path and prints the same file.

`joint-vectors.json` holds the 24 vertices of box world's maximal tensor
product, product mixtures, PR-box mixtures and points outside, one document
named `boxworld`, interleaved with a `polygon:5` product mixture, a `ball:3`
Werner state and a `bit` x `polygon:3` mixture, the only document of its
pair.  A scan decides the vectors of one pair of locals as one stack of hull
LPs; the files were written by one-at-a-time solves.
"""

from pathlib import Path

import pytest

from gptkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

SCANS = [
    *[(name, exact)
      for name in ("bit", "simplex:2", "polygon:3", "polygon:4", "polygon:5", "polygon:6",
                   "polygon:8")
      for exact in (False, True)],
    ("ball:2", False),
]


def _scan(args, capsys) -> str:
    assert main(["chsh-scan", *args]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "name, exact", SCANS, ids=[name + ("-exact" if exact else "") for name, exact in SCANS]
)
def test_chsh_scan_matches_the_golden_file(name, exact, capsys):
    out = _scan(["--locals", name] + (["--exact"] if exact else []), capsys)
    stem = name.replace(":", "-") + ("-exact" if exact else "")
    assert out == (GOLDEN / f"{stem}.csv").read_text()


def test_scenario_scan_matches_the_golden_file(capsys):
    out = _scan(["--scenario", str(GOLDEN / "scenarios.json")], capsys)
    assert out == (GOLDEN / "scenarios.csv").read_text()


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_joint_vector_scan_matches_the_golden_file(exact, capsys):
    out = _scan(["--scenario", str(GOLDEN / "joint-vectors.json")] + (["--exact"] if exact else []),
                capsys)
    assert out == (GOLDEN / f"joint-vectors{'-exact' if exact else ''}.csv").read_text()


def test_exact_ball_scan_prints_the_float_file(capsys):
    out = _scan(["--locals", "ball:2", "--exact"], capsys)
    assert out == (GOLDEN / "ball-2.csv").read_text()
