"""The experiment scripts under scripts/, run end to end at tiny sizes."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, expected",
    [
        (
            "run_bound_sweeps.py",
            ["--Ns", "2,3", "--lambdas", "10", "--x-count", "2", "--nodes", "512"],
            # one minor row per N, one det row per lambda and its double
            {"bound_constants.csv": 2 + 2},
        ),
        (
            "run_ldt_experiment.py",
            ["--N", "2", "--Qs", "2,5,9", "--grid", "1000"],
            {"ldt_model.csv": 3, "ldt_control.csv": 3},
        ),
        (
            "run_localization_experiment.py",
            ["--lambdas", "0,20", "--N", "48", "--margin", "8", "--oracle-steps", "200"],
            {"localization_sweep.csv": 2},
        ),
    ],
)
def test_script_writes_its_csvs(tmp_path, script, args, expected):
    subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
        timeout=60,
    )
    for name, n_rows in expected.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 1 + n_rows, name
        assert all(line.count(",") == lines[0].count(",") for line in lines)
