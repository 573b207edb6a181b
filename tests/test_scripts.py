"""The scripts under scripts/: the localization sweep run end to end at a tiny
size, and the model generator against the shipped model files."""

import importlib.resources
import importlib.util
import pathlib
import subprocess
import sys

import pytest

from qpjacobi.models import save_model

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_localization_script_writes_its_csv(tmp_path):
    args = ["--lambdas", "0,20", "--N", "48", "--margin", "8", "--oracle-steps", "200"]
    subprocess.run(
        [sys.executable, str(SCRIPTS / "run_localization_experiment.py"), *args,
         "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
        timeout=60,
    )
    lines = (tmp_path / "localization_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2
    assert all(line.count(",") == lines[0].count(",") for line in lines)


@pytest.mark.parametrize("name", ["maryland", "analytic2", "mero2"])
def test_generator_reproduces_the_bundled_model(tmp_path, name):
    path = SCRIPTS / "make_bundled_models.py"
    spec = importlib.util.spec_from_file_location("make_bundled_models", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    save_model(getattr(generator, name)(), tmp_path / f"{name}.json")
    shipped = importlib.resources.files("qpjacobi").joinpath("data", f"{name}.json")
    assert (tmp_path / f"{name}.json").read_bytes() == shipped.read_bytes()
