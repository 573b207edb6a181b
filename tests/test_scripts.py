"""The script under scripts/: the model generator against the shipped model files."""

import importlib.resources
import importlib.util
import pathlib

import pytest

from qpjacobi.models import save_model

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["maryland", "analytic2", "mero2"])
def test_generator_reproduces_the_bundled_model(tmp_path, name):
    path = SCRIPTS / "make_bundled_models.py"
    spec = importlib.util.spec_from_file_location("make_bundled_models", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    save_model(getattr(generator, name)(), tmp_path / f"{name}.json")
    shipped = importlib.resources.files("qpjacobi").joinpath("data", f"{name}.json")
    assert (tmp_path / f"{name}.json").read_bytes() == shipped.read_bytes()
