import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qpjacobi import cli, ergodic, models
from qpjacobi.cli import main
from qpjacobi.ergodic import deviation_measure
from qpjacobi.greens import (
    check_det_lower_bound,
    check_minor_bound,
    green_solve,
    midpoint_grid,
)
from qpjacobi.localization import green_decay_scan, lyapunov_rates
from qpjacobi.errors import ModelFormatError
from qpjacobi.models import (
    bundled,
    load_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    save_model,
)
from qpjacobi.operator import OperatorParams, assemble_hamiltonian, assemble_regularized
from qpjacobi.symbols import (
    DEFAULT_POLE_TOL,
    BlockModel,
    Dioph,
    MeroScalar,
    TrigPoly,
    check_nondegeneracy,
    symbol_tables,
)

from conftest import (
    F00_OVERFLOW,
    GOLDEN,
    atomic_maryland,
    overflowing_f00,
    random_model,
    scaled_f_diagonals,
)
from test_tables import models as random_models

SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["maryland", "analytic2", "mero2"])
    def test_bundled_round_trip_evaluations(self, name):
        model = bundled(name)
        clone = model_from_dict(model_to_dict(model))
        rng = np.random.default_rng(3)
        xs = rng.uniform(size=100)
        for grid_a, grid_b in ((model.W, clone.W), (model.R, clone.R), (model.F, clone.F)):
            for i in range(model.l):
                for j in range(model.l):
                    a, b = grid_a[i][j], grid_b[i][j]
                    if hasattr(a, "num"):
                        assert np.max(np.abs(a.num(xs) - b.num(xs))) <= 1e-15
                        assert np.max(np.abs(a.den(xs) - b.den(xs))) <= 1e-15
                    else:
                        assert np.max(np.abs(a(xs) - b(xs))) <= 1e-15

    @pytest.mark.parametrize("name, digest", [
        ("maryland", "690950e3c9c5a010"),
        ("analytic2", "92d1df6f4d39de29"),
        ("mero2", "344b5c897b2f8456"),
    ])
    def test_bundled_model_identity(self, name, digest):
        # every output header carries model_hash, so these pins keep the bundled
        # models, and with them every output of theirs, as they were shipped
        model = bundled(name)
        assert model == model_from_dict(model_to_dict(model))
        assert model_hash(model) == digest

    def test_random_model_round_trip(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, l=2)
        assert model_hash(model_from_dict(model_to_dict(model))) == model_hash(model)

    def test_file_round_trip(self, tmp_path, maryland):
        path = tmp_path / "m.json"
        save_model(maryland, path)
        assert model_hash(load_model(path)) == model_hash(maryland)

    def test_hashes_distinguish_models(self):
        assert len({model_hash(bundled(n)) for n in ("maryland", "analytic2", "mero2")}) == 3


def _flip_zero_parts(poly):
    """`poly` with the sign of every zero coefficient part flipped, an == poly.

    The parts are set directly: TrigPoly's symmetrization may round a zero
    part to either sign."""
    flip = lambda v: -v if v == 0.0 else v
    out = TrigPoly()
    out._ks, out._cs = poly._ks, tuple(complex(flip(c.real), flip(c.imag)) for c in poly._cs)
    return out


def _respelled(model):
    """`model` with its zero coefficient parts flipped and its integral dioph
    and pole_tol values given as ints."""
    def sym(s):
        if isinstance(s, MeroScalar):
            return MeroScalar(*map(_flip_zero_parts, s))
        return _flip_zero_parts(s)

    def spell(v):
        return int(v) if float(v).is_integer() else v

    W, R, F = ([[sym(s) for s in row] for row in grid] for grid in (model.W, model.R, model.F))
    return BlockModel(W, R, F, model.omega, Dioph(*map(spell, model.dioph)), spell(model.pole_tol))


class TestModelIdentity:
    """A model stores each parameter once, so == and model_hash agree and a
    model survives its written form."""

    def test_an_int_dioph_or_pole_tol_writes_its_float(self, maryland):
        assert model_hash(maryland._replace(dioph=Dioph(2, 0.1))) == "690950e3c9c5a010"
        assert model_hash(maryland._replace(pole_tol=1)) == model_hash(
            maryland._replace(pole_tol=1.0)
        )

    def test_a_zero_part_written_negative_loads_the_same_hash(self, mero2):
        cfg = model_to_dict(mero2)
        ent = next(e for e in cfg["entries"] if e["entry"] == "R[0][1]")
        assert all(re == 0.0 for _, re, _ in ent["num"])  # a sine: zero real parts
        ent["num"] = [[k, -0.0, im] for k, _, im in ent["num"]]
        model = model_from_dict(cfg)
        assert model == mero2 and model_hash(model) == "344b5c897b2f8456"

    def test_the_model_holds_the_only_pole_tolerance(self, maryland):
        assert MeroScalar._fields == ("num", "den")
        with pytest.raises(ValueError):
            maryland.F[0][0]._replace(pole_tol=1e-3)
        # a lone symbol and the tables of a model at the default agree
        y = 0.2500001
        assert maryland.pole_tol == DEFAULT_POLE_TOL
        assert symbol_tables(maryland, [y]).poles(maryland.pole_tol).tolist() == [False]
        assert math.isfinite(maryland.F[0][0](y))
        coarse = maryland._replace(pole_tol=1e-3)
        assert symbol_tables(coarse, [y]).poles(coarse.pole_tol).tolist() == [True]

    def test_a_symbol_is_its_num_and_den(self, maryland):
        f = maryland.F[0][0]
        rebuilt = maryland._replace(F=[[MeroScalar(f.num, f.den)]])
        assert rebuilt == maryland and rebuilt.F[0][0].zeros == (0.25, 0.75)
        assert model_from_dict(model_to_dict(rebuilt)) == rebuilt

    @pytest.mark.parametrize("name, l, poles", [
        ("maryland", 1, {"F[0][0]": (0.25, 0.75), "R[0][0]": ()}),
        ("analytic2", 2, {}),
        ("mero2", 2, {"F[0][0]": (0.25, 0.75), "R[0][0]": (0.38, 0.88),
                      "F[1][1]": (0.04, 0.54), "R[1][1]": ()}),
    ])
    def test_derived_size_and_poles(self, name, l, poles):
        model = bundled(name)
        assert BlockModel._fields == ("W", "R", "F", "omega", "dioph", "pole_tol")
        assert model.l == l
        for entry, want in poles.items():
            grid, i = getattr(model, entry[0]), int(entry[2])
            assert grid[i][i].zeros == pytest.approx(want, abs=1e-15)

    @given(random_models(), random_models(), st.sampled_from([1e-8, 1e-3, 1.0, 2.0]))
    def test_equal_models_hash_equal(self, a, b, pole_tol):
        a = a._replace(pole_tol=pole_tol)
        again = _respelled(a)
        assert again == a and model_hash(again) == model_hash(a)
        for m in (a, again, b):
            back = model_from_dict(model_to_dict(m))
            assert back == m and model_hash(back) == model_hash(m)
        for x, y in ((a, again), (a, b), (again, b)):
            assert (x == y) == (model_hash(x) == model_hash(y))


#: an off-diagonal hopping entry of a block model
HOP = {"entry": "W[0][1]", "num": [[0, 0.5, 0.0]]}


class TestValidation:
    def base(self):
        return {
            "l": 1,
            "omega": 0.5,
            "dioph": {"A": 2.0, "C0": 0.1},
            "entries": [
                {"entry": "W[0][0]", "num": [[0, 1.0, 0.0]]},
                {"entry": "F[0][0]", "num": [[0, 1.0, 0.0]]},
                {"entry": "R[0][0]", "num": []},
            ],
        }

    def test_valid_config_parses(self):
        model_from_dict(self.base())

    def test_missing_block_size(self):
        cfg = self.base()
        del cfg["l"]
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(cfg)
        assert err.value.field == "l"

    def test_bad_entry_name(self):
        cfg = self.base()
        cfg["entries"][0]["entry"] = "Q[0][0]"
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(cfg)
        assert "entries[0]" in str(err.value)

    def test_denominator_on_hopping_rejected(self):
        cfg = self.base()
        cfg["entries"][0]["den"] = [[0, 1.0, 0.0]]
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(cfg)
        assert err.value.field == "entries[0].den"

    def test_non_hermitian_table_rejected(self):
        cfg = self.base()
        cfg["entries"][1]["num"] = [[1, 1.0, 0.5]]
        with pytest.raises(ModelFormatError):
            model_from_dict(cfg)

    def test_duplicate_frequency_rejected(self):
        cfg = self.base()
        cfg["entries"][1]["num"] = [[0, 1.0, 0.0], [0, 2.0, 0.0]]
        with pytest.raises(ModelFormatError):
            model_from_dict(cfg)

    def test_zero_denominator_rejected(self):
        cfg = self.base()
        cfg["entries"][1]["den"] = []
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(cfg)
        assert "den" in err.value.field

    def test_index_out_of_range(self):
        cfg = self.base()
        cfg["entries"][0]["entry"] = "W[0][1]"
        with pytest.raises(ModelFormatError):
            model_from_dict(cfg)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pole_tol", math.nan),
            ("pole_tol", math.inf),
            ("pole_tol", "1e-8"),
            ("omega", math.nan),
            ("omega", -math.inf),
            ("dioph.A", math.nan),
            ("dioph.A", "2"),
            ("dioph.C0", math.inf),
            ("l", 1.7),
            ("l", True),
            ("r_sign", -1.5),
            ("r_sign", "-1"),
            ("entries[1].num[0][0]", True),
            ("entries[1].num[0][1]", math.nan),
            ("entries[1].num[0][2]", math.inf),
        ],
    )
    def test_non_finite_or_non_integral_scalar_rejected(self, field, value):
        cfg = self.base()
        *path, last = re.findall(r"\w+", field)
        node = cfg
        for key in path:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[int(last) if isinstance(node, list) else last] = value
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(cfg)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "edit, field, message",
        [
            (lambda c: {**c, "entries": [{"entry": "W[0][0]", "num": 5}]}, "entries[0].num",
             "must be a list"),
            (lambda c: {**c, "entries": [{"entry": "W[0][0]", "num": [[0, 1.0]]}]},
             "entries[0].num[0]", "expected [k, re, im]"),
            (lambda c: [c], "$", "JSON object"),
            (lambda c: {**c, "l": 0}, "l", ">= 1"),
            (lambda c: {**c, "pole_tol": 0.0}, "pole_tol", "positive"),
            (lambda c: {**c, "pole_tol": -1e-8}, "pole_tol", "positive"),
            (lambda c: {**c, "dioph": {"A": 1.0, "C0": 0.1}}, "dioph.A", "A must be > 1"),
            (lambda c: {**c, "dioph": {"A": 0.5, "C0": 0.1}}, "dioph.A", "A must be > 1"),
            (lambda c: {**c, "dioph": {"A": 2.0, "C0": 0.0}}, "dioph.C0", "C0 must be > 0"),
            (lambda c: {**c, "dioph": {"A": 2.0, "C0": -0.1}}, "dioph.C0", "C0 must be > 0"),
            (lambda c: {**c, "r_sign": 2}, "r_sign", "+1 or -1"),
            (lambda c: {**c, "r_sign": 0}, "r_sign", "+1 or -1"),
            (lambda c: {k: v for k, v in c.items() if k != "entries"}, "entries", "missing"),
            (lambda c: {**c, "entries": [*c["entries"], "F[0][0]"]}, "entries[3]",
             "'entry' key"),
            (lambda c: {**c, "entries": [*c["entries"], {"num": []}]}, "entries[3]",
             "'entry' key"),
            (lambda c: {**c, "entries": [*c["entries"], {"entry": "F[0][0]"}]},
             "entries[3].entry", "duplicate"),
            # an off-diagonal entry fills its mirror too: a second one is a
            # duplicate, whether its table agrees or not
            (lambda c: {**c, "l": 2, "entries": [*c["entries"], HOP, {**HOP, "entry": "W[1][0]"}]},
             "entries[4].entry", "duplicate"),
            (lambda c: {**c, "l": 2, "entries": [*c["entries"], HOP, {"entry": "W[1][0]"}]},
             "entries[4].entry", "duplicate"),
            (lambda c: "nope", "model", "unknown bundled model"),
        ],
    )
    def test_rejection_names_its_field(self, edit, field, message):
        cfg = edit(self.base())
        with pytest.raises(ModelFormatError) as err:
            bundled(cfg) if isinstance(cfg, str) else model_from_dict(cfg)
        assert err.value.field == field and message in str(err.value)


def _plus_twin(cfg, neg=lambda v: 0.0 - v):
    """The config of the same operator written with r_sign +1: every R numerator
    negated by `neg`, which by default writes a zero as 0.0, as a person would."""
    entries = [
        {**ent, "num": [[k, neg(re), neg(im)] for k, re, im in ent["num"]]}
        if ent["entry"].startswith("R") else ent
        for ent in cfg["entries"]
    ]
    return {**cfg, "r_sign": 1, "entries": entries}


class TestPositiveRSign:
    """A file with r_sign +1 describes the on-site block lam*F + R; it loads as
    the model of its twin, the same file with -R and r_sign -1."""

    @pytest.fixture(params=["scalar", "analytic2", "mero2"])
    def model(self, request, maryland):
        # maryland's R is zero, so its scalar stand-in gets a nonzero one
        if request.param == "scalar":
            return maryland._replace(R=[[MeroScalar.from_ratio(TrigPoly.cosine(amp=0.7, shift=0.2))]])
        return bundled(request.param)

    def test_a_plus_file_loads_as_its_twin(self, model):
        # zeros written as 0.0 or as -0.0 (mero2's R[0][1] has zero real parts)
        for neg in (lambda v: 0.0 - v, lambda v: -v):
            plus = model_from_dict(_plus_twin(model_to_dict(model), neg))
            assert plus == model and model_hash(plus) == model_hash(model)

    def test_a_plus_file_writes_the_bytes_of_its_twin(self, tmp_path, model):
        paths = {}
        for tag, cfg in (("twin", model_to_dict(model)), ("plus", _plus_twin(model_to_dict(model)))):
            paths[tag] = tmp_path / f"{tag}.json"
            paths[tag].write_text(json.dumps(cfg))
        det, minor = tmp_path / "det.json", tmp_path / "minor.json"
        det.write_text(json.dumps({"N": [2, 3], "lambda": [10], "E": [0.5], "nodes": 512}))
        minor.write_text(json.dumps({"N": [2], "lambda": [10], "E": [1], "x_count": 2}))
        window = ["--lambda", "3", "--x", "0.1", "--E", "0.7", "--window=-3:4"]
        argvs = [
            ["assemble", *window, "--matrix", "h"],
            ["assemble", *window, "--matrix", "htilde"],
            ["green", *window],
            ["scan", "--lambda", "20", "--E", "0.5", "--x0", "0.1", "--N0", "3", "--shifts=-8:8"],
            ["localize", "--lambda", "20", "--x0", "0.41", "--N", "24", "--margin", "4"],
            ["bounds", "--sweep", str(det), "--check", "det"],
            ["bounds", "--sweep", str(minor), "--check", "minor"],
        ]
        if model.l == 1:
            argvs.append(["lyapunov", "--lambda", "20", "--x", "0.1", "--E=0.5,3", "--steps", "300"])
        for argv in argvs:
            outs = []
            for tag, path in paths.items():
                out = tmp_path / f"{tag}.out"
                assert main([*argv, "--model", str(path), "--out", str(out)]) == 0, argv
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], argv

    def test_a_plus_file_assembles_lam_f_plus_r(self, tmp_path, model):
        cfg = _plus_twin(model_to_dict(model))
        path = tmp_path / "plus.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "h.csv"
        argv = ["--lambda", "3", "--x", "0.1", "--E", "0", "--window=-1:2", "--matrix", "h"]
        assert main(["assemble", "--model", str(path), *argv, "--out", str(out)]) == 0
        # the file's own R, read without the fold, added by the oracle
        as_written = model_from_dict({**cfg, "r_sign": -1})
        params = OperatorParams(lam=3.0, x=0.1, E=0.0, window=(-1, 2))
        want = oracles.assemble_hamiltonian(as_written, params, r_sign=1)
        l = model.l
        rows = [r.split(",") for r in out.read_text().splitlines() if not r.startswith("#")][1:]
        assert len(rows) == (3 * 4 - 2) * l * l
        for br, bc, i, j, val in rows:
            a, b = (int(br) - 1) * l + int(i) - 1, (int(bc) - 1) * l + int(j) - 1
            assert float(val) == pytest.approx(want[a, b], rel=1e-14, abs=1e-14)


class TestCli:
    def test_localize_smoke(self, tmp_path):
        out = tmp_path / "loc.json"
        rc = main([
            "localize", "--model", "maryland", "--lambda", "20", "--x0", "0.1",
            "--N", "48", "--margin", "8", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["model_hash"] == model_hash(bundled("maryland"))
        assert "seed" not in doc["meta"]
        assert len(doc["report"]["records"]) >= 1

    def test_determinism(self, tmp_path):
        # a ladder, a scan through a pole, a block det sweep, a localize report
        # and transfer rates
        det = tmp_path / "det.json"
        det.write_text(json.dumps({"N": [4, 8], "lambda": [10, 100], "E": [0.5, 3], "nodes": 512}))
        x0 = repr((0.25 - 5 * bundled("maryland").omega) % 1.0)
        for argv in [
            ["ldt", "--model", "maryland", "--lambda", "50", "--E", "1", "--N", "2",
             "--Qs", "10,32", "--grid", "1000"],
            ["scan", "--model", "maryland", "--lambda", "20", "--E", "0.5", "--x0", x0,
             "--N0", "4", "--shifts=-8:11"],
            ["bounds", "--model", "mero2", "--sweep", str(det), "--check", "det"],
            ["localize", "--model", "mero2", "--lambda", "20", "--x0", "0.41", "--N", "64",
             "--margin", "16"],
            ["lyapunov", "--model", "maryland", "--lambda", "20", "--x", "0.1",
             "--E", "0.5,-3,1e-3", "--steps", "500"],
        ]:
            outs = []
            for i in range(2):
                out = tmp_path / f"run{i}.out"
                assert main([*argv, "--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], argv[0]

    def test_assemble_matches_library(self, tmp_path):
        out = tmp_path / "h.csv"
        rc = main([
            "assemble", "--model", "maryland", "--lambda", "2", "--x", "0",
            "--E", "0", "--window", "1:3", "--matrix", "h", "--out", str(out),
        ])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        model = bundled("maryland")
        h = assemble_hamiltonian(model, OperatorParams(lam=2.0, x=0.0, E=0.0, window=(1, 3)))
        for br, bc, i, j, val in rows:
            assert (i, j) == ("1", "1")  # l = 1: the blocks are the entries
            assert float(val) == h[int(br) - 1, int(bc) - 1]

    @pytest.mark.parametrize("matrix", ["h", "htilde"])
    def test_assemble_rows_are_the_band_entries_in_order(self, tmp_path, matrix):
        out = tmp_path / "m.csv"
        rc = main([
            "assemble", "--model", "mero2", "--lambda", "3", "--x", "0.05",
            "--E", "0.4", "--window=-1:2", "--matrix", matrix, "--out", str(out),
        ])
        assert rc == 0
        assemble = assemble_hamiltonian if matrix == "h" else assemble_regularized
        mat = assemble(bundled("mero2"), OperatorParams(lam=3.0, x=0.05, E=0.4, window=(-1, 2)))
        # l = 2 and 4 sites: rows run over (block_row, block_col, i, j) in
        # lexicographic order, and over the band |block_row - block_col| <= 1 only
        keys = sorted(
            (a // 2 + 1, b // 2 + 1, a % 2 + 1, b % 2 + 1)
            for a in range(8)
            for b in range(8)
            if abs(a // 2 - b // 2) <= 1
        )
        want = [
            f"{br},{bc},{i},{j},{float(mat[2 * br + i - 3, 2 * bc + j - 3]):.17g}"
            for br, bc, i, j in keys
        ]
        table = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert table[0] == "block_row,block_col,i,j,value"
        assert table[1:] == want and len(want) == (3 * 4 - 2) * 2 * 2

    def test_green_smoke(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main([
            "green", "--model", "maryland", "--lambda", "3", "--x", "0.05",
            "--E", "0.4", "--window", "1:4", "--out", str(out),
        ])
        assert rc == 0
        assert "block_row,block_col,i,j,value" in out.read_text()

    def test_green_rows_index_every_entry(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main([
            "green", "--model", "mero2", "--lambda", "3", "--x", "0.05",
            "--E", "0.4", "--window=-1:2", "--out", str(out),
        ])
        assert rc == 0
        g = green_solve(bundled("mero2"), OperatorParams(lam=3.0, x=0.05, E=0.4, window=(-1, 2)))[0]
        want = [
            f"{a // 2 + 1},{b // 2 + 1},{a % 2 + 1},{b % 2 + 1},{float(g[a, b]):.17g}"
            for a in range(8)
            for b in range(8)
        ]
        table = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert table[1:] == want

    def test_green_header_carries_the_solve_residual(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main([
            "green", "--model", "mero2", "--lambda", "3", "--x", "0.05",
            "--E", "0.4", "--window=-1:2", "--out", str(out),
        ])
        assert rc == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("# residual=")]
        g, residual = green_solve(
            bundled("mero2"), OperatorParams(lam=3.0, x=0.05, E=0.4, window=(-1, 2))
        )
        assert header == [f"# residual={residual:.17g}"]
        assert float(header[0].split("=")[1]) == residual <= 1e-6

    def test_scan_smoke(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--model", "maryland", "--lambda", "20", "--E", "0.5",
            "--x0", "0.1", "--N0", "6", "--shifts=-4:4", "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert "shift,status,slack" in text
        assert "good" in text

    @pytest.mark.parametrize("model", ["maryland", "mero2"])
    def test_scan_at_the_band_centre(self, tmp_path, model):
        # E = 0 lies in the scan's domain lam + |E| > 0: the column header and a row per shift
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--model", model, "--lambda", "20", "--E", "0", "--x0", "0.1",
            "--N0", "2", "--shifts=-3:3", "--out", str(out),
        ])
        assert rc == 0
        assert len([l for l in out.read_text().splitlines() if not l.startswith("#")]) == 8

    def test_scan_header_counts_pole_and_near_singular_windows(self, tmp_path, maryland):
        x0 = (0.25 - 5.0 * maryland.omega) % 1.0
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--model", "maryland", "--lambda", "20", "--E", "0.5",
            "--x0", repr(x0), "--N0", "4", "--shifts=-8:11", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        counts = green_decay_scan(maryland, 20.0, 0.5, x0, 4, range(-8, 12)).counts
        assert meta["pole"] == str(counts["pole"]) == "9"
        assert meta["near_singular"] == str(counts["near_singular"])

    def test_scan_header_counts_the_eigensolved_windows(self, tmp_path, analytic2):
        # 43 of these 200 windows are resonant, and the norm bound leaves 46 open
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--model", "analytic2", "--lambda", "2", "--E", "0.3", "--x0", "0.2",
            "--N0", "8", "--shifts=-100:99", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        rep = green_decay_scan(analytic2, 2.0, 0.3, 0.2, 8, range(-100, 100))
        assert meta["eigensolved"] == str(rep.eigensolved) == "46"
        assert list(meta)[-3:] == ["pole", "near_singular", "eigensolved"]

    def test_bounds_minor_smoke(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"N": [2, 3], "lambda": [5.0], "E": [1.0], "x_count": 4}))
        out = tmp_path / "minor.csv"
        rc = main([
            "bounds", "--model", "maryland", "--sweep", str(sweep),
            "--check", "minor", "--out", str(out),
        ])
        assert rc == 0
        assert "N,lambda,E,x,quantity,slack,zero_minors" in out.read_text()

    def test_bounds_det_smoke(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"N": [2], "lambda": [50.0], "E": [0.5], "nodes": 512}))
        out = tmp_path / "det.csv"
        rc = main([
            "bounds", "--model", "maryland", "--sweep", str(sweep),
            "--check", "det", "--out", str(out),
        ])
        assert rc == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("# fitted")]
        assert header

    def test_bounds_det_rows_are_the_report_rows(self, tmp_path, monkeypatch):
        reports = []

        def keep(*args, **kwargs):
            reports.append(check_det_lower_bound(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "check_det_lower_bound", keep)
        rc, out = self._bounds(
            tmp_path, {"N": [1, 3], "lambda": [2.0, 50.0], "E": [0.0, 0.5], "nodes": 512}, "det"
        )
        assert rc == 0
        table = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert table[0] == "N,lambda,E,quantity,slack,excluded"
        rows = reports[0].sweep["rows"]
        assert [l.split(",") for l in table[1:]] == [[cli._fmt(v) for v in r] for r in rows]
        assert [int(l.split(",")[-1]) for l in table[1:]] == [r[5] for r in rows]

    def test_bounds_det_writes_one_key_per_lambda(self, tmp_path):
        # both couplings read 1e+06 in the `g` format: each still gets its own
        # key, spelled as its rows spell it, holding the largest slack of its rows
        rc, out = self._bounds(
            tmp_path, {"N": [1, 2], "lambda": [1000000, 1000001], "E": [0.5], "nodes": 512}, "det"
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        keys = dict(l[2:].rpartition("=")[::2] for l in lines if l.startswith("# lambda="))
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        want = {
            f"lambda={lam}": max(float(r[4]) for r in rows if r[1] == lam)
            for lam in ("1000000", "1000001")
        }
        assert {k: float(v) for k, v in keys.items()} == want

    def test_bounds_minor_zero_minors_column_sums_to_the_report(self, tmp_path, monkeypatch):
        # the hopping is off, so every off-diagonal block minor vanishes
        model = tmp_path / "atomic.json"
        save_model(atomic_maryland(bundled("maryland")), model)
        reports = []

        def keep(*args, **kwargs):
            reports.append(check_minor_bound(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "check_minor_bound", keep)
        sweep = tmp_path / "sweep.json"
        doc = {"N": [2, 4], "lambda": [10.0], "E": [1.0, -2.0], "x_count": 3}
        sweep.write_text(json.dumps(doc))
        out = tmp_path / "minor.csv"
        rc = main([
            "bounds", "--model", str(model), "--sweep", str(sweep),
            "--check", "minor", "--out", str(out),
        ])
        assert rc == 0
        table = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert table[0][-1] == "zero_minors"
        zeros = [int(row[-1]) for row in table[1:]]
        assert zeros == [row[6] for row in reports[0].sweep["rows"]]
        assert sum(zeros) == reports[0].sweep["zero_minors"] > 0

    def _lyapunov(self, tmp_path, model, x, energies, steps):
        """Run `lyapunov`; return its header keys and its rows, each split in two."""
        out = tmp_path / "lyapunov.csv"
        rc = main([
            "lyapunov", "--model", model, "--lambda", "5", f"--x={x!r}",
            "--E=" + ",".join(map(repr, energies)), "--steps", str(steps), "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
        table = [l for l in lines if not l.startswith("#")]
        assert table[0] == "E,gamma"
        return meta, [l.split(",") for l in table[1:]]

    @pytest.mark.parametrize("energies", [[-7.5, -0.25, 1.0, 6.0], [6.0, -0.25, 1e-3, -7.5, 1.0]])
    def test_lyapunov_rows_are_the_library_rates(self, tmp_path, maryland, energies):
        meta, rows = self._lyapunov(tmp_path, "maryland", 0.1, energies, 300)
        want = lyapunov_rates(maryland, 5.0, energies, 300, x=0.1)
        assert rows == [[f"{e:.17g}", f"{r:.17g}"] for e, r in zip(energies, want)]
        assert int(meta["used"]) + int(meta["skipped"]) == 300

    @pytest.mark.parametrize("hopping", [None, TrigPoly.cosine()])
    def test_lyapunov_skips_the_steps_of_the_seed_loop(self, tmp_path, maryland, hopping):
        # site 3 of this orbit sits on the pole of tan(2 pi x) at phase 1/4,
        # where a cosine hopping vanishes too: step 2, with w_3 ~ 0, goes as well
        model = maryland if hopping is None else maryland._replace(W=((hopping,),))
        save_model(model, tmp_path / "model.json")
        x = float(0.25 - 3 * GOLDEN)
        energies = [-7.5, -0.25, 1.0, 6.0]
        meta, rows = self._lyapunov(tmp_path, str(tmp_path / "model.json"), x, energies, 200)
        skipped = oracles.lyapunov_transfer(model, 5.0, 0.0, 200, x=x)[1]
        assert int(meta["skipped"]) == skipped == (1 if hopping is None else 2)
        assert int(meta["used"]) == 200 - skipped
        want = oracles.lyapunov_rates(model, 5.0, energies, 200, x=x)
        assert [g for _, g in rows] == [f"{r:.17g}" for r in want]

    def test_lyapunov_of_a_block_model_exits_one(self, capsys):
        rc = main([
            "lyapunov", "--model", "mero2", "--lambda", "5", "--x", "0.1", "--E", "1",
            "--steps", "100", "--out", "-",
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: transfer-matrix oracle requires block size 1\n"

    def _bounds(self, tmp_path, sweep, check="minor", model="maryland"):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        out = tmp_path / "bounds.csv"
        rc = main([
            "bounds", "--model", str(model), "--sweep", str(path),
            "--check", check, "--out", str(out),
        ])
        return rc, out

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"N": ["4"]}, "'N'"),
            ({"N": [4.5]}, "'N'"),
            ({"N": [0]}, "'N'"),
            ({"N": [True]}, "'N'"),
            ({"lambda": ["5"]}, "'lambda'"),
            ({"lambda": []}, "'lambda'"),
            ({"E": [None]}, "'E'"),
            ({"E": [float("nan")]}, "'E'"),
            ({"x_count": 2.5}, "'x_count'"),
            ({"x_count": -1}, "'x_count'"),
            ({"pairs": "3"}, "'pairs'"),
            ({"pairs": -2}, "'pairs'"),
            ({"nodes": 512.0}, "'nodes'"),
        ],
    )
    @pytest.mark.parametrize("check", ["minor", "det"])
    def test_bounds_malformed_sweep_exits_one(self, tmp_path, capsys, change, key, check):
        sweep = {"N": [2], "lambda": [5.0], "E": [1.0], "x_count": 2, **change}
        rc, out = self._bounds(tmp_path, sweep, check)
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep: ") and key in err

    @pytest.mark.parametrize("content", [None, "{not json", ""])
    @pytest.mark.parametrize("check", ["minor", "det"])
    def test_bounds_unreadable_sweep_file_exits_one(self, tmp_path, capsys, content, check):
        path = tmp_path / "sweep.json"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "bounds.csv"
        rc = main([
            "bounds", "--model", "maryland", "--sweep", str(path), "--check", check,
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and not out.exists() and captured.out == ""
        assert re.fullmatch(r"error: --sweep: cannot read sweep file: [^\n]+\n", captured.err)
        assert (str(path) in captured.err) == (content is None)

    def test_bounds_sweep_must_be_an_object(self, tmp_path, capsys):
        rc, out = self._bounds(tmp_path, [2, 5.0, 1.0])
        assert rc == 1 and "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [{"x_count": 0}, {"E": [1e-9, -1e-7]}])
    def test_bounds_minor_without_an_instance_exits_one(self, tmp_path, capsys, change):
        rc, out = self._bounds(tmp_path, {"N": [2], "lambda": [5.0], "E": [1.0], **change})
        assert rc == 1 and not out.exists()
        assert "no instance" in capsys.readouterr().err

    def test_seed_is_a_bounds_flag(self, tmp_path, capsys):
        localize = ["localize", "--model", "maryland", "--lambda", "20", "--x0", "0.1", "--N", "8"]
        assert main([*localize, "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"N": [2, 3], "lambda": [5.0], "E": [1.0], "pairs": 3}))
        for check, seed in (("minor", ["--seed", "3"]), ("det", [])):
            out = tmp_path / f"{check}.csv"
            argv = ["bounds", "--model", "maryland", "--sweep", str(sweep), "--check", check]
            assert main([*argv, *seed, "--out", str(out)]) == 0
            header = [l[2:].split("=") for l in out.read_text().splitlines() if l.startswith("# ")]
            keys = [key for key, *_ in header[:5]]
            assert keys == ["tool", "version", "command", "model_hash", "seed"]
            assert header[4][1] == ("3" if seed else "0")

    def test_a_full_minor_sweep_leaves_numpy_random_unimported(self):
        # a subprocess: the test session has imported numpy.random already
        path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
        code = (
            "import sys\n"
            "from qpjacobi import bundled\n"
            "from qpjacobi.greens import check_minor_bound\n"
            "model = bundled('maryland')\n"
            "check_minor_bound(model, [2, 3], [5.0], [1.0], x_count=2, pairs_per_instance={})\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": path}
        for pairs, imported in (("None", "False"), ("3", "True")):
            proc = subprocess.run(
                [sys.executable, "-c", code.format(pairs)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0 and proc.stdout.strip() == imported, proc.stderr

    def test_check_model_smoke(self, tmp_path):
        for name in ("maryland", "analytic2", "mero2"):
            out = tmp_path / f"{name}.json"
            rc = main(["check-model", "--model", name, "--out", str(out)])
            assert rc == 0
            doc = json.loads(out.read_text())
            assert doc["nondegeneracy"]["ok"]
            mahler = doc["nondegeneracy"]["mahler"]
            want = check_nondegeneracy(bundled(name), [-1.0, 0.0, 1.0]).mahler
            assert [(e["t"], e["m"]) for e in mahler] == list(want)
        # the poles of tan(2 pi x) are companion-matrix roots, exactly 1/4 and 3/4
        maryland = json.loads((tmp_path / "maryland.json").read_text())
        assert maryland["denominator_zeros"]["F[0][0]"] == [0.25, 0.75]
        assert maryland["nondegeneracy"]["mahler"][1] == {"t": 0.0, "m": -math.log(2.0)}

    def test_check_model_takes_no_phase_grid(self, capsys):
        assert main(["check-model", "--model", "mero2", "--x-count", "64", "--out", "-"]) == 1
        assert "--x-count" in capsys.readouterr().err

    def test_check_model_verdict_ignores_a_symbol_rescaling(self, tmp_path, mero2):
        # F's diagonal numerators and denominators times 1e-6 leave H as it is;
        # det[(F - t)M] falls below 1e-10 everywhere, but not identically
        path = tmp_path / "scaled.json"
        save_model(scaled_f_diagonals(mero2, 1e-6), path)
        docs = []
        for model in ("mero2", str(path)):
            assert main(["check-model", "--model", model, "--out", str(tmp_path / "out.json")]) == 0
            docs.append(json.loads((tmp_path / "out.json").read_text())["nondegeneracy"])
        assert docs[1]["ok"]
        for base, scaled in zip(docs[0]["mahler"], docs[1]["mahler"]):
            assert scaled["t"] == base["t"]
            assert abs(scaled["m"] - base["m"] - 2.0 * math.log(1e-6)) <= 1e-9

    def test_malformed_model_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"l": 1, "omega": 0.5}))
        rc = main(["check-model", "--model", str(bad), "--out", "-"])
        assert rc == 1
        assert "dioph" in capsys.readouterr().err

    def test_nan_pole_tol_exits_one(self, tmp_path, capsys):
        # a NaN pole_tol would switch the pole guard off: site 0 sits on the pole at 1/4
        cfg = model_to_dict(bundled("maryland"))
        cfg["pole_tol"] = math.nan
        path = tmp_path / "nan_tol.json"
        path.write_text(json.dumps(cfg))
        rc = main([
            "assemble", "--model", str(path), "--lambda", "2", "--x", "0.25", "--E", "0",
            "--window", "0:1", "--matrix", "h", "--out", "-",
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: pole_tol: expected a finite number\n"

    @pytest.mark.parametrize("command", [
        ["assemble", "--lambda", "2", "--x", "0.1", "--E", "0", "--window", "0:1", "--matrix", "h"],
        ["check-model"],
    ])
    def test_a_dioph_out_of_range_exits_one_naming_its_field(self, tmp_path, capsys, command):
        # the range is_diophantine takes, checked at load rather than by its
        # own unnamed error once a command has started
        cfg = {**model_to_dict(bundled("maryland")), "dioph": {"A": 1.0, "C0": 0.1}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        rc = main([command[0], "--model", str(path), *command[1:], "--out", "-"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: dioph.A: A must be > 1\n"

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["check-model", "--model", str(bad), "--out", "-"])
        assert rc == 1

    def test_missing_file_exits_one(self):
        assert main(["check-model", "--model", "/nonexistent/x.json", "--out", "-"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-model", "--model", "{dir}", "--out", "-"],
            ["assemble", "--model", "maryland", "--lambda", "2", "--x", "0.1", "--E", "0",
             "--window", "1:2", "--out", "{dir}"],
        ],
    )
    def test_directory_as_model_or_out_exits_one(self, tmp_path, capsys, argv):
        # every file-system error is a config error, reported without a traceback
        rc = main([a.format(dir=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert str(tmp_path) in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["assemble", "--lambda", "2", "--x", "0", "--E", "0", "--window", "1-3"],
             "--window: expected u:v"),
            (["green", "--lambda", "2", "--x", "0", "--E", "0", "--window", "1:2:3"],
             "--window: expected u:v"),
            (["scan", "--lambda", "20", "--E", "0.5", "--x0", "0.1", "--shifts=a:b"],
             "--shifts: expected a:b"),
            (["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", "10,x"],
             "--Qs: expected a comma-separated integer list"),
            (["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", ","],
             "--Qs: at least one Q value required"),
            (["check-model", "--t-grid", "a,b"],
             "--t-grid: expected a comma-separated number list"),
            (["check-model", "--t-grid=,,"], "--t-grid: at least one t value required"),
            # windows without a site and empty shift ranges
            (["scan", "--lambda", "20", "--E", "0.5", "--x0", "0.1", "--N0", "0", "--shifts=0:1"],
             "N0 must be >= 1"),
            (["scan", "--lambda", "20", "--E", "0.5", "--x0", "0.1", "--N0", "4", "--shifts=3:2"],
             "no shifts to scan"),
            (["ldt", "--lambda", "50", "--E", "1", "--N", "0", "--Qs", "10", "--grid", "1000"],
             "N must be >= 1"),
            # the t grid follows the finite-number rule of the other number flags
            (["check-model", "--t-grid", "nan,0"],
             "--t-grid: expected a comma-separated number list"),
            (["check-model", "--t-grid=-inf"], "--t-grid: expected a comma-separated number list"),
            # a negative number in exponent form is a value, not a flag
            (["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", "10", "--S", "-1e-2"],
             "require S >= 0 and sigma > 0"),
            (["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", "10", "--sigma", "-3E-1"],
             "require S >= 0 and sigma > 0"),
            (["lyapunov", "--lambda", "5", "--x", "0.1", "--E", "-nan,1", "--steps", "10"],
             "--E: expected a comma-separated number list"),
            (["lyapunov", "--lambda", "5", "--x", "0.1", "--E", ",", "--steps", "10"],
             "--E: at least one E value required"),
            (["lyapunov", "--lambda", "5", "--x", "0.1", "--E", "1", "--steps", "0"],
             "n_steps must be >= 1"),
            # no window to fit c11 on: at lam = 0 each 5-site window has an
            # energy within exp(-N0 / 2) of E = 2
            (["scan", "--lambda", "0", "--E", "2", "--x0", "0.1", "--N0", "2", "--shifts=0:3"],
             "every scanned window is resonant; cannot fit c11"),
            # the one energy outside the scan's domain lam + |E| > 0
            (["scan", "--lambda", "0", "--E", "0", "--x0", "0.1", "--N0", "2", "--shifts=-3:3"],
             "lam + |E| must be > 0"),
            # the one step sits on the pole of tan(2 pi x) at phase 1/4
            (["lyapunov", "--lambda", "5", "--x", "0.25", "--E", "0.5", "--steps", "1"],
             "no usable transfer steps (orbit entirely on poles)"),
        ],
    )
    def test_malformed_value_exits_one(self, capsys, argv, message):
        rc = main([*argv, "--model", "maryland", "--out", "-"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["assemble", "--lambda", "2", "--x", "nan", "--E", "0", "--window", "1:3"], "--x"),
            (["assemble", "--lambda", "2", "--x", "0.1", "--E", "inf", "--window", "1:3"], "--E"),
            (["green", "--lambda", "2", "--x", "0.1", "--E", "nan", "--window", "1:3"], "--E"),
            (["green", "--lambda", "2", "--x", "zero", "--E", "0", "--window", "1:3"], "--x"),
            (["ldt", "--lambda", "50", "--E", "nan", "--N", "2", "--Qs", "10"], "--E"),
            (["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", "10", "--S", "nan"], "--S"),
            (["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", "10", "--sigma", "nan"],
             "--sigma"),
            (["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", "10", "--omega", "nan"],
             "--omega"),
            (["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", "10", "--omega=-inf"],
             "--omega"),
            (["scan", "--lambda", "20", "--E", "nan", "--x0", "0.1", "--N0", "2"], "--E"),
            (["scan", "--lambda", "20", "--E", "0.5", "--x0", "nan", "--N0", "2"], "--x0"),
            (["localize", "--lambda", "20", "--x0", "nan", "--N", "8"], "--x0"),
            (["lyapunov", "--lambda", "5", "--x", "inf", "--E", "1", "--steps", "10"], "--x"),
            # a negative non-finite value is a value, not a flag
            (["assemble", "--lambda", "1", "--x", "-inf", "--E", "0.5", "--window", "1:2"], "--x"),
            (["assemble", "--lambda", "1", "--x", "-Infinity", "--E", "0.5", "--window", "1:2"],
             "--x"),
            (["green", "--lambda", "2", "--x", "0.1", "--E", "-nan", "--window", "1:3"], "--E"),
            (["scan", "--lambda", "20", "--E", "0.5", "--x0", "-INF", "--N0", "2"], "--x0"),
        ],
    )
    def test_non_finite_number_exits_one(self, capsys, argv, field):
        rc = main([*argv, "--model", "maryland", "--out", "-"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {field}: expected a finite number\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["ldt", "--lambda", "-5", "--E", "1", "--N", "2", "--Qs", "10", "--grid", "1000"],
            ["scan", "--lambda=-0.5", "--E", "0.2", "--x0", "0.1", "--N0", "2", "--shifts=0:1"],
            ["localize", "--lambda", "-5", "--x0", "0.1", "--N", "8"],
            ["assemble", "--lambda", "-1", "--x", "0.1", "--E", "0", "--window", "1:2"],
            ["ldt", "--lambda", "nan", "--E", "1", "--N", "2", "--Qs", "10", "--grid", "1000"],
            ["scan", "--lambda", "nan", "--E", "0.2", "--x0", "0.1", "--N0", "2", "--shifts=0:1"],
            ["assemble", "--lambda", "-1e-3", "--x", "0.1", "--E", "0", "--window", "1:2"],
        ],
    )
    def test_negative_or_nan_coupling_exits_one(self, capsys, argv):
        rc = main([*argv, "--model", "maryland", "--out", "-"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: coupling lam must be >= 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["assemble", "--lambda", "inf", "--x", "0.1", "--E", "0", "--window", "1:2"],
            ["ldt", "--lambda", "inf", "--E", "1", "--N", "2", "--Qs", "10", "--grid", "1000"],
            ["localize", "--lambda", "inf", "--x0", "0.1", "--N", "8"],
        ],
    )
    def test_infinite_coupling_exits_one(self, capsys, argv):
        rc = main([*argv, "--model", "maryland", "--out", "-"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: coupling lam must be finite\n"

    @pytest.mark.parametrize("check", ["minor", "det"])
    @pytest.mark.parametrize("lam", [-0.5, -5.0])
    def test_bounds_negative_coupling_exits_one(self, tmp_path, capsys, check, lam):
        rc, out = self._bounds(tmp_path, {"N": [2], "lambda": [5.0, lam], "E": [1.0]}, check)
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == "error: coupling lam must be >= 0\n"

    def test_bounds_det_zero_coupling_exits_one(self, tmp_path, capsys):
        rc, out = self._bounds(tmp_path, {"N": [2], "lambda": [0.0], "E": [1.0]}, "det")
        assert rc == 1 and not out.exists()
        assert "needs lambda > 0" in capsys.readouterr().err

    def test_ldt_floored_column_is_the_library_count(self, tmp_path):
        # omega = 2^-11 puts orbit sites of the 1024-node midpoint grid exactly
        # on the phase 0, where the one-site determinant vanishes at E = 0
        out = tmp_path / "ldt.csv"
        argv = ["--lambda", "1", "--E", "0", "--N", "1", "--grid", "1024"]
        rc = main([
            "ldt", "--model", "maryland", *argv, "--Qs", "1,4,2,9",
            "--omega", repr(2.0**-11), "--out", str(out),
        ])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "Q,threshold,bad_fraction,floored"
        model = bundled("maryland").with_omega(2.0**-11)
        want = [
            deviation_measure(model, 1.0, 0.0, 1, Q, 1.0, 0.3, midpoint_grid(1024)).floored
            for Q in (1, 4, 2, 9)
        ]
        assert [int(l.split(",")[3]) for l in lines[1:]] == want
        assert min(want) > 0

    def test_localize_zero_coupling_at_a_zero_energy(self, tmp_path):
        # one maryland site at lam = 0 is the 1 x 1 zero matrix: lam + |E| = 0
        out = tmp_path / "loc.json"
        rc = main([
            "localize", "--model", "maryland", "--lambda", "0", "--x0", "0.1",
            "--N", "0", "--margin", "0", "--out", str(out),
        ])
        assert rc == 0
        (record,) = json.loads(out.read_text())["report"]["records"]
        assert record["energy"] == 0.0 and record["target_rate"] == -math.inf
        assert record["status"] == "delta" and record["localized"] is True

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--N", "-1"], "N must be >= 0"),
            (["--N", "8", "--margin", "-1"], "margin must be >= 0"),
        ],
    )
    def test_localize_negative_half_width_or_margin_exits_one(self, capsys, flags, message):
        rc = main([
            "localize", "--model", "maryland", "--lambda", "20", "--x0", "0.1",
            *flags, "--out", "-",
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_ldt_header_carries_the_reference_integral(self, tmp_path):
        out = tmp_path / "ldt.csv"
        rc = main([
            "ldt", "--model", "maryland", "--lambda", "50", "--E", "1", "--N", "2",
            "--Qs", "10,32", "--grid", "1000", "--out", str(out),
        ])
        assert rc == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("# integral=")]
        model, grid = bundled("maryland"), midpoint_grid(1000)
        rep = deviation_measure(model, 50.0, 1.0, 2, 10, 1.0, 0.3, grid)
        assert header == [f"# integral={rep.integral:.17g}"]

    def test_a_first_product_overflow_exits_zero(self, tmp_path):
        # the l = 1 recurrence overflowed its first step from a coupling of
        # about 1e155 on, and every quadrature node was excluded
        ldt, det = tmp_path / "ldt.csv", tmp_path / "det.csv"
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"N": [2, 4], "lambda": [1e308], "E": [0.5], "nodes": 512}))
        with np.errstate(over="ignore"):
            assert main([
                "ldt", "--model", "maryland", "--lambda", "1e200", "--E", "1", "--N", "4",
                "--Qs", "10", "--grid", "1000", "--out", str(ldt),
            ]) == 0
            assert main([
                "bounds", "--model", "maryland", "--sweep", str(sweep), "--check", "det",
                "--out", str(det),
            ]) == 0
        (integral,) = [l for l in ldt.read_text().splitlines() if l.startswith("# integral=")]
        assert math.isfinite(float(integral.split("=")[1]))
        rows = [l.split(",") for l in det.read_text().splitlines() if not l.startswith("#")]
        assert [r[-1] for r in rows[1:]] == ["0", "0"]

    @pytest.mark.parametrize(
        "flags",
        [
            # every step of the l = 1 recurrence leaves 1e100 and is rescaled
            ["--lambda", "1e120", "--S", "0.05"],
            # the first product overflows and the rows start over
            ["--lambda", "1e200", "--S", "0.05"],
            # a run holds 16 terms and most runs repeat the run before, so a
            # resumed sum starts where the reuse is under way
            ["--lambda", "50", "--omega", "0.5"],
        ],
    )
    def test_ldt_rows_do_not_depend_on_the_q_order(self, tmp_path, flags):
        argv = ["ldt", "--model", "maryland", "--E", "1", "--N", "4", "--grid", "1000", *flags]
        out = tmp_path / "ldt.csv"
        tables = []
        # a cold ladder, the shuffled ladder resuming its sums, the shuffled ladder cold
        for qs, cold in (("10,32,100", True), ("100,10,32", False), ("100,10,32", True)):
            if cold:
                ergodic._orbit_sum = None
            assert main([*argv, "--Qs", qs, "--out", str(out)]) == 0
            tables.append(sorted(l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert len(tables[0]) == 4
        assert tables[1] == tables[0] and tables[2] == tables[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["assemble", "--lambda=1", "--x=-1e-3", "--E=0.5", "--window=1:2"],
            ["assemble", "--lambda=1", "--x=0.1", "--E=-1e-8", "--window=-2:1"],
            ["green", "--lambda=2", "--x=-2.5E-1", "--E=-1e-1", "--window=1:3"],
            ["ldt", "--lambda=50", "--E=-1e0", "--N=2", "--Qs=10", "--grid=1000",
             "--omega=-3.8e-1"],
            ["scan", "--lambda=20", "--E=0.5", "--x0=-1e-1", "--N0=2", "--shifts=-3:3"],
            ["localize", "--lambda=20", "--x0=-1e-1", "--N=8"],
            ["lyapunov", "--lambda=5", "--x=-1e-1", "--E=-5e-1,1", "--steps=100"],
        ],
    )
    def test_a_negative_value_may_follow_its_flag(self, capsys, argv):
        """`--flag -1e-3` writes what `--flag=-1e-3` writes."""
        split = [token for arg in argv for token in arg.split("=", 1)]
        assert main([*argv, "--model", "maryland", "--out", "-"]) == 0
        joined = capsys.readouterr()
        assert main([*split, "--model", "maryland", "--out", "-"]) == 0
        assert capsys.readouterr() == joined

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["localize", "--bogus"]) == 1

    def test_near_singular_energy_exits_two(self, tmp_path, capsys):
        model = bundled("maryland")
        h = assemble_hamiltonian(model, OperatorParams(lam=2.0, x=0.05, E=0.0, window=(1, 4)))
        e_bad = float(np.linalg.eigvalsh(h)[1])
        rc = main([
            "green", "--model", "maryland", "--lambda", "2", "--x", "0.05",
            "--E", repr(e_bad), "--window", "1:4", "--out", "-",
        ])
        assert rc == 2

    def test_scan_with_most_windows_on_the_pole_exits_two(self, tmp_path, capsys, maryland):
        # 9 of these 12 windows hold the pole at phase 1/4: the table is still written
        x0 = (0.25 - 5.0 * maryland.omega) % 1.0
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--model", "maryland", "--lambda", "20", "--E", "0.5",
            "--x0", repr(x0), "--N0", "4", "--shifts=1:12", "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: more than half of the scanned windows failed\n"
        lines = out.read_text().splitlines()
        assert "# pole=9" in lines
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 12

    def test_scan_with_an_overflowed_rate_exits_two(self, tmp_path, capsys):
        # lam + |E| = 2e308 overflows: no slack of log(lam + |E|) = inf is a verdict
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--model", "analytic2", "--lambda", "1e308", "--E", "1e308",
            "--x0", "0.1", "--N0", "2", "--shifts=-3:3", "--out", str(out),
        ])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err == "numerical failure: log(lam + |E|) is not finite at lam=1e+308, E=1e+308\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # the on-site values overflow H, and every |G| of the windows
            # underflows: no c11 can be fitted
            ["scan", "--E", "0.5", "--x0", "0.1", "--N0", "2", "--shifts=-2:2"],
            # eigh returns NaN energies, which localize refuses to fit
            ["localize", "--x0", "0.1", "--N", "8", "--margin", "0"],
        ],
    )
    def test_overflowed_eigensolve_exits_two(self, capsys, argv):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([*argv, "--model", "maryland", "--lambda", "1e308", "--out", "-"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("numerical failure: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--matrix", "h", "--lambda", "1e308", "--E", "0.5"],
            # E * E overflows, so the scale is 1 / |E|; the numerator overflows
            ["--matrix", "htilde", "--lambda", "1.7e308", "--E", "1e308"],
        ],
    )
    def test_an_overflowed_matrix_exits_two(self, capsys, argv):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                "assemble", "--model", "maryland", "--x", "0.1", "--window", "1:20", *argv,
                "--out", "-",
            ])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert re.fullmatch(r"numerical failure: non-finite .* at site \d+\n", captured.err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--E", "0.5", "--x0", "0.1", "--N0", "2", "--shifts=-2:2"],
            ["assemble", "--matrix", "h", "--x", "0.1", "--E", "0.5", "--window", "1:20"],
        ],
    )
    def test_a_numerical_failure_prints_one_stderr_line(self, tmp_path, argv):
        # a subprocess: pytest would record numpy's warnings instead of printing them
        path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "qpjacobi.cli", *argv, "--model", "maryland",
             "--lambda", "1e308", "--out", "-"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("numerical failure: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--lambda", "1e307", "--x", "0.1", "--E", "0.5", "--steps", "64"],
            ["--lambda", "1e306", "--x", "0.1", "--E=0.5,-3", "--steps", "10000"],
        ],
    )
    def test_an_overflowed_transfer_product_exits_two(self, tmp_path, argv):
        # lam * tan overflows near a pole and turns the product into NaN rows;
        # a subprocess, so that numpy's warnings would reach stderr
        path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "qpjacobi.cli", "lyapunov", "--model", "maryland", *argv,
             "--out", "rates.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "numerical failure: transfer product overflowed: the rate at E = 0.5 is not finite\n"
        )
        assert not (tmp_path / "rates.csv").exists()

    def test_an_overflowed_minor_sweep_exits_two(self, tmp_path, capsys):
        # log1p(lam / |E|) overflows; the minors do not vanish
        rc, out = self._bounds(tmp_path, {"N": [2], "lambda": [1e308], "E": [0.5], "x_count": 2})
        captured = capsys.readouterr()
        assert rc == 2 and not out.exists()
        assert re.fullmatch(r"numerical failure: [^\n]*not finite[^\n]*\n", captured.err)

    def _overflowing(self, tmp_path, name, amp=F00_OVERFLOW):
        """A model file of `name` with F[0][0] = amp * sin / cos, and that model."""
        model, path = overflowing_f00(bundled(name), amp), tmp_path / "overflowing.json"
        save_model(model, path)
        return model, path

    @pytest.mark.parametrize("name", ["maryland", "mero2"])
    def test_an_overflowed_entry_in_ldt_exits_two(self, tmp_path, capsys, name):
        # a NaN average never deviates, and a floored term always does, so
        # neither bad fraction means anything; the reference integral,
        # 4 * 2000 nodes, is the first to meet the overflow
        model, path = self._overflowing(tmp_path, name)
        x = oracles.first_overflowed_phase(model, 10.0, 1.0, (1, 4), midpoint_grid(8000))
        out = tmp_path / "ldt.csv"
        rc = main([
            "ldt", "--model", str(path), "--lambda", "10", "--E", "1", "--N", "4",
            "--Qs", "10,100,1000", "--grid", "2000", "--out", str(out),
        ])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "numerical failure: log|det| is NaN or +inf (an entry overflowed)"
            f" at the quadrature node x={x:.17g}\n"
        )

    @pytest.mark.parametrize(
        "name, amp, lam",
        [
            # 8 of the 1024 nodes overflow, within the exclusion limit
            ("maryland", F00_OVERFLOW, 10),
            ("mero2", F00_OVERFLOW, 10),
            # every node overflows: the failure names an overflow, not 1024 underflows
            ("maryland", 1e307, 30),
        ],
    )
    def test_an_overflowed_entry_in_the_det_sweep_exits_two(self, tmp_path, capsys, name, amp, lam):
        model, path = self._overflowing(tmp_path, name, amp)
        x = oracles.first_overflowed_phase(model, lam, 1.0, (1, 4), midpoint_grid(1024))
        sweep = {"N": [4], "lambda": [lam], "E": [1], "nodes": 1024}
        rc, out = self._bounds(tmp_path, sweep, check="det", model=path)
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "numerical failure: log|det| is NaN or +inf (an entry overflowed)"
            f" at the quadrature node x={x:.17g}\n"
        )

    @pytest.mark.parametrize("name", ["maryland", "mero2"])
    def test_an_overflowed_entry_in_the_minor_sweep_exits_two(self, tmp_path, capsys, name):
        # NaN and +inf rows would fit an infinite constant
        model, path = self._overflowing(tmp_path, name, 1e308)
        x = oracles.first_overflowed_phase(model, 10.0, 1.0, (1, 2), midpoint_grid(4))
        sweep = {"N": [2, 3], "lambda": [10], "E": [1], "x_count": 4}
        rc, out = self._bounds(tmp_path, sweep, model=path)
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "numerical failure: log|minor| is NaN or +inf (an entry overflowed)"
            f" at N=2, lam=10, E=1, x={x:.17g}\n"
        )

    @pytest.mark.parametrize("name", ["maryland", "mero2"])
    @pytest.mark.parametrize(
        "argv, x",
        [
            # not "Eigenvalues did not converge", from an eigensolve of the overflowed H
            (["scan", "--x0", "0.1", "--N0", "2", "--shifts=-3:3"], "0.62786404500042048"),
            # not "solve residual nan exceeds 1.0e-06": the energy is not near-singular
            (["green", "--x", "0.1", "--window=-3:3"], "0.24589803375031538"),
        ],
    )
    def test_an_overflowed_entry_of_a_green_window_exits_two(self, tmp_path, capsys, name, argv, x):
        _, path = self._overflowing(tmp_path, name, 1e308)
        out = tmp_path / "out.csv"
        rc = main([*argv, "--model", str(path), "--lambda", "10", "--E", "1", "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err == f"numerical failure: non-finite entry of Ht at phase x={x}\n"

    def test_diophantine_warning_not_fatal(self, tmp_path, capsys):
        rational = tmp_path / "rational.json"
        save_model(bundled("maryland").with_omega(0.5), rational)
        assemble = ["assemble", "--lambda", "1", "--x", "0.1", "--E", "0", "--window", "1:2"]
        ldt = ["ldt", "--lambda", "50", "--E", "1", "--N", "2", "--Qs", "10", "--grid", "1000"]
        # the warning checks the rotation that an --omega override puts in place
        for model, argv, warns in [
            (rational, assemble, True),
            ("maryland", [*ldt, "--omega", "0.5"], True),
            (rational, [*ldt, "--omega", repr(float(GOLDEN))], False),
        ]:
            rc = main([*argv, "--model", str(model), "--out", str(tmp_path / "out.csv")])
            assert rc == 0
            assert ("Diophantine" in capsys.readouterr().err) == warns, argv


class TestOneProcess:
    """One interpreter keeps the parser and the bundled models between `main`
    calls; nothing a call does may reach a later one."""

    def _argvs(self, tmp_path):
        minor = tmp_path / "minor.json"
        minor.write_text(json.dumps({"N": [2, 3], "lambda": [10], "E": [1.0], "x_count": 2}))
        det = tmp_path / "det.json"
        det.write_text(json.dumps({"N": [2], "lambda": [10], "E": [0.5], "nodes": 512}))
        maryland = ["--model", "maryland", "--lambda", "20"]
        return {
            "assemble": ["assemble", *maryland, "--x", "0.1", "--E", "0.5", "--window", "1:3"],
            "green": ["green", "--model", "mero2", "--lambda", "20", "--x", "0.1", "--E", "0.5",
                      "--window", "1:3"],
            "minor": ["bounds", "--model", "maryland", "--sweep", str(minor), "--check", "minor"],
            "det": ["bounds", "--model", "mero2", "--sweep", str(det), "--check", "det"],
            "ldt": ["ldt", "--model", "maryland", "--lambda", "50", "--E", "1", "--N", "2",
                    "--Qs", "10,32", "--grid", "1000"],
            "scan": ["scan", "--model", "mero2", "--lambda", "20", "--E", "0.5", "--x0", "0.1",
                     "--N0", "2", "--shifts=-3:3"],
            "localize": ["localize", *maryland, "--x0", "0.41", "--N", "32", "--margin", "8"],
            "lyapunov": ["lyapunov", *maryland, "--x", "0.1", "--E", "0.5,-3", "--steps", "200"],
            "check-model": ["check-model", "--model", "mero2", "--Kmax", "100"],
        }

    def _run(self, argv, out):
        assert main([*argv, "--out", str(out)]) == 0, argv
        return out.read_bytes()

    def test_repeated_calls_write_the_same_bytes(self, tmp_path):
        argvs = self._argvs(tmp_path)
        first = {name: self._run(argv, tmp_path / f"{name}.1") for name, argv in argvs.items()}
        # a usage error, a numerical failure, --version and a rotation override
        assert main(["localize", "--bogus"]) == 1
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([
                "assemble", "--model", "maryland", "--matrix", "h", "--lambda", "1e308",
                "--x", "0.1", "--E", "0.5", "--window", "1:20", "--out", "-",
            ]) == 2
        assert main(["--version"]) == 0
        control = self._run([*argvs["ldt"], "--omega", "0.5"], tmp_path / "control.csv")
        after = self._run(argvs["ldt"], tmp_path / "ldt.after")
        second = {name: self._run(argv, tmp_path / f"{name}.2") for name, argv in argvs.items()}
        assert second == first
        assert control != first["ldt"]
        # the ldt after the override equals one from a fresh interpreter
        path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
        fresh = tmp_path / "ldt.fresh"
        proc = subprocess.run(
            [sys.executable, "-m", "qpjacobi.cli", *argvs["ldt"], "--out", str(fresh)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert after == fresh.read_bytes() == first["ldt"]

    def test_one_parser_and_one_bundled_load_serve_every_call(self, tmp_path, monkeypatch):
        builds, loads = [], []
        build = models._BUILDERS["mero2"]
        monkeypatch.setitem(models._BUILDERS, "mero2", lambda: builds.append(1) or build())
        load = models.load_model
        monkeypatch.setattr(models, "load_model", lambda path: loads.append(path) or load(path))
        cli.build_parser.cache_clear()
        models._load_bundled.cache_clear()
        argv = ["assemble", "--model", "mero2", "--lambda", "3", "--x", "0.05", "--E", "0.4",
                "--window=-1:2"]
        outs = {self._run(argv, tmp_path / f"run{i}.csv") for i in range(3)}
        assert len(outs) == 1
        assert cli.build_parser.cache_info().misses == 1
        # one build, and no file read: a bundled model is defined in code
        assert builds == [1] and loads == []

    def test_a_model_file_is_read_on_every_call(self, tmp_path, maryland, monkeypatch):
        loads = []
        load = models.load_model
        monkeypatch.setattr(models, "load_model", lambda path: loads.append(path) or load(path))
        path = tmp_path / "model.json"
        argv = ["assemble", "--model", str(path), "--lambda", "1", "--x", "0.1", "--E", "0",
                "--window", "1:2"]
        hashes = []
        for model in (maryland, maryland.with_omega(GOLDEN / 2)):
            save_model(model, path)
            text = self._run(argv, tmp_path / "out.csv").decode()
            hashes.append(re.search(r"^# model_hash=(\w+)$", text, re.M).group(1))
            assert hashes[-1] == model_hash(model)
        assert hashes[0] != hashes[1]
        assert loads == [str(path)] * 2

    def test_an_unhashable_bundled_name_is_a_format_error(self):
        # an unknown name is a case of test_rejection_names_its_field
        with pytest.raises(ModelFormatError, match="unknown bundled model"):
            bundled(["x"])
