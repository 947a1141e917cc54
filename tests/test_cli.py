"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from camline import SyntheticScene
from camline.cli import main

DEFAULT_CONFIG = {
    "intrinsics": {"fx": 1000.0, "fy": 1000.0, "cx": 640.0, "cy": 360.0, "skew": 0.0},
    "distortion": {"k1": 0.0, "k2": 0.0, "p1": 0.0, "p2": 0.0, "k3": 0.0},
    "scene": {"c0": 2.0, "z0": 3.0},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "camera.json"
    path.write_text(json.dumps(DEFAULT_CONFIG))
    return str(path)


def make_config(tmp_path, **overrides):
    doc = json.loads(json.dumps(DEFAULT_CONFIG))
    for section, values in overrides.items():
        doc[section].update(values)
    path = tmp_path / "camera_override.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestEstimate:
    def test_simulate_then_estimate_closed_loop(self, tmp_path, config_path, capsys):
        line_csv = str(tmp_path / "line.csv")
        rc = main(
            ["simulate", config_path, line_csv, "--roll", "3.5", "--pitch", "30.0",
             "--noise", "0", "--seed", "7"]
        )
        assert rc == 0
        capsys.readouterr()

        result_json = str(tmp_path / "result.json")
        rc = main(["estimate", config_path, line_csv, "-o", result_json])
        assert rc == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["roll_deg"] == pytest.approx(3.5, abs=1e-6)
        assert result["pitch_deg"] == pytest.approx(30.0, abs=1e-6)
        assert result["roll_rad"] == pytest.approx(math.radians(3.5), abs=1e-8)
        assert result["pitch_rad"] == pytest.approx(math.radians(30.0), abs=1e-8)
        assert result["residual_z_spread_m"] < 1e-9
        assert abs(result["residual_z_bias_m"]) < 1e-9
        assert result["warnings"] == []

    def test_estimate_writes_to_stdout_by_default(self, tmp_path, config_path, capsys):
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n540.0,500.0\n640.0,500.0\n740.0,500.0\n")
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {
            "roll_deg", "pitch_deg", "roll_rad", "pitch_rad",
            "residual_z_spread_m", "residual_z_bias_m", "warnings",
        }
        assert result["roll_deg"] == 0.0

    def test_single_row_line_file_exits_1(self, tmp_path, config_path, capsys):
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n100.0,200.0\n")
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 1
        assert "2" in capsys.readouterr().err

    def test_bad_header_exits_1(self, tmp_path, config_path, capsys):
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("x,y\n1,2\n3,4\n")
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 1
        assert "u,v" in capsys.readouterr().err

    def test_nan_row_exits_1(self, tmp_path, config_path, capsys):
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n100.0,500.0\nnan,510.0\n300.0,520.0\n")
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 1
        assert capsys.readouterr().err == "error: u must be finite, got nan\n"

    @pytest.mark.parametrize("row, n_cells", [("100,500,7", 3), ("100", 1)])
    def test_row_with_wrong_cell_count_is_named(self, tmp_path, config_path, capsys, row, n_cells):
        line_csv = tmp_path / "line.csv"
        line_csv.write_text(f"u,v\n200,510\n\n{row}\n300,520\n")
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: line file row 4 has {n_cells} cells; expected 2 (u,v)\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read line file {path}: [Errno 2] No such file or directory: '{path}'"),
            ("\n\n", "line file {path} is empty; expected a 'u,v' header"),
            ("u,v\n100,500\n200,abc\n",
             "line file contains a non-numeric row: could not convert string to float: 'abc'"),
        ],
        ids=["missing", "empty", "non_numeric"],
    )
    def test_unusable_line_file_exits_1(self, tmp_path, config_path, capsys, text, message):
        line_csv = tmp_path / "line.csv"
        if text is not None:
            line_csv.write_text(text)
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message.format(path=line_csv)}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "config document must be a JSON object"),
            (dict(DEFAULT_CONFIG, scene=[2.0, 3.0]), "config section 'scene' must be an object"),
        ],
        ids=["document", "section"],
    )
    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys, doc, message):
        config = tmp_path / "camera.json"
        config.write_text(json.dumps(doc))
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n100.0,200.0\n300.0,200.0\n")
        rc = main(["estimate", str(config), str(line_csv)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("undecodable", ["config", "line"])
    def test_undecodable_file_exits_1(self, tmp_path, config_path, capsys, undecodable):
        # A file opening with bytes ff fe 00 is not UTF-8 text.
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n100.0,200.0\n300.0,200.0\n")
        path = {"config": tmp_path / "camera.json", "line": line_csv}[undecodable]
        path.write_bytes(b"\xff\xfe\x00" + path.read_bytes())
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {undecodable} file {path}: ")
        assert "Traceback" not in err

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        bad = make_config(tmp_path, intrinsics={"fy": 0.0})
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n100.0,200.0\n300.0,200.0\n")
        rc = main(["estimate", bad, str(line_csv)])
        assert rc == 1
        assert "fy" in capsys.readouterr().err

    def test_oversized_config_integer_exits_1(self, tmp_path, capsys):
        config = make_config(tmp_path, intrinsics={"fx": 10**400})
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n100.0,200.0\n300.0,200.0\n")
        rc = main(["estimate", config, str(line_csv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "intrinsics.fx" in err

    def test_far_pixel_exits_2_without_a_warning(self, tmp_path, config_path, capsys):
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n0,400\n1e200,400.2\n1,401\n")
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: NonConvergent: ")

    def test_degenerate_line_exits_2(self, tmp_path, config_path, capsys):
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n640.0,400.0\n640.2,400.1\n")
        rc = main(["estimate", config_path, str(line_csv)])
        assert rc == 2
        assert "DegenerateLine" in capsys.readouterr().err

    def test_unwritable_output_exits_1(self, tmp_path, config_path, capsys):
        line_csv = tmp_path / "line.csv"
        line_csv.write_text("u,v\n540.0,500.0\n640.0,500.0\n740.0,500.0\n")
        result = tmp_path / "missing_dir" / "r.json"
        rc = main(["estimate", config_path, str(line_csv), "-o", str(result)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {result}: ")


class TestSimulate:
    def test_zero_roll_gives_constant_v(self, tmp_path, config_path, capsys):
        out = tmp_path / "line.csv"
        rc = main(["simulate", config_path, str(out), "--roll", "0", "--pitch", "35"])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "u,v"
        vs = [float(r.split(",")[1]) for r in rows[1:]]
        assert max(vs) - min(vs) < 1e-9

    def test_reruns_are_byte_identical(self, tmp_path, config_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["--roll", "2", "--pitch", "33", "--noise", "0.5", "--seed", "11"]
        assert main(["simulate", config_path, str(out_a), *args]) == 0
        assert main(["simulate", config_path, str(out_b), *args]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()

    def test_sidecar_records_ground_truth(self, tmp_path, config_path, capsys):
        out = tmp_path / "line.csv"
        rc = main(["simulate", config_path, str(out), "--roll", "1.5", "--pitch", "40",
                   "--seed", "3", "--points", "51"])
        assert rc == 0
        truth = json.loads((tmp_path / "line.truth.json").read_text())
        assert truth["roll_deg"] == 1.5
        assert truth["pitch_deg"] == 40.0
        assert truth["seed"] == 3
        assert truth["n_points"] == 51
        assert truth["c0"] == 2.0 and truth["z0"] == 3.0

    def test_scene_options_default_to_the_scene_fields(self, tmp_path, config_path, capsys):
        out = tmp_path / "line.csv"
        assert main(["simulate", config_path, str(out), "--pitch", "35"]) == 0
        truth = json.loads((tmp_path / "line.truth.json").read_text())
        defaults = {f.name: f.default for f in dataclasses.fields(SyntheticScene)}
        for key in ("n_points", "line_x_extent", "image_width", "image_height", "noise_sigma"):
            assert truth[key] == defaults[key], key
        assert truth["seed"] == defaults["rng_seed"]
        assert (truth["image_width"], truth["image_height"]) == (1280, 720)

    def test_level_pitch_exits_2(self, tmp_path, config_path, capsys):
        rc = main(["simulate", config_path, str(tmp_path / "line.csv"), "--pitch", "0"])
        assert rc == 2
        assert "TooFewVisible" in capsys.readouterr().err

    def test_bad_points_count_exits_1(self, tmp_path, config_path, capsys):
        rc = main(["simulate", config_path, str(tmp_path / "line.csv"),
                   "--pitch", "35", "--points", "1"])
        assert rc == 1

    @pytest.mark.parametrize("output", ["some_dir", "missing_dir/o.csv"])
    def test_unwritable_output_exits_1(self, tmp_path, config_path, capsys, output):
        (tmp_path / "some_dir").mkdir()
        out = tmp_path / output
        rc = main(["simulate", config_path, str(out), "--pitch", "35"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_negative_seed_exits_1(self, tmp_path, config_path, capsys):
        rc = main(["simulate", config_path, str(tmp_path / "line.csv"),
                   "--pitch", "35", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: rng_seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("option, value", [("--width", "0"), ("--height", "-1")])
    def test_bad_image_size_exits_1(self, tmp_path, config_path, capsys, option, value):
        rc = main(["simulate", config_path, str(tmp_path / "line.csv"),
                   "--pitch", "30", option, value])
        assert rc == 1
        assert f"image_{option[2:]}" in capsys.readouterr().err


class TestProject:
    def test_on_axis_point(self, config_path, capsys):
        rc = main(["project", config_path, "0", "0", "1"])
        assert rc == 0
        u, v = map(float, capsys.readouterr().out.strip().split(","))
        assert (u, v) == (640.0, 360.0)

    def test_behind_camera_exits_2(self, config_path, capsys):
        rc = main(["project", config_path, "0", "0", "-1"])
        assert rc == 2
        assert "BehindCamera" in capsys.readouterr().err

    def test_zero_depth_exits_2(self, config_path, capsys):
        rc = main(["project", config_path, "1", "1", "0"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: BehindCamera: point has non-positive camera depth 0 m\n"
        )

    def test_nan_coordinate_exits_1(self, config_path, capsys):
        rc = main(["project", config_path, "0", "2", "nan"])
        assert rc == 1
        assert capsys.readouterr().err == "error: z must be finite, got nan\n"

    def test_overflowing_projection_exits_1_without_a_warning(self, tmp_path, capsys):
        # The pixel overflows to -inf; pytest turns any numpy warning into an error.
        config = make_config(tmp_path, distortion={"k1": -1e-8})
        rc = main(["project", config, "1e308", "0", "1e-300"])
        assert rc == 1
        assert capsys.readouterr().err == "error: u must be finite, got -inf\n"

    def test_aimed_camera_projects_line_anchor_to_centre(self, tmp_path, capsys):
        pitch_deg = math.degrees(math.atan2(2.0, 3.0))
        config = make_config(tmp_path)
        rc = main(["project", config, "0", "2", "3", "--pitch", str(pitch_deg)])
        assert rc == 0
        u, v = map(float, capsys.readouterr().out.strip().split(","))
        assert u == pytest.approx(640.0, abs=1e-9)
        assert v == pytest.approx(360.0, abs=1e-9)

    def test_output_back_projects_to_the_input_point(self, tmp_path, capsys):
        from camline import DistortionCoefficients, Intrinsics, rotation_xz
        from camline.core_geometry import _normalize_uv, _undistort_uv
        from conftest import plane_points

        config = make_config(tmp_path, distortion={"k1": -1e-8})
        roll_deg, pitch_deg = 2.0, 33.0
        rc = main(["project", config, "0.8", "2.0", "3.5",
                   "--roll", str(roll_deg), "--pitch", str(pitch_deg)])
        assert rc == 0
        u, v = map(float, capsys.readouterr().out.strip().split(","))
        rot = rotation_xz(math.radians(pitch_deg), math.radians(roll_deg))
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        und, (failure,) = _undistort_uv(np.array([u, v]), k, DistortionCoefficients(k1=-1e-8))
        (x, y, z), missed = plane_points(_normalize_uv(und, k), rot, 2.0)
        assert failure is None and not missed
        assert x == pytest.approx(0.8, abs=1e-9)
        assert y == 2.0
        assert z == pytest.approx(3.5, abs=1e-9)


class TestUndistort:
    def test_zero_distortion_echoes_input(self, config_path, capsys):
        rc = main(["undistort", config_path, "123.25", "456.5"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "123.25,456.5"

    def test_project_then_undistort_matches_ideal_projection(self, tmp_path, capsys):
        distorted_cfg = make_config(tmp_path, distortion={"k1": -2e-8, "p1": 1e-9})
        ideal_cfg = make_config(tmp_path)
        args = ["1.0", "2.0", "4.0", "--pitch", "30"]

        assert main(["project", distorted_cfg, *args]) == 0
        u_d, v_d = map(float, capsys.readouterr().out.strip().split(","))
        assert main(["project", ideal_cfg, *args]) == 0
        u_i, v_i = map(float, capsys.readouterr().out.strip().split(","))

        assert main(["undistort", distorted_cfg, str(u_d), str(v_d)]) == 0
        u_u, v_u = map(float, capsys.readouterr().out.strip().split(","))
        assert math.hypot(u_u - u_i, v_u - v_i) < 1e-6

    def test_nan_pixel_exits_1(self, config_path, capsys):
        rc = main(["undistort", config_path, "nan", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: u must be finite, got nan\n"

    def test_pathological_lens_exits_2(self, tmp_path, capsys):
        cfg = make_config(
            tmp_path,
            intrinsics={"cx": 0.0, "cy": 0.0},
            distortion={"k1": -1e-6},
        )
        rc = main(["undistort", cfg, "500", "0"])
        assert rc == 2
        assert "NonConvergent" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_option_exits_1(self, config_path, capsys):
        assert main(["undistort", config_path, "1", "2", "--backwards"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
