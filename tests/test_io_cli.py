"""Serialization round trips, preprocessing, SVG output, and the CLI."""

import importlib.util
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import piecewise_series
from varseg import cli, pipeline, stage1, stage2
from varseg.cli import main
from varseg.model import SegmentedVarModel
from varseg.plots import (PlotBundle, bundle_from_dict, bundle_to_dict,
                          make_plot_bundle, render_svg)
from varseg.serialize import (DataError, dump_json, ingest_csv, load_json,
                              model_from_dict, model_to_dict, read_csv,
                              write_csv)
from varseg.simulate import scenario_preset


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ----------------------------------------------------------------- CSV

def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    data = np.exp(40 * rng.standard_normal((37, 4)))
    data[3, 1] = 2.0 ** -1040          # subnormal survives too
    path = tmp_path / "x.csv"
    write_csv(path, data)
    np.testing.assert_array_equal(read_csv(path), data)


def test_csv_header_and_t_column(tmp_path):
    path = _write(tmp_path / "x.csv", "t,y1,y2\n1,0.5,1.5\n2,-2,3\n")
    np.testing.assert_array_equal(read_csv(path), [[0.5, 1.5], [-2.0, 3.0]])


def test_csv_header_without_t_column(tmp_path):
    path = _write(tmp_path / "x.csv", "a,b\n1,2\n3,4\n")
    np.testing.assert_array_equal(read_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_headerless_with_counting_index(tmp_path):
    path = _write(tmp_path / "x.csv", "1,0.5\n2,0.25\n")
    np.testing.assert_array_equal(read_csv(path), [[0.5], [0.25]])


def test_csv_headerless_without_index(tmp_path):
    # first column does not count 1..T, so it is data
    path = _write(tmp_path / "x.csv", "5.0,0.5\n6.0,0.25\n")
    np.testing.assert_array_equal(read_csv(path), [[5.0, 0.5], [6.0, 0.25]])


def test_csv_single_column(tmp_path):
    path = _write(tmp_path / "x.csv", "1\n2\n3\n")
    np.testing.assert_array_equal(read_csv(path), [[1.0], [2.0], [3.0]])


def test_csv_error_positions(tmp_path):
    ragged = _write(tmp_path / "a.csv", "t,y1\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        read_csv(ragged)
    junk = _write(tmp_path / "b.csv", "t,y1\n1,oops\n")
    with pytest.raises(DataError, match="row 2, column 2"):
        read_csv(junk)
    hole = _write(tmp_path / "c.csv", "t,y1\n1,nan\n")
    with pytest.raises(DataError, match="non-finite"):
        read_csv(hole)


def test_csv_empty_inputs(tmp_path):
    with pytest.raises(DataError, match="empty"):
        read_csv(_write(tmp_path / "a.csv", ""))
    with pytest.raises(DataError, match="no data rows"):
        read_csv(_write(tmp_path / "b.csv", "t,y1\n"))


def test_ingest_difference(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, np.array([[1.0], [3.0], [6.0]]))
    np.testing.assert_array_equal(ingest_csv(path, difference=True),
                                  [[2.0], [3.0]])


def test_ingest_downsample_keeps_first_then_every_kth(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, np.arange(10.0).reshape(-1, 1))
    np.testing.assert_array_equal(
        ingest_csv(path, downsample=2),
        [[0.0], [2.0], [4.0], [6.0], [8.0]])
    # downsampling happens before differencing
    np.testing.assert_array_equal(
        ingest_csv(path, downsample=2, difference=True),
        [[2.0], [2.0], [2.0], [2.0]])


def test_ingest_center(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, np.array([[1.0, 10.0], [3.0, 30.0]]))
    out = ingest_csv(path, center=True)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-15)


def test_ingest_errors(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, np.array([[1.0], [2.0]]))
    with pytest.raises(DataError, match="downsample"):
        ingest_csv(path, downsample=0)
    with pytest.raises(DataError, match="at least 2 rows"):
        ingest_csv(path, downsample=2, difference=True)


# ---------------------------------------------------------------- JSON

def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    model = SegmentedVarModel(
        p=2, d=2, T=50, break_points=(20,),
        segments=(0.1 * rng.standard_normal((2, 4)),
                  0.1 * rng.standard_normal((2, 4))),
        noise_cov=0.04 * np.eye(2),
    )
    path = tmp_path / "model.json"
    dump_json(path, model_to_dict(model))
    back = model_from_dict(load_json(path))
    assert (back.p, back.d, back.T) == (2, 2, 50)
    assert back.break_points == (20,)
    for a, b in zip(back.segments, model.segments):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(back.noise_cov, model.noise_cov)


def test_model_from_dict_rejects_malformed():
    with pytest.raises(DataError, match="malformed"):
        model_from_dict({"p": 2, "d": 1})


# ---------------------------------------------------------------- plots

def test_plot_bundle_validates_markers():
    series = np.zeros((10, 1))
    with pytest.raises(ValueError, match="final_markers"):
        PlotBundle(series=series, final_markers=(11,))
    with pytest.raises(ValueError, match="candidate_markers"):
        PlotBundle(series=series, candidate_markers=(0,))


def test_plot_bundle_dict_round_trip():
    rng = np.random.default_rng(2)
    bundle = PlotBundle(series=rng.standard_normal((12, 2)),
                        candidate_markers=(3, 7), final_markers=(7,),
                        truth_markers=(6,),
                        heatmaps=(rng.standard_normal((2, 2)),))
    back = bundle_from_dict(bundle_to_dict(bundle))
    np.testing.assert_array_equal(back.series, bundle.series)
    assert back.final_markers == (7,)
    np.testing.assert_array_equal(back.heatmaps[0], bundle.heatmaps[0])


def test_render_svg_well_formed_and_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    bundle = PlotBundle(series=rng.standard_normal((30, 3)),
                        final_markers=(15,),
                        heatmaps=(rng.standard_normal((3, 3)),
                                  rng.standard_normal((3, 3))))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(bundle, a)
    render_svg(bundle, b)
    assert a.read_bytes() == b.read_bytes()
    root = ET.parse(a).getroot()
    assert root.tag.endswith("svg")
    body = a.read_text()
    assert body.count("<polyline") == 3
    assert '#c23b22' in body       # the final-break marker stroke


# ------------------------------------------------------------------ CLI

def test_cli_simulate_is_reproducible(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["simulate", "--scenario", "1", "--seed", "3",
                 "--out", str(d1)]) == 0
    assert main(["simulate", "--scenario", "1", "--seed", "3",
                 "--out", str(d2)]) == 0
    assert (d1 / "data.csv").read_bytes() == (d2 / "data.csv").read_bytes()
    assert (d1 / "model.json").read_bytes() == (d2 / "model.json").read_bytes()
    doc = load_json(d1 / "model.json")
    assert (doc["p"], doc["T"], doc["breaks"]) == (20, 300, [100, 200])


@pytest.fixture()
def small_csv(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "series.csv"
    write_csv(path, piecewise_series(rng, T=80, p=2, d=1, break_at=40))
    return path


def test_cli_detect_artifacts(small_csv, tmp_path, capsys):
    out = tmp_path / "det"
    assert main(["detect", "--input", str(small_csv), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("breaks:")
    doc = load_json(out / "result.json")
    assert set(doc) == {"final_breaks", "final_models", "schedule",
                        "stage1", "stage2"}
    assert "strategy" not in doc["stage2"]
    bundle = load_json(out / "plot_bundle.json")
    assert len(bundle["series"]) == 80
    assert bundle["final_markers"] == doc["final_breaks"]
    ET.parse(out / "plot.svg")


def test_cli_strict_trips_on_stage2_nonconvergence(small_csv, tmp_path,
                                                   monkeypatch, capsys):
    assert main(["detect", "--input", str(small_csv), "--out",
                 str(tmp_path / "ok"), "--strict"]) == 0
    monkeypatch.setattr(stage2, "SEGMENT_MAX_PASSES", 1)
    monkeypatch.setattr(stage2, "_newton_finish", lambda *args: None)
    plain, strict = tmp_path / "plain", tmp_path / "strict"
    capsys.readouterr()
    assert main(["detect", "--input", str(small_csv), "--out", str(plain)]) == 0
    assert "stage-2 segment fit did not converge" in capsys.readouterr().err
    assert main(["detect", "--input", str(small_csv), "--out", str(strict),
                 "--strict"]) == 3
    assert "stage-2" in capsys.readouterr().err
    # the artifacts do not carry the flag
    assert (strict / "result.json").read_bytes() == (plain / "result.json").read_bytes()


def test_cli_evaluate_strict_trips_on_stage2_nonconvergence(tmp_path, monkeypatch,
                                                            capsys):
    args = ["evaluate", "--scenario", "1", "--replicates", "1", "--jobs", "1",
            "--strict", "--out", str(tmp_path / "eval")]
    assert main(args) == 0
    monkeypatch.setattr(stage2, "SEGMENT_MAX_PASSES", 1)
    monkeypatch.setattr(stage2, "_newton_finish", lambda *args: None)
    capsys.readouterr()
    assert main(args) == 3
    assert "did not converge" in capsys.readouterr().err


def _cap_active_set_rounds(monkeypatch):
    """Leave stage 1 uncertified: one active-set round per column."""
    monkeypatch.setattr(stage1, "_MAX_ROUNDS", 1)


def test_cli_reports_uncertified_stage1(small_csv, tmp_path, monkeypatch, capsys):
    _cap_active_set_rounds(monkeypatch)
    plain, strict = tmp_path / "plain", tmp_path / "strict"
    capsys.readouterr()
    assert main(["detect", "--input", str(small_csv), "--out", str(plain)]) == 0
    assert "stage-1 solver did not converge" in capsys.readouterr().err
    # --strict changes the exit code only
    assert main(["detect", "--input", str(small_csv), "--out", str(strict),
                 "--strict"]) == 3
    assert "stage-1 solver did not converge" in capsys.readouterr().err
    assert (strict / "result.json").read_bytes() == (plain / "result.json").read_bytes()


def test_cli_evaluate_strict_trips_on_uncertified_stage1(tmp_path, monkeypatch,
                                                         capsys):
    _cap_active_set_rounds(monkeypatch)
    args = ["evaluate", "--scenario", "1", "--replicates", "1", "--jobs", "1"]
    plain, strict = tmp_path / "plain", tmp_path / "strict"
    capsys.readouterr()
    assert main([*args, "--out", str(plain)]) == 0
    assert "1 of 1 replicates: stage-1 solver did not converge" in capsys.readouterr().err
    # --strict changes the exit code only
    assert main([*args, "--strict", "--out", str(strict)]) == 3
    assert "1 of 1 replicates: stage-1 solver did not converge" in capsys.readouterr().err
    assert (strict / "summary.json").read_bytes() == (plain / "summary.json").read_bytes()


def test_cli_detect_refuses_input_beyond_memory(small_csv, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: 1024)
    monkeypatch.setattr(pipeline, "build_stage1", None)   # must not be reached
    assert main(["detect", "--input", str(small_csv), "--out",
                 str(tmp_path / "o")]) == 2
    assert "GiB" in capsys.readouterr().err


@pytest.mark.parametrize("flags, v", [([], None), (["--omega-v", "0.5"], 0.5),
                                      (["--omega-v", "0.50001"], 0.50001),
                                      (["--eta", "0.1"], 0.5)],
                         ids=["no-override", "omega-v-default",
                              "omega-v-off-default", "eta"])
def test_cli_evaluate_override_fixes_shared_schedule(tmp_path, monkeypatch,
                                                     flags, v):
    # an override flag, even one equal to the default, fixes one shared
    # schedule; without one each replicate derives its own (None)
    seen = []

    def spy(preset, R, base_seed, schedule=None, **kw):
        seen.append(schedule)
        return pipeline.run_replicates(preset, R, base_seed, schedule, **kw)

    monkeypatch.setattr(cli, "run_replicates", spy)
    assert main(["evaluate", "--scenario", "1", "--replicates", "1", "--jobs", "1",
                 *flags, "--out", str(tmp_path / "eval")]) == 0
    assert len(seen) == 1
    assert (seen[0] is None) == (v is None)
    if v is not None:
        assert seen[0].v_exponent == v


BAD_OVERRIDES = (["--eta", "-1"], ["--eta", "nan"], ["--eta", "inf"],
                 ["--omega-v", "nan"], ["--omega-v", "inf"],
                 ["--lambda-c", "nan"], ["--lambda-c", "inf"])


@pytest.mark.parametrize("flags", BAD_OVERRIDES, ids=" ".join)
def test_cli_detect_rejects_bad_penalty_overrides(small_csv, tmp_path, capsys,
                                                  flags):
    out = tmp_path / "o"
    assert main(["detect", "--input", str(small_csv), *flags,
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_cli_evaluate_rejects_bad_penalty_override(tmp_path, monkeypatch, capsys):
    # refused before any replicate runs
    monkeypatch.setattr(cli, "run_replicates", None)
    out = tmp_path / "eval"
    assert main(["evaluate", "--scenario", "1", "--replicates", "2", "--jobs", "1",
                 "--eta", "-1", "--out", str(out)]) == 1
    assert "error: eta must be finite and >= 0" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_cli_detect_rejects_bad_zero_tol(small_csv, tmp_path, monkeypatch, capsys,
                                         value):
    # -1 would make every block a candidate, NaN none; both are refused
    # before stage 1 runs
    monkeypatch.setattr(pipeline, "build_stage1", None)
    out = tmp_path / "o"
    assert main(["detect", "--input", str(small_csv), "--zero-tol", value,
                 "--out", str(out)]) == 1
    assert "error: zero_tol must be >= 0" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_cli_detect_accepts_infinite_zero_tol(small_csv, tmp_path, capsys):
    assert main(["detect", "--input", str(small_csv), "--zero-tol", "inf",
                 "--out", str(tmp_path / "o")]) == 0
    assert load_json(tmp_path / "o" / "result.json")["stage1"]["candidates"] == []


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_cli_evaluate_rejects_bad_jobs(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setattr(pipeline, "_run_one", None)   # must not be reached
    out = tmp_path / "eval"
    assert main(["evaluate", "--scenario", "1", "--replicates", "2", "--jobs", jobs,
                 "--out", str(out)]) == 1
    assert "error: jobs must be >= 1" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_cli_detect_accepts_zero_eta(small_csv, tmp_path):
    out = tmp_path / "o"
    assert main(["detect", "--input", str(small_csv), "--eta", "0",
                 "--out", str(out)]) == 0
    assert load_json(out / "result.json")["schedule"]["eta_n"] == 0.0


def test_cli_plot_rerenders_bundle(small_csv, tmp_path):
    det, rep = tmp_path / "det", tmp_path / "rep"
    assert main(["detect", "--input", str(small_csv), "--out", str(det)]) == 0
    assert main(["plot", "--input", str(det / "plot_bundle.json"),
                 "--out", str(rep)]) == 0
    assert (rep / "plot.svg").read_bytes() == (det / "plot.svg").read_bytes()


def test_cli_plot_rejects_malformed_bundle(tmp_path):
    bad = tmp_path / "bundle.json"
    dump_json(bad, {"series": [[0.0], [1.0]], "final_markers": [99]})
    assert main(["plot", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
    dump_json(bad, {"wrong": 1})
    assert main(["plot", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_cli_evaluate_artifacts_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    dump_json(cfg, {"replicates": 2, "seed": 11})
    out = tmp_path / "eval"
    # flag overrides the config file's replicate count
    assert main(["evaluate", "--config", str(cfg), "--replicates", "3",
                 "--out", str(out)]) == 0
    doc = load_json(out / "summary.json")
    assert doc["n_replicates"] == 3
    assert doc["truth"] == [100, 200]
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "break_index,truth_rel,mean_rel,std_rel,selection_rate"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == pytest.approx(1 / 3)


def test_cli_config_file_is_applied(small_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    dump_json(cfg, {"d": 0})
    out = str(tmp_path / "o")
    assert main(["detect", "--input", str(small_csv), "--config", str(cfg),
                 "--out", out]) == 1
    # a flag beats the config file's bad value
    assert main(["detect", "--input", str(small_csv), "--config", str(cfg),
                 "--d", "1", "--out", out]) == 0


@pytest.mark.parametrize("doc", [{"d": "1"}, {"downsample": "2"}, {"d": True},
                                 {"d": None}, {"omega_v": "0.5"},
                                 {"strategy": "backward"},
                                 {"exhaustive_cap": 12}],
                         ids=["str-for-int", "str-downsample", "bool-for-int",
                              "null-for-int", "str-for-float",
                              "removed-strategy", "removed-exhaustive-cap"])
def test_cli_config_file_rejects_bad_values(small_csv, tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    dump_json(cfg, doc)
    assert main(["detect", "--input", str(small_csv), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"omega_v": 1}, {"lambda_c": None},
                                 {"eta": 0}, {"center": False}],
                         ids=["int-for-float", "null-where-default-null",
                              "int-for-optional-float", "bool"])
def test_cli_config_file_accepts_fitting_values(small_csv, tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    dump_json(cfg, doc)
    assert main(["detect", "--input", str(small_csv), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0


def test_cli_removed_search_flags_are_usage_errors(small_csv, tmp_path):
    out = str(tmp_path / "o")
    assert main(["detect", "--input", str(small_csv), "--strategy", "backward",
                 "--out", out]) == 1
    assert main(["evaluate", "--exhaustive-cap", "12", "--out", out]) == 1


def test_cli_config_file_rejects_unknown_keys(small_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    dump_json(cfg, {"lambda": 0.5})
    assert main(["detect", "--input", str(small_csv), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1


def test_cli_config_file_must_be_an_object(small_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]\n", encoding="utf-8")
    assert main(["detect", "--input", str(small_csv), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1


def test_cli_exit_codes(tmp_path):
    out = str(tmp_path / "o")
    assert main(["detect", "--out", out]) == 1                    # no --input
    assert main(["simulate", "--scenario", "1"]) == 1             # no --out
    assert main(["detect", "--input", str(tmp_path / "missing.csv"),
                 "--out", out]) == 2
    bad = _write(tmp_path / "bad.csv", "t,y1\n1,oops\n")
    assert main(["detect", "--input", str(bad), "--out", out]) == 2
    assert main(["frobnicate"]) == 1                              # parser error


# ------------------------------------------------------------- scripts

def test_run_scenarios_prints_one_row_per_true_break(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_scenarios.py"
    spec = importlib.util.spec_from_file_location("run_scenarios", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--scenario", "1", "--replicates", "1"]) == 0
    preset = scenario_preset(1)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith(preset.name)]
    assert [int(row[1]) for row in rows] == list(preset.breaks)
