"""Serialization round trips, CSV ingestion, SVG output, and the CLI."""

import argparse
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import piecewise_series
from varseg import cli, pipeline, stage1, stage2
from varseg.cli import main
from varseg.model import SegmentedVarModel
from varseg.plots import (PlotBundle, bundle_from_dict, bundle_to_dict,
                          render_svg)
from varseg.serialize import (DataError, dump_json, ingest_csv, load_json,
                              model_to_dict, write_csv)


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
    np.testing.assert_array_equal(ingest_csv(path), data)


def test_csv_header_and_t_column(tmp_path):
    path = _write(tmp_path / "x.csv", "t,y1,y2\n1,0.5,1.5\n2,-2,3\n")
    np.testing.assert_array_equal(ingest_csv(path), [[0.5, 1.5], [-2.0, 3.0]])


def test_csv_header_without_t_column(tmp_path):
    path = _write(tmp_path / "x.csv", "a,b\n1,2\n3,4\n")
    np.testing.assert_array_equal(ingest_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_headerless_with_counting_index(tmp_path):
    path = _write(tmp_path / "x.csv", "1,0.5\n2,0.25\n")
    np.testing.assert_array_equal(ingest_csv(path), [[0.5], [0.25]])


def test_csv_headerless_without_index(tmp_path):
    # first column does not count 1..T, so it is data
    path = _write(tmp_path / "x.csv", "5.0,0.5\n6.0,0.25\n")
    np.testing.assert_array_equal(ingest_csv(path), [[5.0, 0.5], [6.0, 0.25]])


def test_csv_single_column(tmp_path):
    path = _write(tmp_path / "x.csv", "1\n2\n3\n")
    np.testing.assert_array_equal(ingest_csv(path), [[1.0], [2.0], [3.0]])


def test_csv_error_positions(tmp_path):
    ragged = _write(tmp_path / "a.csv", "t,y1\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        ingest_csv(ragged)
    junk = _write(tmp_path / "b.csv", "t,y1\n1,oops\n")
    with pytest.raises(DataError, match="row 2, column 2"):
        ingest_csv(junk)
    hole = _write(tmp_path / "c.csv", "t,y1\n1,nan\n")
    with pytest.raises(DataError, match="non-finite"):
        ingest_csv(hole)


def test_csv_rows_must_match_the_header_width(tmp_path, capsys):
    # a row narrower or wider than its header would drop or invent a column
    for text, want, got in (("t,y1,y2\n1,0.5\n2,0.25\n", 3, 2),
                            ("y1,y2\n0.5\n0.25\n", 2, 1),
                            ("y1\n0.5,1\n0.25,2\n", 1, 2)):
        path = _write(tmp_path / "x.csv", text)
        with pytest.raises(DataError, match=f"^row 2: expected {want} columns, got {got}$"):
            ingest_csv(path)
        assert main(["detect", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"row 2: expected {want} columns" in capsys.readouterr().err


def test_csv_empty_inputs(tmp_path):
    with pytest.raises(DataError, match="empty"):
        ingest_csv(_write(tmp_path / "a.csv", ""))
    with pytest.raises(DataError, match="no data rows"):
        ingest_csv(_write(tmp_path / "b.csv", "t,y1\n"))
    with pytest.raises(DataError, match="no value columns"):
        ingest_csv(_write(tmp_path / "c.csv", "t\n1\n2\n3\n"))


def test_csv_byte_order_mark_is_dropped(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a BOM; the file must read
    # as its BOM-free copy, header detection and the t column included
    for text in ("t,y1,y2\n1,0.5,1.5\n2,-2,3\n", "1,0.5\n2,0.25\n"):
        plain = _write(tmp_path / "plain.csv", text)
        bom = _write(tmp_path / "bom.csv", "\ufeff" + text)
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        np.testing.assert_array_equal(ingest_csv(bom), ingest_csv(plain))


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
    doc = load_json(path)
    assert (doc["p"], doc["d"], doc["T"]) == (2, 2, 50)
    assert doc["breaks"] == [20]
    assert len(doc["segments"]) == len(model.segments)
    for seg, want in zip(doc["segments"], model.segments):
        assert np.asarray(seg).tobytes() == want.tobytes()
    assert np.asarray(doc["noise_cov"]).tobytes() == model.noise_cov.tobytes()


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
                        heatmaps=(rng.standard_normal((2, 2)),))
    doc = bundle_to_dict(bundle)
    assert sorted(doc) == ["candidate_markers", "final_markers", "heatmaps", "series"]
    back = bundle_from_dict(doc)
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


def test_result_json_stage1_nonzeros_round_trip(small_csv, tmp_path):
    # stage1.nonzeros rebuilds the estimate: the same entries, bit for bit,
    # the same candidates, and a passing stationarity audit
    out = tmp_path / "det"
    assert main(["detect", "--input", str(small_csv), "--out", str(out)]) == 0
    doc = load_json(out / "result.json")["stage1"]
    data = ingest_csv(small_csv)
    p = data.shape[1]
    support = []
    for row in range(p):
        entries = [e for e in doc["nonzeros"] if e[1] == row]
        support.append((np.array([e[0] for e in entries], dtype=np.intp),
                        np.array([e[2] for e in entries], dtype=np.intp),
                        np.array([e[3] for e in entries], dtype=float)))
    est = stage1.ThetaEstimate(support=tuple(support), iterations=0,
                               converged=doc["converged"], objective_trace=())
    assert doc["candidates"]
    want = pipeline.detect(data, 1).stage1_estimate.support
    for got_col, want_col in zip(est.support, want):
        for got, ref in zip(got_col, want_col):
            assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes())
    assert list(stage1.extract_candidates(est, 1).indices) == doc["candidates"]
    assert stage1.kkt_check(stage1.build_stage1(data, 1), est, doc["lambda"]).passed


def test_cli_detect_writes_nothing_to_stderr(small_csv, tmp_path):
    # a converged run reports on stdout only, whatever VARSEG_LOG says; a
    # subprocess, because pytest's log handlers would hide output in-process
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, VARSEG_LOG="debug", PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "varseg", "detect", "--input",
                           str(small_csv), "--out", str(tmp_path / "det")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("breaks:")
    assert done.stderr == ""


def _cap_stage2_rounds(monkeypatch):
    """Leave stage-2 fits uncertified: no Newton chain, one active-set round.

    Only stage 2's calls run under the cap, so stage 1 still certifies and
    stage 2 searches a real candidate set.
    """
    solve_column = stage2._solve_column

    def capped(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stage1, "_MAX_ROUNDS", 1)
            return solve_column(*args)

    monkeypatch.setattr(stage2, "_NEWTON_STEPS", 0)
    monkeypatch.setattr(stage2, "_solve_column", capped)


def test_cli_strict_trips_on_stage2_nonconvergence(small_csv, tmp_path,
                                                   monkeypatch, capsys):
    assert main(["detect", "--input", str(small_csv), "--out",
                 str(tmp_path / "ok"), "--strict"]) == 0
    _cap_stage2_rounds(monkeypatch)
    plain, strict = tmp_path / "plain", tmp_path / "strict"
    capsys.readouterr()
    assert main(["detect", "--input", str(small_csv), "--out", str(plain)]) == 0
    err = capsys.readouterr().err
    assert "stage-2 segment fit did not converge" in err and "stage-1" not in err
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
    _cap_stage2_rounds(monkeypatch)
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "1 of 1 replicates: stage-2 segment fit did not converge" in err
    assert "stage-1" not in err


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
                 ["--lambda-c", "nan"], ["--lambda-c", "inf"],
                 ["--lambda-c", "1e308"])


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


def test_cli_plot_rejects_malformed_bundle(tmp_path, capsys):
    bad = tmp_path / "bundle.json"
    dump_json(bad, {"series": [[0.0], [1.0]], "final_markers": [99]})
    assert main(["plot", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
    dump_json(bad, {"wrong": 1})
    assert main(["plot", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
    for doc in (
            # 1-D arrays where 2-D ones belong
            {"series": [0.0, 1.0, 2.0]},
            {"series": [[0.0], [1.0]], "heatmaps": [[0.5, -0.5]]},
            # empty arrays
            {"series": [[], []]},
            {"series": [[0.0], [1.0]], "heatmaps": [[[]]]},
            # non-finite values (json writes them as NaN and Infinity)
            {"series": [[0.0], [float("nan")]]},
            {"series": [[0.0], [float("inf")]]},
            {"series": [[0.0], [1.0]], "heatmaps": [[[float("-inf")]]]},
            # markers that are not integer times (json's true is not 1)
            {"series": [[0.0], [1.0]], "final_markers": [1.7]},
            {"series": [[0.0], [1.0]], "final_markers": [True]},
            {"series": [[0.0], [1.0]], "final_markers": [False]}):
        dump_json(bad, doc)
        assert main(["plot", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "malformed plot bundle" in capsys.readouterr().err


def test_cli_evaluate_artifacts(tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", "--replicates", "3", "--seed", "11",
                 "--out", str(out)]) == 0
    doc = load_json(out / "summary.json")
    assert doc["n_replicates"] == 3
    assert doc["truth"] == [100, 200]
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "break_index,truth_rel,mean_rel,std_rel,selection_rate"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == pytest.approx(1 / 3)


def test_cli_removed_search_flags_are_usage_errors(small_csv, tmp_path):
    out = str(tmp_path / "o")
    assert main(["detect", "--input", str(small_csv), "--strategy", "backward",
                 "--out", out]) == 1
    assert main(["evaluate", "--exhaustive-cap", "12", "--out", out]) == 1
    # the config file and the preprocessing flags are gone too
    for flags in (["--config", str(tmp_path / "x.json")], ["--downsample", "2"],
                  ["--difference"], ["--center"]):
        assert main(["detect", "--input", str(small_csv), *flags,
                     "--out", out]) == 1


def test_cli_options_are_pinned(small_csv, tmp_path):
    # the parser is the only place options are defined, so a new one
    # shows up here
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in sp._actions for o in a.option_strings}
               - {"-h", "--help"} for name, sp in sub.choices.items()}
    assert options == {
        "simulate": {"--out", "--scenario", "--seed"},
        "detect": {"--out", "--input", "--d", "--lambda-c", "--eta",
                   "--omega-v", "--strict"},
        "evaluate": {"--out", "--scenario", "--seed", "--replicates", "--jobs",
                     "--lambda-c", "--eta", "--omega-v", "--strict"},
        "plot": {"--out", "--input"},
    }
    # the candidate threshold is gone
    assert main(["detect", "--input", str(small_csv), "--zero-tol", "0",
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("argv", [
    ["detect", "--inp", "{csv}"],
    ["detect", "--input", "{csv}", "--lambda", "0.5"],
    ["evaluate", "--rep", "1"],
    ["evaluate", "--replicates", "1", "--omega", "0.5"],
    ["simulate", "--sce", "2"],
], ids=["--inp", "--lambda", "--rep", "--omega", "--sce"])
def test_cli_flag_prefixes_are_usage_errors(argv, small_csv, tmp_path):
    # a unique prefix of a flag is not that flag, in every subcommand;
    # the parser refuses it before any output is written
    out = tmp_path / "o"
    assert main([*(a.format(csv=small_csv) for a in argv), "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_exit_codes(tmp_path):
    out = str(tmp_path / "o")
    assert main(["detect", "--out", out]) == 1                    # no --input
    assert main(["simulate", "--scenario", "1"]) == 1             # no --out
    assert main(["detect", "--input", str(tmp_path / "missing.csv"),
                 "--out", out]) == 2
    bad = _write(tmp_path / "bad.csv", "t,y1\n1,oops\n")
    assert main(["detect", "--input", str(bad), "--out", out]) == 2
    no_values = _write(tmp_path / "t_only.csv",
                       "t\n" + "".join(f"{t}\n" for t in range(1, 41)))
    assert main(["detect", "--input", str(no_values), "--out", out]) == 2
    assert main(["frobnicate"]) == 1                              # parser error

