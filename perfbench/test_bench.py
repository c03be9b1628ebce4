"""Smoke test of the benchmark harness on tiny series (T=60, p=3).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(kind: str) -> bench.Workload:
    return bench.Workload(f"tiny-{kind}", kind, 1, 60, 3, (20, 40), inputs=2,
                          scaling_replicates=2)


def test_spec_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", ["cli", "detect"])
def test_every_metric_is_emitted_with_a_unit(kind, trace, tmp_path):
    report = bench.run(_tiny(kind), seed=0, seconds=0.01, trace=trace, workdir=tmp_path)
    result = json.loads(bench.result_line(report))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])

    printed = "\n".join(bench.report_lines(report))
    for name, (_, unit, n) in report.metrics.items():
        assert f"{name} = " in printed and f" {unit} (n={n})" in printed
    for name in bench.OUTCOME:
        assert f"{name} = " in printed
    for key in ("nproc", "python", "numpy", "blas", "blas_pin", "git_commit",
                "seed", "series"):
        assert key in report.env

    if trace:
        m = {name: v[0] for name, v in report.metrics.items()}
        assert m["pipeline.detect.s"] > 0
        assert sum(m[name] for name in bench.DETECT_PARTS) == pytest.approx(
            m["pipeline.detect.s"], rel=1e-9)
        assert m["stage2.fit_segment.calls"] >= 1


def test_failures_are_flagged(tmp_path, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(bench.pipeline, "bcd_solve", no_convergence)
    report = bench.run(_tiny("detect"), seed=0, seconds=0.01, trace=False, workdir=tmp_path)
    result = json.loads(bench.result_line(report))
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert report.metrics["failed_frac"][0] == 1.0
    assert any(line.startswith("FLAGGED") for line in bench.report_lines(report))


def _move_breaks(screening, tol):
    return tuple(b + int(2 * tol) for b in screening.chosen_breaks)


@pytest.mark.parametrize("wrong", [lambda screening, tol: (), _move_breaks],
                         ids=["no-breaks", "moved-breaks"])
def test_wrong_stage2_answer_fails_the_run(wrong, tmp_path, monkeypatch):
    # Tiny series are too short to detect reliably; one scenario-1 series is not.
    wl = dataclasses.replace(bench.WORKLOADS["s1-detect"], kind="detect", inputs=1)
    healthy = bench.run(wl, seed=0, seconds=0.01, trace=False, workdir=tmp_path)
    assert healthy.failed == 0

    select_breaks = bench.pipeline.select_breaks

    def wrong_select_breaks(*args, **kwargs):
        screening = select_breaks(*args, **kwargs)
        return dataclasses.replace(screening, chosen_breaks=wrong(screening, wl.break_tol))

    monkeypatch.setattr(bench.pipeline, "select_breaks", wrong_select_breaks)
    report = bench.run(wl, seed=0, seconds=0.01, trace=False, workdir=tmp_path)
    result = json.loads(bench.result_line(report))
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert all("break" in o.failure for o in report.outcomes)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "s1-detect",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
