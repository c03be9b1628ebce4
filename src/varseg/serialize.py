"""CSV ingestion/emission and the JSON wire formats.

Numbers in CSV are written with 17 significant digits so a write/read
round trip reproduces every float bit-exactly.  JSON artifacts use fixed
field names, so equal inputs produce equal bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .model import SegmentedVarModel
from .pipeline import DetectionResult, ReplicateSummary


class DataError(ValueError):
    """Malformed input data (CSV shape, parse failures, non-finite values)."""


# ---------------------------------------------------------------- CSV

def write_csv(path, data: np.ndarray) -> None:
    X = np.asarray(data, dtype=float)
    T, p = X.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"y{j + 1}" for j in range(p)) + "\n")
        for t in range(T):
            fh.write(str(t + 1) + "," + ",".join(f"{v:.17g}" for v in X[t]) + "\n")


def _parse_row(cells: list[str], row_no: int, ncol: int, has_t: bool) -> list[float]:
    if len(cells) != ncol:
        raise DataError(f"row {row_no}: expected {ncol} columns, got {len(cells)}")
    out = []
    for j, cell in enumerate(cells[1 if has_t else 0:], start=2 if has_t else 1):
        try:
            v = float(cell)
        except ValueError:
            raise DataError(f"row {row_no}, column {j}: could not parse {cell!r}") from None
        if not math.isfinite(v):
            raise DataError(f"row {row_no}, column {j}: non-finite value {cell!r}")
        out.append(v)
    return out


def ingest_csv(path) -> np.ndarray:
    """Read a series matrix; a leading t/index column and header are optional.

    Every row must be as wide as the header (else the first row), or DataError.
    A leading UTF-8 byte-order mark, as spreadsheet exports write, is dropped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise DataError("empty input file")
    first = [c.strip() for c in lines[0].split(",")]

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    has_header = not all(_numeric(c) for c in first)
    has_t = first[0].lower() in ("t", "time", "index") if has_header else False
    body = lines[1:] if has_header else lines
    if not body:
        raise DataError("no data rows")
    ncol = len(first) if has_header else len(body[0].split(","))
    if not has_header and ncol >= 2:
        # headerless: treat the first column as t only if it counts 1..T
        col0 = [ln.split(",")[0].strip() for ln in body]
        has_t = all(_numeric(c) and float(c) == i + 1 for i, c in enumerate(col0))
    if has_t and ncol == 1:
        raise DataError("no value columns")
    rows = []
    start = 2 if has_header else 1
    for i, ln in enumerate(body, start=start):
        rows.append(_parse_row([c.strip() for c in ln.split(",")], i, ncol, has_t))
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------- JSON

def dump_json(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def model_to_dict(model: SegmentedVarModel) -> dict:
    return {
        "p": model.p, "d": model.d, "T": model.T,
        "breaks": list(model.break_points),
        "segments": [seg.tolist() for seg in model.segments],
        "noise_cov": model.noise_cov.tolist(),
    }


def detection_to_dict(result: DetectionResult) -> dict:
    """Serialized detection output; the penalty levels come from its schedule.

    stage1.nonzeros holds the stage-1 estimate as [block, row, column, value]
    rows, ordered by row, then block, then column (`ThetaEstimate`).
    """
    estimate, candidates = result.stage1_estimate, result.stage1
    screening, schedule = result.stage2, result.schedule
    return {
        "final_breaks": list(result.final_breaks),
        "final_models": [m.tolist() for m in result.final_models],
        "schedule": asdict(schedule),
        "stage1": {
            "lambda": float(schedule.lambda_n),
            "converged": estimate.converged,
            "candidates": list(candidates.indices),
            "nonzeros": [[b, row, col, v]
                         for row, (bb, aa, xv) in enumerate(estimate.support)
                         for b, col, v in zip(bb.tolist(), aa.tolist(), xv.tolist())],
        },
        "stage2": {
            "breaks": list(screening.chosen_breaks),
            "ic": screening.ic,
            "L_n": screening.L_n,
            "omega_n": float(schedule.omega_n),
            "eta_n": float(schedule.eta_n),
            "trace": [{"subset": list(s), "ic": v} for s, v in screening.search_trace],
        },
    }


def summary_to_dict(summary: ReplicateSummary) -> dict:
    def _num(x):
        return None if isinstance(x, float) and not math.isfinite(x) else x

    return {
        "truth": list(summary.truth),
        "T": summary.T,
        "n_replicates": summary.n_replicates,
        "n_failed": summary.n_failed,
        "exact_count_rate": summary.exact_count_rate,
        "breaks": [
            {
                "break_index": k + 1,
                "truth_rel": summary.truth_rel[k],
                "mean_rel": _num(summary.mean_rel[k]),
                "std_rel": _num(summary.std_rel[k]),
                "selection_rate": summary.selection_rate[k],
            }
            for k in range(len(summary.truth))
        ],
        "hausdorff": {
            "stage1_mean": _num(summary.hausdorff_stage1_mean),
            "stage1_max": _num(summary.hausdorff_stage1_max),
            "final_mean": _num(summary.hausdorff_final_mean),
            "final_max": _num(summary.hausdorff_final_max),
        },
    }


def write_summary_csv(path, summary: ReplicateSummary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("break_index,truth_rel,mean_rel,std_rel,selection_rate\n")
        for k in range(len(summary.truth)):
            fh.write(",".join([
                str(k + 1),
                f"{summary.truth_rel[k]:.17g}",
                f"{summary.mean_rel[k]:.17g}",
                f"{summary.std_rel[k]:.17g}",
                f"{summary.selection_rate[k]:.17g}",
            ]) + "\n")
