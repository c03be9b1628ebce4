"""Fit hash: SHA-256 digests over every segment fit and detection of the parity inputs.

    PYTHONPATH=src python tests/fit_hash.py

prints the number of fits, the Newton chain's solves
(`stage2._signed_solve` calls), the column systems those solves factor
(the batch sizes of the 3-D `np.linalg.solve` calls) and the columns that
ran the fallback (stage 2's `_solve_column` calls), then two digests, then
how each fit's chain ended: certified at step 1, 2, ..., at the step cap
with a column uncertified, or on a failed solve (singular, non-finite or
wider than the rows), read off the fit's `_signed_solve` results.  A
change meant to keep every answer runs it at the parent commit and at the
change, and compares the lines.

The inputs are the golden inputs (`golden_detections.inputs()`) and the
set-up inputs of every perfbench workload at seeds 0 and 7777.  The fit
hash covers each detect input's bytes, every fit (range, theta bytes, sse,
l1_norm, converged), and each detection's candidates, breaks, IC, L_n and
search trace.  A perfbench "cli" input goes through the CSV round trip and
the three artifacts of `varseg detect`, and their bytes are hashed too.
The detections hash covers the same fits and detections but neither the
input nor the artifact bytes, so it leaves out every stage-1 value: a
change that moves a stage-1 value and keeps every candidate, break, fit
and IC keeps it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from golden_detections import inputs as golden_inputs
from varseg import plots, serialize, stage2
from varseg.pipeline import detect
from varseg.simulate import make_scenario, simulate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (0, 7777)
COUNTED = ("_signed_solve", "_solve_column")


def inputs():
    """(name, preset, seed, via_csv) for every parity input."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from bench import WORKLOADS
    return ([(name, preset, seed, False) for name, preset, seed in golden_inputs()]
            + [(f"{wl.name}/seed{seed + k}", wl.preset, seed + k, wl.kind == "cli")
               for seed in SEEDS for wl in WORKLOADS.values() for k in range(wl.inputs)])


def _floats(*values: float) -> bytes:
    return " ".join(float(v).hex() for v in values).encode()


def _detect(preset, seed: int, via_csv: bool, workdir: Path, h, both) -> None:
    """Hash one input: its bytes and artifacts into `h` alone, its
    detection into `h` and the detections hash (`both`)."""
    X = simulate(make_scenario(preset, seed))
    if via_csv:
        serialize.write_csv(workdir / "data.csv", X)
        X = serialize.ingest_csv(workdir / "data.csv")
    h.update(X.tobytes())
    result = detect(X, preset.d)
    screening = result.stage2
    both(repr((result.stage1.indices, result.final_breaks,
               screening.chosen_breaks)).encode())
    both(_floats(screening.ic, screening.L_n))
    for subset, ic in screening.search_trace:
        both(repr(subset).encode() + _floats(ic))
    if via_csv:
        serialize.dump_json(workdir / "result.json", serialize.detection_to_dict(result))
        bundle = plots.make_plot_bundle(X, result)
        serialize.dump_json(workdir / "plot_bundle.json", plots.bundle_to_dict(bundle))
        plots.render_svg(bundle, workdir / "plot.svg")
        for name in ("data.csv", "result.json", "plot_bundle.json", "plot.svg"):
            h.update((workdir / name).read_bytes())


def _chain_end(outcomes: list) -> str:
    """How a fit's chain ended, from its `_signed_solve` results in call
    order: None for a failed solve, else whether every column certified.
    Calls past `_NEWTON_STEPS` are the solve after the fallback."""
    chain = outcomes[:stage2._NEWTON_STEPS]
    if None in chain:
        return "failed solve"
    return f"step {len(chain)}" if chain[-1] else "cap"


def fit_hash(items) -> tuple[tuple[str, str], dict]:
    """The fit hash and the detections hash over `items` (as `inputs()`
    gives them), and the counts: fits, `_signed_solve` calls, column
    systems and `_solve_column` calls in stage 2, and under "ends" the
    fits by how their chain ended (`_chain_end`)."""
    h, detections = hashlib.sha256(), hashlib.sha256()

    def both(data: bytes) -> None:
        h.update(data)
        detections.update(data)

    counts = dict.fromkeys(("fits", "systems", *COUNTED), 0)
    steps = range(1, stage2._NEWTON_STEPS + 1)
    counts["ends"] = dict.fromkeys([*(f"step {i}" for i in steps), "cap", "failed solve"], 0)
    outcomes: list = []     # the current fit's `_signed_solve` results
    originals = {name: getattr(stage2, name) for name in ("fit_segment", *COUNTED)}
    solve = np.linalg.solve

    def counted_solve(a, b):
        if a.ndim == 3:     # the chain's batch: one system per column
            counts["systems"] += a.shape[0]
        return solve(a, b)

    def counted(name):
        def call(*args, **kwargs):
            counts[name] += 1
            result = originals[name](*args, **kwargs)
            if name == "_signed_solve":
                outcomes.append(None if result is None else bool(result[2].all()))
            return result
        return call

    def hashed_fit(*args, **kwargs):
        outcomes.clear()
        fit = originals["fit_segment"](*args, **kwargs)
        counts["fits"] += 1
        counts["ends"][_chain_end(outcomes)] += 1
        both(repr((fit.range, fit.converged)).encode() + fit.theta.tobytes()
             + _floats(fit.sse, fit.l1_norm))
        return fit

    try:
        stage2.fit_segment = hashed_fit
        np.linalg.solve = counted_solve
        for name in COUNTED:
            setattr(stage2, name, counted(name))
        with tempfile.TemporaryDirectory() as tmp:
            for name, preset, seed, via_csv in items:
                both(name.encode())
                _detect(preset, seed, via_csv, Path(tmp), h, both)
    finally:
        np.linalg.solve = solve
        for name, original in originals.items():
            setattr(stage2, name, original)
    return (h.hexdigest(), detections.hexdigest()), counts


def main() -> None:
    items = inputs()
    (digest, detections), counts = fit_hash(items)
    print(f"inputs {len(items)}  fits {counts['fits']}  "
          f"chain solves {counts['_signed_solve']}  "
          f"column systems {counts['systems']}  "
          f"fallback columns {counts['_solve_column']}")
    print(f"fit hash {digest}")
    print(f"detections hash {detections}")
    print("chain ends  " + "  ".join(f"{end} {n}" for end, n in counts["ends"].items()))


if __name__ == "__main__":
    main()
