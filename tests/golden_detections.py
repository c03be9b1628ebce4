"""Golden detections: fixed simulated inputs and what `detect` returns on them.

    PYTHONPATH=src python tests/golden_detections.py

rewrites `tests/golden_detections.json` from the package in this checkout.
Run it only when a change is meant to move the answers, and list each
input whose record changed.  `tests/test_golden.py` compares against the
file: the integers exactly, the IC to a relative 1e-9.

Inputs are scenarios 1-3 at seeds 0-9, and the scenario-3 structure at
T=1000, p=20 (breaks 333 and 667) and at T=600, p=50 (breaks 200 and 400)
at seeds 0-4, each detected with the schedule derived from its own data.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from varseg.pipeline import detect
from varseg.simulate import make_scenario, scenario_preset, simulate

GOLDEN = Path(__file__).with_suffix(".json")

SHAPES = {
    **{f"scenario{k}": (scenario_preset(k), range(10)) for k in (1, 2, 3)},
    "long-t1000": (replace(scenario_preset(3), T=1000, p=20, breaks=(333, 667)),
                   range(5)),
    "wide-p50": (replace(scenario_preset(3), T=600, p=50, breaks=(200, 400)),
                 range(5)),
}


def inputs():
    """(name, preset, seed) for every golden input, in file order."""
    return [(f"{shape}/seed{seed}", preset, seed)
            for shape, (preset, seeds) in SHAPES.items() for seed in seeds]


def record(preset, seed) -> dict:
    result = detect(simulate(make_scenario(preset, seed)), preset.d)
    return {"candidates": list(result.stage1.indices),
            "final_breaks": list(result.final_breaks),
            "stage1_converged": result.stage1_estimate.converged,
            "stage2_converged": all(f.converged for f in result.stage2.fits),
            "ic": result.stage2.ic}


def main() -> None:
    rows = [f" {json.dumps(name)}: {json.dumps(record(preset, seed))}"
            for name, preset, seed in inputs()]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    main()
