"""`detect` keeps the answers pinned in `tests/golden_detections.json`."""

import json

import pytest

import fit_hash
from golden_detections import GOLDEN, inputs, record

PINNED = json.loads(GOLDEN.read_text())
INPUTS = {name: (preset, seed) for name, preset, seed in inputs()}


def test_golden_file_lists_every_input():
    assert list(PINNED) == list(INPUTS)


@pytest.mark.parametrize("name", list(INPUTS))
def test_detections_match_the_golden_file(name):
    want, got = PINNED[name], record(*INPUTS[name])
    assert got["candidates"] == want["candidates"]
    assert got["final_breaks"] == want["final_breaks"]
    assert got["stage1_converged"] is want["stage1_converged"]
    assert got["stage2_converged"] is want["stage2_converged"]
    assert got["ic"] == pytest.approx(want["ic"], rel=1e-9, abs=0.0)


def test_fit_hash_is_reproducible():
    # two golden inputs and one that takes the CSV round trip, so the
    # hand-run parity script keeps working
    items = fit_hash.inputs()
    items = items[:2] + [next(item for item in items if item[3])]
    first, second = fit_hash.fit_hash(items), fit_hash.fit_hash(items)
    assert first == second
    assert first[1]["fits"] > 0
    assert sum(first[1]["ends"].values()) == first[1]["fits"]
