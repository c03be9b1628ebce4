"""Reference subset search for stage 2: score every subset of the merged set.

Brute force over all 2^m subsets through the public `evaluate_subset`,
with the tie rule `select_breaks` uses: the smallest IC, then fewer
breaks, then the lexicographically smaller break vector.  Exponential in
m, so only for small candidate sets, which is all an oracle needs.
"""

from __future__ import annotations

import itertools

from varseg.stage2 import evaluate_subset


def best_subset(data, merged, d, schedule):
    """IC-minimizing subset of `merged` and its IC, over every subset."""
    cache: dict = {}
    scored = []
    for size in range(len(merged) + 1):
        for subset in itertools.combinations(merged, size):
            L, _ = evaluate_subset(data, subset, d, schedule, cache)
            scored.append((L + size * schedule.omega_n, (size, subset), subset))
    ic, _, best = min(scored)
    return best, ic
