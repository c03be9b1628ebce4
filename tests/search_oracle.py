"""Reference subset searches for stage 2, scoring subsets from scratch.

`best_subset` is brute force over all 2^m subsets through the public
`evaluate_subset`, with the tie rule `select_breaks` uses: the smallest
IC, then fewer breaks, then the lexicographically smaller break vector.
Exponential in m, so only for small candidate sets, which is all an oracle
needs.

`backward_trace` is backward elimination as `select_breaks` runs it, but
with every scored subset summed afresh by `evaluate_subset` (O(m) per
subset) instead of updated from its two neighbour fits.  `refine` is the
step that follows the search, with every move scored by the loss of the
whole segmentation rather than of the two segments it changes.
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


def backward_trace(data, merged, d, schedule):
    """(subset, IC) pairs of backward elimination, in `select_breaks` order."""
    cache: dict = {}
    trace = []

    def score(subset):
        L, _ = evaluate_subset(data, subset, d, schedule, cache)
        trace.append((subset, L + len(subset) * schedule.omega_n))
        return trace[-1][1]

    current = tuple(merged)
    current_val = score(current)
    while current:
        options = []
        for i in range(len(current)):
            subset = current[:i] + current[i + 1:]
            options.append((score(subset), subset))
        cand_val, cand_subset = min(options)
        if cand_val >= current_val:
            break
        current, current_val = cand_subset, cand_val
    if not any(s == () for s, _ in trace):
        score(())
    return trace


def refine(data, picked, clusters, d, schedule):
    """Each picked break moved, left to right, to its cluster's best member."""
    best = list(picked)
    for i, t in enumerate(picked):
        def total(u):
            return evaluate_subset(data, (*best[:i], u, *best[i + 1:]), d, schedule)[0]
        best[i] = min(clusters[t], key=lambda u: (total(u), u != t))
    return tuple(best)
