"""Suffix-Gram recursion for the stage-1 coupled gradients.

The package prices, certifies and audits stage 1 with one raw-row kernel
(`stage1._column_residual`).  This is the formula it replaced, kept as the
reference the kernel is checked against: it reads only the suffix Gram
matrices and cross-products,

    grad_b = c_b - sum_b' G_max(b,b') theta_b',

accumulating the later blocks' terms from the end and the earlier blocks'
coefficients from the front.
"""

from __future__ import annotations

import numpy as np


def suffix_gradients(problem, th: np.ndarray) -> np.ndarray:
    """Coupled gradients (one per suffix Gram, p*d, p) of th, solver orientation."""
    G, Cc = problem.suffix_gram, problem.suffix_cross
    n, q = G.shape[0], problem.p * problem.d
    active = np.any(th, axis=(1, 2))
    # grad[b] first holds sum_{b' > b} G_b' theta_b', what later blocks add
    grad = np.empty((n, q, problem.p))
    grad[n - 1] = 0.0
    for b in range(n - 2, -1, -1):
        np.copyto(grad[b], grad[b + 1])
        if active[b + 1]:
            grad[b] += G[b + 1] @ th[b + 1]
    prefix = np.zeros((q, problem.p))
    for b in range(n):
        prefix = prefix + th[b]
        grad[b] = Cc[b] - G[b] @ prefix - grad[b]
    return grad
