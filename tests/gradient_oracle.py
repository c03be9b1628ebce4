"""Suffix-Gram formulas for the stage-1 gradients and pivot systems.

The package prices, certifies and audits stage 1 with one raw-row kernel
(`stage1._column_residual`), and keeps each pivot system up to date from
the working support's raw-row columns.  These are the formulas they
replaced, kept as the references they are checked against.  They read
only the suffix Gram matrices and cross-products,

    G_b = sum_{l>=b} x_l x_l',    C_b = sum_{l>=b} x_l y_l'.

The coupled gradients are

    grad_b = C_b - sum_b' G_max(b,b') theta_b',

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


def suffix_pivot_system(problem, c: int, bb, aa, ss, kappa: float):
    """Response column c's pivot system (A, rhs) on entries (bb, aa), signs ss.

    Entries i and j both act on the equations from max(bb_i, bb_j) on, so
    A_ij = G_max(bb_i, bb_j)[aa_i, aa_j], and rhs = C_bb[aa, c] - kappa * ss.
    """
    G, Cc = problem.suffix_gram, problem.suffix_cross
    A = G[np.maximum(bb[:, None], bb[None, :]), aa[:, None], aa[None, :]]
    return A, Cc[bb, aa, c] - kappa * ss
