"""Reference coordinate descent for the Gram-form lasso block problem.

The plain cyclic loop the package kernel `stage2._lasso_gram_cd` must
reproduce: every row is visited on every pass.  The kernel is the same
loop run one pass per call; this copy, with its own pass loop and stopping
rule, is the reference it is checked against.  Slow but obvious, which is
the point of an oracle.  `soft_threshold` is its row update, and the closed
form of a one-coefficient lasso.
"""

from __future__ import annotations

import numpy as np


def soft_threshold(x, lam):
    """Elementwise shrink-toward-zero: sign(x) * max(|x| - lam, 0)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def lasso_gram_cd_reference(G, r, kappa, theta, tol, max_passes):
    """Minimize sum_c [theta_c' G theta_c - 2 r_c' theta_c] + 2 kappa |theta|_1.

    Cyclic over the rows of theta (all columns of a row move together);
    theta is updated in place.  Returns (theta, converged), converged being
    True when a pass ended with its largest step under tol.
    """
    q = G.shape[0]
    diag = np.diag(G)
    for _ in range(max_passes):
        delta = 0.0
        for a in range(q):
            old = theta[a].copy()
            if diag[a] <= 0.0:
                theta[a] = 0.0
            else:
                partial = r[a] - G[a] @ theta + diag[a] * theta[a]
                theta[a] = soft_threshold(partial, kappa) / diag[a]
            step = np.max(np.abs(theta[a] - old))
            if step > delta:
                delta = step
        if delta < tol:
            return theta, True
    return theta, False
