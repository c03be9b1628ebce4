"""First-stage estimator: every time point gets its own coefficient increment.

The regression stacks one equation per usable response row and one p x (p*d)
coefficient block theta_i per time index i = 1..n, n = T - d + 1.  Block 1 is
the base coefficient; block i >= 2 is the increment that first affects the
response at time t = i + d - 1, so nonzero increments mark candidate breaks.

Objective: (1/n) ||Y - Z Theta||_F^2 + lambda * sum_i ||theta_i||_1.

The solve is a primal active-set method (Osborne, Presnell & Turlach, IMA
J. Numer. Anal. 2000), run one response column at a time from zero: it
admits the worst threshold violator, solves the stationarity equalities on
the working support, and drops an entry whose sign would cross.  A sparse
optimum is reached in a few admits and ends with a KKT certificate.  A
cyclic block sweep is kept as the fallback for a start the active-set
method cannot certify.  Both work on suffix Gram matrices
G_i = sum_{l>=i} Y_{l-1} Y_{l-1}'; only the objective reads raw design rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Stage1Problem:
    """Precomputed sufficient statistics for the stage-1 solvers.

    suffix_gram[b] and suffix_cross[b] (0-based block b, i = b + 1) hold
    sums over all equations the block participates in.  Block 0 spans the
    same equations as block 1 because the first response with a full lag
    vector is y_{d+1}, hence suffix_gram[0] == suffix_gram[1].
    """

    n: int
    p: int
    d: int
    suffix_gram: np.ndarray    # (n, p*d, p*d)
    suffix_cross: np.ndarray   # (n, p*d, p)
    lagged_rows: np.ndarray    # (n-1, p*d), row j belongs to equation j+1
    targets: np.ndarray        # (n-1, p)


@dataclass(frozen=True, eq=False)
class ThetaEstimate:
    theta: np.ndarray          # (n, p, p*d), block i = theta[i-1]
    lambda_used: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]


@dataclass(frozen=True)
class KktReport:
    active_residuals: dict[int, float]   # 1-based block index -> residual
    inactive_max: float
    threshold: float
    passed: bool


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Stage-1 output: candidate break times and implied segment coefficients.

    indices are on the original time axis (block i maps to t = i + d - 1);
    strengths[k] is the max-norm of the increment behind indices[k].
    """

    indices: tuple[int, ...]
    m_hat: int
    segment_coefficients: tuple[np.ndarray, ...]
    strengths: tuple[float, ...]


def _lagged_design(data: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack lag vectors (y_{r-1}', ..., y_{r-d}')' for response rows r = d..T-1."""
    T, p = data.shape
    m = T - d
    lag = np.empty((m, p * d))
    for k in range(d):
        lag[:, k * p:(k + 1) * p] = data[d - 1 - k:T - 1 - k]
    return lag, data[d:]


def build_stage1(data: np.ndarray, d: int) -> Stage1Problem:
    """Assemble suffix Grams and cross-products for the stage-1 solvers.

    The suffix sums are accumulated in place in the two returned arrays,
    so peak memory is one copy of them: n * (p*d) * (p*d + p) floats, plus
    the lagged design.
    """
    X = np.ascontiguousarray(np.asarray(data, dtype=float))
    if X.ndim != 2:
        raise ValueError("data must be a T x p matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("data contains non-finite values")
    T, p = X.shape
    if d < 1:
        raise ValueError("d must be >= 1")
    if T <= d:
        raise ValueError(f"need T > d, got T={T}, d={d}")

    lag, tgt = _lagged_design(X, d)
    n, q = T - d + 1, p * d
    sg = np.empty((n, q, q))
    sc = np.empty((n, q, p))
    # block b >= 1 starts at equation b (row b - 1); sum the outer products
    # from the last equation back, then block 0 copies block 1
    np.multiply(lag[:, :, None], lag[:, None, :], out=sg[1:])
    np.multiply(lag[:, :, None], tgt[:, None, :], out=sc[1:])
    for b in range(n - 2, 0, -1):
        sg[b] += sg[b + 1]
        sc[b] += sc[b + 1]
    sg[0] = sg[1]
    sc[0] = sc[1]
    return Stage1Problem(n=n, p=p, d=d, suffix_gram=sg, suffix_cross=sc,
                         lagged_rows=lag, targets=tgt)


def _lasso_gram_cd(G, r, kappa, theta, tol, max_passes) -> bool:
    """Exact block subproblem solver in Gram form.

    Minimizes sum_b [theta_b' G theta_b - 2 r_b' theta_b] (scaled by 1/n
    outside) plus the l1 charge with per-entry threshold kappa, by cyclic
    coordinate descent over the p*d rows of theta (all response columns of
    one row move together).  theta is updated in place.  Returns True when
    a pass ended with its largest step under tol, False when max_passes
    ran out first.

    Rows that provably stay zero are not visited one by one (the screening
    of Friedman, Hastie & Tibshirani, JSS 2010): on reaching a zero row,
    the residuals r[a:] - G[a:] @ theta of all later rows come from one
    product, and the sweep jumps over every zero row inside the threshold
    band, writing the signed zero its update would have left.  The screen
    holds until a visited row moves.  Visited rows use the plain update,
    so the iterates match a row-by-row sweep.
    """
    q = G.shape[0]
    diag = np.diag(G)
    flat = diag <= 0.0
    # rows a screen may not skip: nonzero, or without curvature
    hold = flat | theta.any(axis=1)
    # two summation orders of r - G @ theta differ by at most this factor
    # times |r| + |G| |theta|, so a screened row inside kappa less that
    # slack is inside kappa by the row update's own arithmetic too
    rounding = 2.0 * (q + 2) * np.finfo(float).eps
    r_abs = float(np.abs(r).max(initial=0.0))
    g_abs = float(np.abs(G).sum(axis=1).max(initial=0.0))
    skip = np.zeros(q + 1, dtype=bool)   # skip[q] stays False: a sentinel
    screened = False    # skip[base:] and s hold while theta holds still
    base = 0
    for _ in range(max_passes):
        delta = 0.0
        a = 0
        while a < q:
            if not hold[a]:
                if not screened or a < base:
                    if a + 1 < q and not hold[a + 1]:
                        base = a
                        s = r[a:] - G[a:] @ theta
                        slack = rounding * (r_abs + g_abs * float(np.abs(theta).max()))
                        np.less_equal(np.abs(s).max(axis=1), kappa - slack, out=skip[a:q])
                        skip[a:q][hold[a:]] = False
                        screened = True
                if screened and a >= base:
                    run = int(np.argmin(skip[a:]))
                    if run:
                        theta[a:a + run] = np.sign(s[a - base:a - base + run]) * 0.0
                        a += run
                        if a == q:
                            break
            old = theta[a]
            if flat[a]:
                # No curvature: only exactly-zero data columns land here.
                new = np.zeros_like(old)
            else:
                partial = r[a] - G[a] @ theta + diag[a] * old
                new = np.sign(partial) * np.maximum(np.abs(partial) - kappa, 0.0) / diag[a]
                hold[a] = new.any()
            step = np.abs(new - old).max()
            theta[a] = new
            if step != 0.0:
                screened = False
            if step > delta:
                delta = step
            a += 1
        if delta < tol:
            return True
    return False


def _coupling_suffix(G: np.ndarray, th: np.ndarray, active: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """out[b] = sum_{b' > b} G_b' theta_b': what later blocks add to block b.

    Blocks with active[b'] False contribute nothing and are skipped.
    """
    n = th.shape[0]
    out[n - 1] = 0.0
    for b in range(n - 2, -1, -1):
        np.copyto(out[b], out[b + 1])
        if active[b + 1]:
            out[b] += G[b + 1] @ th[b + 1]
    return out


def _gradients(problem: Stage1Problem, th: np.ndarray) -> np.ndarray:
    """Coupled gradients c_b - sum_b' G_max(b,b') theta_b' for every block."""
    n, p = problem.n, problem.p
    q = p * problem.d
    G, Cc = problem.suffix_gram, problem.suffix_cross
    grad = _coupling_suffix(G, th, np.any(th, axis=(1, 2)), np.empty((n, q, p)))
    prefix = np.zeros((q, p))
    for b in range(n):
        prefix = prefix + th[b]
        grad[b] = Cc[b] - G[b] @ prefix - grad[b]
    return grad


_REFINE_SUPPORT_CAP = 2500
# pass cap of one inner block solve in the fallback sweep
_INNER_PASSES = 1000


def _column_gradient(G: np.ndarray, Ccol: np.ndarray, bb: np.ndarray,
                     aa: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """Full gradient of one response column given a sparse coefficient set."""
    out = Ccol.copy()
    if bb.size:
        rows = np.arange(Ccol.shape[0])
        idx = np.maximum(rows[:, None], bb[None, :])
        out -= np.einsum('nkq,k->nq', G[idx, :, aa], xv)
    return out


def _active_set_refine(problem: Stage1Problem, th: np.ndarray, kappa: float,
                       max_rounds: int = 150) -> tuple[np.ndarray, bool]:
    """Active-set solve from th toward the exact minimizer, column by column.

    Response columns never couple, so each runs the classic primal scheme:
    solve the stationarity equalities on the working support (linear
    there), walk from the iterate toward that solution only as far as the
    first sign crossing, drop the crossing entry, and at a full step admit
    the worst threshold violator.  Every move descends, so the scheme
    cannot cycle.  On a rank-deficient support whose equalities are
    unattainable the objective is instead reduced along the null space
    until an entry hits zero, which restores attainability.  The working
    Gram is symmetric PSD, so one symmetric eigendecomposition per pivot
    gives the rank test, the pseudo-inverse solve and the null space
    (singular supports are common: blocks 1 and 2 share one Gram).

    Certifies when all columns end with equalities met, signs consistent
    and every zero entry inside the threshold band.  Returns (candidate,
    certified); an uncertified candidate is still a valid point the caller
    may adopt whenever it lowers the objective.
    """
    n, p = problem.n, problem.p
    G, Cc = problem.suffix_gram, problem.suffix_cross
    tol_eq = 1e-6 * kappa
    eps = np.finfo(float).eps
    # start from the strongest entries; the quadratic form per column has
    # rank at most n-1, so anything beyond that is debris at this point
    # (growth past it stays allowed: degenerate optima can carry more)
    trim_cap = min(n - 1, _REFINE_SUPPORT_CAP)

    new_th = np.zeros_like(th)
    all_ok = True
    for c in range(p):
        mag = np.abs(th[:, :, c])
        bb, aa = np.nonzero(mag)
        if bb.size > trim_cap:
            keep = np.sort(np.argsort(mag[bb, aa])[-trim_cap:])
            bb, aa = bb[keep], aa[keep]
        xv = th[bb, aa, c].copy()
        ss = np.sign(xv)
        banned = np.zeros(mag.shape, dtype=bool)
        col_ok = False
        for _ in range(max_rounds):
            if bb.size:
                A = G[np.maximum(bb[:, None], bb[None, :]), aa[:, None], aa[None, :]]
                rhs = Cc[bb, aa, c] - kappa * ss
                try:
                    w, V = np.linalg.eigh(A)
                except np.linalg.LinAlgError:
                    break
                aw = np.abs(w)
                kept = aw > aw.max() * bb.size * eps
                Vk = V[:, kept]
                z = Vk @ ((Vk.T @ rhs) / w[kept])
                null_rows = V[:, ~kept].T if not kept.all() else None
                if null_rows is not None:
                    z = z + null_rows.T @ (null_rows @ (xv - z))
                if not np.all(np.isfinite(z)):
                    break

                unmet = float(np.max(np.abs(A @ z - rhs))) > tol_eq
                if unmet and null_rows is None:
                    # full rank, so the miss is rounding on an
                    # ill-conditioned support: one step of iterative
                    # refinement with the same eigendecomposition
                    z = z + Vk @ ((Vk.T @ (rhs - A @ z)) / w[kept])
                    if not float(np.max(np.abs(A @ z - rhs))) <= tol_eq:
                        break       # still unmet (or not finite): hopeless
                    unmet = False
                if unmet:
                    # equalities unattainable on this face: the objective
                    # descends along the null space until a sign crossing
                    w = -(null_rows.T @ (null_rows @ (A @ xv - rhs)))
                    if float(np.max(np.abs(w))) <= tol_eq:
                        break
                    with np.errstate(divide='ignore', invalid='ignore'):
                        tcand = np.where(xv * w < 0.0, -xv / w, np.inf)
                    tcand = np.where((xv == 0.0) & (w * ss < 0.0), 0.0, tcand)
                    step = w
                else:
                    flips = z * ss <= 0.0
                    if not flips.any():
                        xv = z
                        grad_col = _column_gradient(G, Cc[:, :, c], bb, aa, xv)
                        over = np.abs(grad_col) > kappa + tol_eq
                        over[bb, aa] = False
                        over &= ~banned
                        if not over.any():
                            col_ok = True
                            break
                        flat = np.where(over, np.abs(grad_col), -np.inf)
                        b_, a_ = np.unravel_index(np.argmax(flat), flat.shape)
                        bb = np.append(bb, b_)
                        aa = np.append(aa, a_)
                        ss = np.append(ss, np.sign(grad_col[b_, a_]))
                        xv = np.append(xv, 0.0)
                        if bb.size > _REFINE_SUPPORT_CAP:
                            break
                        continue
                    d = z - xv
                    with np.errstate(divide='ignore', invalid='ignore'):
                        tcand = np.where(flips & (xv != 0.0), xv / (xv - z), np.inf)
                    tcand = np.where(flips & (xv == 0.0), 0.0, tcand)
                    step = d
                t_star = float(np.min(tcand))
                if not np.isfinite(t_star):
                    break
                hit = tcand <= t_star
                if t_star <= 0.0:
                    banned[bb[hit], aa[hit]] = True   # degenerate pivot
                else:
                    xv = xv + t_star * step
                keep = ~hit
                bb, aa, xv, ss = bb[keep], aa[keep], xv[keep], ss[keep]
            else:
                grad_col = _column_gradient(G, Cc[:, :, c], bb, aa, xv)
                over = (np.abs(grad_col) > kappa + tol_eq) & ~banned
                if not over.any():
                    col_ok = True
                    break
                flat = np.where(over, np.abs(grad_col), -np.inf)
                b_, a_ = np.unravel_index(np.argmax(flat), flat.shape)
                bb = np.array([b_])
                aa = np.array([a_])
                ss = np.array([np.sign(grad_col[b_, a_])])
                xv = np.array([0.0])
        new_th[bb, aa, c] = xv
        all_ok = all_ok and col_ok

    if not all_ok:
        return new_th, False
    # columns were handled independently; confirm the joint conditions once
    grad = _gradients(problem, new_th)
    nzm = new_th != 0.0
    if nzm.any() and float(np.max(np.abs(grad[nzm] - kappa * np.sign(new_th[nzm])))) > tol_eq:
        return new_th, False
    if (~nzm).any() and float(np.max(np.abs(grad[~nzm]))) > kappa + tol_eq:
        return new_th, False
    return new_th, True


def _objective(problem: Stage1Problem, th: np.ndarray, lam: float,
               active: np.ndarray) -> float:
    """(1/n) residual sum of squares plus l1 charge, via raw rows."""
    lag, tgt = problem.lagged_rows, problem.targets
    m = lag.shape[0]
    cum = th[0] + th[1]          # equation 1 already includes blocks 1 and 2
    sse = 0.0
    prev = 0
    for b in range(2, problem.n):
        if not active[b]:
            continue
        j = b - 1
        if j > prev:
            resid = tgt[prev:j] - lag[prev:j] @ cum
            sse += float(np.sum(resid * resid))
            prev = j
        cum = cum + th[b]
    resid = tgt[prev:m] - lag[prev:m] @ cum
    sse += float(np.sum(resid * resid))
    return sse / problem.n + lam * float(np.sum(np.abs(th)))


def bcd_solve(problem: Stage1Problem, lam: float, max_sweeps: int = 200,
              tol: float = 1e-3, init: ThetaEstimate | None = None) -> ThetaEstimate:
    """Active-set solve from the start point, with a block sweep as fallback.

    The start is zero, or `init` when given.  `_active_set_refine` grows
    the support from it; a certified candidate is the exact minimizer and
    ends the run with no sweep (iterations=0).  An uncertified candidate
    is adopted when it lowers the objective, and the cyclic block sweep
    continues from the adopted point.

    Each sweep visit minimizes the objective exactly in the visited block
    (inner coordinate descent at threshold n*lambda/2, the scale the
    stationarity conditions demand), so the recorded objective never
    increases.  A block whose coupled residual falls below the threshold
    keeps the exact zero without entering the inner solver.  The sweep
    settles once the largest coefficient change in a sweep drops under
    `tol`, and every few sweeps it hands its iterate to the active-set
    method again, adopting the candidate by the same rule.

    converged is True on a certificate, or when the sweep settled and no
    inner solve ran out of passes.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    n, p, d = problem.n, problem.p, problem.d
    q = p * d
    G, Cc = problem.suffix_gram, problem.suffix_cross
    kappa = n * lam / 2.0
    inner_tol = max(tol * 1e-3, 1e-14)

    th = np.zeros((n, q, p))
    if init is not None:
        if init.theta.shape != (n, p, q):
            raise ValueError("init has mismatched shape")
        th[:] = np.swapaxes(init.theta, 1, 2)
    active = np.array([bool(np.any(th[b])) for b in range(n)])
    trace = [_objective(problem, th, lam, active)]

    def refine(th, active):
        """Active-set candidate from th, adopted if certified or lower."""
        cand, certified = _active_set_refine(problem, th, kappa)
        cand_active = np.any(np.any(cand != 0.0, axis=2), axis=1)
        cand_obj = _objective(problem, cand, lam, cand_active)
        if certified or cand_obj < trace[-1]:
            trace.append(cand_obj)
            return cand, cand_active, True, certified
        return th, active, False, False

    th, active, _, converged = refine(th, active)
    sweeps = 0
    inner_ok = True
    Q = np.zeros((n, q, p))
    next_try = 2
    while not converged and sweeps < max_sweeps:
        sweeps += 1
        _coupling_suffix(G, th, active, Q)
        prefix = np.zeros((q, p))
        max_delta = 0.0
        for b in range(n):
            r = Cc[b] - G[b] @ prefix - Q[b]
            if active[b]:
                old = th[b].copy()
                inner_ok &= _lasso_gram_cd(G[b], r, kappa, th[b], inner_tol, _INNER_PASSES)
                step = float(np.max(np.abs(th[b] - old)))
            elif float(np.max(np.abs(r))) > kappa:
                inner_ok &= _lasso_gram_cd(G[b], r, kappa, th[b], inner_tol, _INNER_PASSES)
                step = float(np.max(np.abs(th[b])))
            else:
                step = 0.0       # zero block is already optimal
            active[b] = bool(np.any(th[b]))
            if active[b]:
                prefix += th[b]
            if step > max_delta:
                max_delta = step
        trace.append(_objective(problem, th, lam, active))
        settling = max_delta < tol
        if sweeps >= next_try or settling:
            th, active, improved, converged = refine(th, active)
            if converged:
                break
            next_try = sweeps + (2 if improved else 8)
            if improved:
                settling = False    # the jump moved the iterate, keep going
        if settling:
            converged = inner_ok
            break
    logger.debug("bcd_solve: %d sweeps, converged=%s, objective=%.6g",
                 sweeps, converged, trace[-1])
    return ThetaEstimate(theta=np.swapaxes(th, 1, 2), lambda_used=float(lam),
                         iterations=sweeps, converged=converged,
                         objective_trace=tuple(trace))


def kkt_check(problem: Stage1Problem, estimate: ThetaEstimate, lam: float,
              tol_kkt: float = 1e-3) -> KktReport:
    """Stationarity audit of an estimate at threshold n*lambda/2.

    Active blocks must have coupled gradient equal to the threshold times
    the coefficient sign on their nonzero entries (within tol_kkt,
    relative to the threshold); every zero entry anywhere must stay inside
    the threshold band.  inactive_max reports the worst zero-entry
    gradient, including zero entries inside otherwise-active blocks.
    """
    n = problem.n
    th = np.swapaxes(estimate.theta, 1, 2)
    kappa = n * lam / 2.0

    active_residuals: dict[int, float] = {}
    inactive_max = 0.0
    for b, grad in enumerate(_gradients(problem, th)):
        nz = th[b] != 0.0
        if nz.any():
            resid = np.abs(grad[nz] - kappa * np.sign(th[b][nz]))
            active_residuals[b + 1] = float(np.max(resid))
            if (~nz).any():
                inactive_max = max(inactive_max, float(np.max(np.abs(grad[~nz]))))
        else:
            inactive_max = max(inactive_max, float(np.max(np.abs(grad))))
    passed = all(v <= tol_kkt * kappa for v in active_residuals.values()) \
        and inactive_max <= kappa * (1.0 + tol_kkt)
    return KktReport(active_residuals=active_residuals,
                     inactive_max=inactive_max, threshold=kappa, passed=passed)


def extract_candidates(estimate: ThetaEstimate, zero_tol: float | None,
                       d: int) -> CandidateSet:
    """Read off candidate break times and cumulative segment coefficients.

    Block i >= 2 with max-norm above zero_tol becomes candidate time
    t = i + d - 1.  Default zero_tol is 1e-6 * max(1, ||theta_1||_inf).
    Segment k+1 coefficients are the cumulative sum of all increments up to
    and including the k-th candidate block.
    """
    th = estimate.theta
    n = th.shape[0]
    if zero_tol is None:
        zero_tol = 1e-6 * max(1.0, float(np.max(np.abs(th[0]))))
    mags = np.max(np.abs(th.reshape(n, -1)), axis=1)
    blocks = [b for b in range(1, n) if mags[b] > zero_tol]

    segments = [th[0].copy()]
    cum = th[0].copy()
    prev = 0
    for b in blocks:
        cum = cum + th[prev + 1:b + 1].sum(axis=0)
        segments.append(cum.copy())
        prev = b
    return CandidateSet(
        indices=tuple(b + d for b in blocks),
        m_hat=len(blocks),
        segment_coefficients=tuple(segments),
        strengths=tuple(float(mags[b]) for b in blocks),
    )
