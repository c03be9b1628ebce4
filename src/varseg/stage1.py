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
optimum is reached in a few admits and ends with a KKT certificate; a
solve that ends without one is reported as converged=False.  Residuals,
coupled gradients (admit pricing, certificate, KKT audit) and the objective
come from one raw-row kernel, `_column_residual`; the suffix Gram matrices
G_i = sum_{l>=i} Y_{l-1} Y_{l-1}' and cross-products form only the pivot
systems on the working support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Stage1Problem:
    """Precomputed sufficient statistics for the stage-1 solve.

    suffix_gram[b] and suffix_cross[b] (0-based block b, i = b + 1) hold
    sums over all equations the block participates in.  Block 0 spans the
    same equations as block 1 because the first response with a full lag
    vector is y_{d+1}, hence suffix_gram[0] == suffix_gram[1].  They form
    the pivot systems only; residuals, gradients and the objective come
    from lagged_rows and targets.  perfbench reads both suffix arrays by
    these names to report their size.
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
    """Assemble suffix Grams and cross-products for the stage-1 solve.

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


def _column_residual(problem: Stage1Problem, c: int, bb: np.ndarray,
                     aa: np.ndarray, xv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and coupled gradient of response column c, from raw rows.

    Entry k adds xv[k] to lag coefficient aa[k] from block bb[k]'s first
    equation on, row max(bb[k] - 1, 0), so the residual is
    targets[:, c] - U @ xv with U[:, k] = lagged_rows[:, aa[k]] zeroed
    above that row.  Block b's gradient sums x_l r_l over its rows
    l >= max(b - 1, 0): a reverse cumulative sum, with block 0 repeating
    block 1's row.  Returns r (n-1,) and the gradient (n, p*d); the work
    is O(n * (p*d + k)) for k entries.
    """
    lag = problem.lagged_rows
    rows = np.arange(lag.shape[0])[:, None]
    r = problem.targets[:, c] - (lag[:, aa] * (rows >= bb - 1)) @ xv
    grad = np.empty((problem.n, lag.shape[1]))
    np.multiply(lag, r[:, None], out=grad[1:])
    np.cumsum(grad[:0:-1], axis=0, out=grad[:0:-1])   # in place, from the end
    grad[0] = grad[1]
    return r, grad


def _column_fits(problem: Stage1Problem, th: np.ndarray):
    """`_column_residual` of every response column of th (n, p*d, p)."""
    for c in range(problem.p):
        bb, aa = np.nonzero(th[:, :, c])
        yield _column_residual(problem, c, bb, aa, th[bb, aa, c])


def _gradients(problem: Stage1Problem, th: np.ndarray) -> np.ndarray:
    """Coupled gradients c_b - sum_b' G_max(b,b') theta_b' for every block."""
    grad = np.empty(th.shape)
    for c, (_, col_grad) in enumerate(_column_fits(problem, th)):
        grad[:, :, c] = col_grad
    return grad


_REFINE_SUPPORT_CAP = 2500


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
    p = problem.p
    G, Cc = problem.suffix_gram, problem.suffix_cross
    tol_eq = 1e-6 * kappa
    eps = np.finfo(float).eps

    new_th = np.zeros_like(th)
    all_ok = True
    for c in range(p):
        bb, aa = np.nonzero(th[:, :, c])
        xv = th[bb, aa, c].copy()
        ss = np.sign(xv)
        banned = np.zeros(th.shape[:2], dtype=bool)
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
                flips = z * ss <= 0.0
                if unmet or flips.any():
                    if unmet:
                        # equalities unattainable on this face: the
                        # objective descends along the null space until a
                        # sign crossing
                        step = -(null_rows.T @ (null_rows @ (A @ xv - rhs)))
                        if float(np.max(np.abs(step))) <= tol_eq:
                            break
                        with np.errstate(divide='ignore', invalid='ignore'):
                            tcand = np.where(xv * step < 0.0, -xv / step, np.inf)
                        tcand = np.where((xv == 0.0) & (step * ss < 0.0), 0.0, tcand)
                    else:
                        # walk toward z only as far as the first sign crossing
                        step = z - xv
                        with np.errstate(divide='ignore', invalid='ignore'):
                            tcand = np.where(flips & (xv != 0.0), xv / (xv - z), np.inf)
                        tcand = np.where(flips & (xv == 0.0), 0.0, tcand)
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
                    continue
                xv = z
            # full step, or an empty support: certify the column or admit
            # its worst threshold violator
            grad_col = _column_residual(problem, c, bb, aa, xv)[1]
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
        new_th[bb, aa, c] = xv
        all_ok = all_ok and col_ok

    if not all_ok:
        return new_th, False
    # confirm each column once on its final support: the equalities through
    # the gradient rather than the pivot system, and every zero in the band
    for c, (_, grad) in enumerate(_column_fits(problem, new_th)):
        col = new_th[:, :, c]
        on = col != 0.0
        if (np.any(np.abs(grad[on] - kappa * np.sign(col[on])) > tol_eq)
                or np.any(np.abs(grad[~on]) > kappa + tol_eq)):
            return new_th, False
    return new_th, True


def _objective(problem: Stage1Problem, th: np.ndarray, lam: float) -> float:
    """(1/n) residual sum of squares plus l1 charge."""
    sse = sum(float(r @ r) for r, _ in _column_fits(problem, th))
    return sse / problem.n + lam * float(np.sum(np.abs(th)))


def bcd_solve(problem: Stage1Problem, lam: float) -> ThetaEstimate:
    """Stage-1 solve: the active-set method from zero.

    `_active_set_refine` grows each response column's support from zero;
    a certified candidate is the exact minimizer.  The candidate is
    adopted when it is certified or when its objective is below zero's,
    and zero is returned otherwise.  converged is the certificate, so an
    uncertified solve reports converged=False (and `--strict` exits 3).
    Besides a numerical breakdown on one pivot or a support past
    `_REFINE_SUPPORT_CAP`, the round cap of `_active_set_refine` (150 per
    column) is what ends a solve uncertified; the busiest column measured,
    on scenario 3 at T=10000, used 44 rounds.

    perfbench times this function by its name and reads the estimate's
    fields, as result.json does, so both keep their names: iterations is
    always 0, and objective_trace holds two entries, the objective at zero
    and at the returned theta.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    n, p, d = problem.n, problem.p, problem.d
    th = np.zeros((n, p * d, p))
    start = _objective(problem, th, lam)
    cand, converged = _active_set_refine(problem, th, n * lam / 2.0)
    obj = _objective(problem, cand, lam)
    if converged or obj < start:
        th = cand
    else:
        obj = start
    return ThetaEstimate(theta=np.swapaxes(th, 1, 2), lambda_used=float(lam),
                         iterations=0, converged=converged,
                         objective_trace=(start, obj))


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
