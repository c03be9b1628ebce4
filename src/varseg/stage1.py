"""First-stage estimator: every equation gets its own coefficient increment.

The regression stacks one equation per usable response row, T - d of them,
and one p x (p*d) coefficient block per equation.  Block 0 is the base
coefficient; block b >= 1 is the increment that first affects equation b
(0-based), the response at time t = b + d + 1, so nonzero increments mark
candidate breaks.  The paper's n = T - d + 1 blocks put two over the first
equation, one variable twice; they are one block here.  n stays the
sample size:

Objective: (1/n) ||Y - Z Theta||_F^2 + lambda * sum_b ||theta_b||_1.

The solve is a primal active-set method (Osborne, Presnell & Turlach, IMA
J. Numer. Anal. 2000), run one response column at a time from zero: it
admits the worst threshold violator, solves the stationarity equalities on
the working support, and drops an entry whose sign would cross.  A sparse
optimum is reached in a few admits and ends with a KKT certificate; a
solve that ends without one is reported as converged=False.  Residuals and
coupled gradients come from one raw-row kernel, `_column_residual`.  The
pricing round that finds no violator also certifies the column and gives
its residual for the objective, so each support is priced once; the KKT
audit `kkt_check` runs the kernel afresh.  The suffix Gram matrices
G_b = sum_{l>=b} x_l x_l' over lag rows x_l, and the cross-products, form
only the pivot systems on the working support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Stage1Problem:
    """Precomputed sufficient statistics for the stage-1 solve.

    n = T - d + 1 is the sample size in the objective and the threshold
    n*lambda/2; there are n - 1 equations and one coefficient block per
    equation.  suffix_gram[b] and suffix_cross[b] (0-based block b) hold
    sums over equations b..n-2, the ones block b affects, so block 0, the
    base, spans all of them.  They form the pivot systems only; residuals,
    gradients and the objective come from lagged_rows and targets.
    perfbench reads both suffix arrays by these names to report their size.
    """

    n: int
    p: int
    d: int
    suffix_gram: np.ndarray    # (n-1, p*d, p*d)
    suffix_cross: np.ndarray   # (n-1, p*d, p)
    lagged_rows: np.ndarray    # (n-1, p*d), row b is equation b
    targets: np.ndarray        # (n-1, p)


@dataclass(frozen=True, eq=False)
class ThetaEstimate:
    theta: np.ndarray          # (n-1, p, p*d), base then one increment per equation
    lambda_used: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]


@dataclass(frozen=True)
class KktReport:
    """Stationarity audit of a stage-1 estimate at threshold n*lambda/2.

    active_residuals maps the 1-based index of each block with a nonzero
    entry, counted over theta's first axis (1 is the base, b + 1 the
    increment at time t = b + d + 1), to its worst equality residual.
    """

    active_residuals: dict[int, float]
    inactive_max: float
    threshold: float
    passed: bool


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Stage-1 output: candidate break times and implied segment coefficients.

    indices are on the original time axis (block b >= 1 maps to t = b + d + 1);
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
    so peak memory is one copy of them: (T-d) * (p*d) * (p*d + p) floats,
    plus the lagged design.
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
    sg = np.empty((n - 1, q, q))
    sc = np.empty((n - 1, q, p))
    # block b starts at equation b: sum the outer products from the last
    # equation back
    np.multiply(lag[:, :, None], lag[:, None, :], out=sg)
    np.multiply(lag[:, :, None], tgt[:, None, :], out=sc)
    for b in reversed(range(n - 2)):
        sg[b] += sg[b + 1]
        sc[b] += sc[b + 1]
    return Stage1Problem(n=n, p=p, d=d, suffix_gram=sg, suffix_cross=sc,
                         lagged_rows=lag, targets=tgt)


def _column_residual(problem: Stage1Problem, c: int, bb: np.ndarray,
                     aa: np.ndarray, xv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and coupled gradient of response column c, from raw rows.

    Entry k adds xv[k] to lag coefficient aa[k] from equation bb[k] on, so
    the residual is targets[:, c] - U @ xv with U[:, k] =
    lagged_rows[:, aa[k]] zeroed above row bb[k].  Block b's gradient sums
    x_l r_l over its rows l >= b: a reverse cumulative sum.  Returns r
    (n-1,) and the gradient (n-1, p*d); the work is O(n * (p*d + k)) for
    k entries.
    """
    lag = problem.lagged_rows
    rows = np.arange(lag.shape[0])[:, None]
    r = problem.targets[:, c] - (lag[:, aa] * (rows >= bb)) @ xv
    grad = np.multiply(lag, r[:, None])
    np.cumsum(grad[::-1], axis=0, out=grad[::-1])   # in place, from the end
    return r, grad


def _gradients(problem: Stage1Problem, th: np.ndarray) -> np.ndarray:
    """Coupled gradients c_b - sum_b' G_max(b,b') theta_b' for every block."""
    grad = np.empty(th.shape)
    for c in range(problem.p):
        bb, aa = np.nonzero(th[:, :, c])
        grad[:, :, c] = _column_residual(problem, c, bb, aa, th[bb, aa, c])[1]
    return grad


_MAX_ROUNDS = 150
_REFINE_SUPPORT_CAP = 2500


def bcd_solve(problem: Stage1Problem, lam: float) -> ThetaEstimate:
    """Stage-1 solve: the active-set method from zero, column by column.

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
    (a support turns singular as its entries approach the equation count:
    30 of 34, 33 of 35 and 40 of 40 on the oracle gate's instances).

    A column is certified by the pricing round that finds no violator,
    from that round's gradient: the equalities met on the support and
    every other entry, banned ones included, inside the threshold band.
    That round's residual gives the column's sum of squares; a column that
    leaves by another exit runs the kernel once more for it.  Those exits
    leave the solve uncertified: a numerical breakdown on one pivot, a
    support past `_REFINE_SUPPORT_CAP`, or `_MAX_ROUNDS` rounds (read at
    call time); the busiest column measured, on scenario 3 at T=10000,
    used 44 rounds.  The candidate is adopted when it is certified or when
    its objective is below zero's, and zero is returned otherwise.
    converged is the certificate, so an uncertified solve reports
    converged=False (and `--strict` exits 3).

    perfbench times this function by its name and reads the estimate's
    fields, as result.json does, so both keep their names: iterations is
    always 0, and objective_trace holds two entries, the objective at zero
    (the targets' sum of squares over n) and at the returned theta (the
    solve's own residual sum of squares over n plus the l1 charge), so
    neither takes another pass over the rows.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    n, p, q = problem.n, problem.p, problem.p * problem.d
    G, Cc = problem.suffix_gram, problem.suffix_cross
    kappa = n * lam / 2.0
    tol_eq = 1e-6 * kappa
    eps = np.finfo(float).eps
    # contiguous columns, as the kernel's residuals are: a strided dot sums
    # in another order, and a zero candidate must not beat zero by an ulp
    start = sum(float(t @ t) for t in np.ascontiguousarray(problem.targets.T)) / n

    th = np.zeros((n - 1, q, p))
    converged = True
    sse = l1 = 0.0
    for c in range(p):
        bb = aa = np.empty(0, dtype=np.intp)
        xv = ss = np.empty(0)
        banned = np.zeros((n - 1, q), dtype=bool)
        r = None
        for _ in range(_MAX_ROUNDS):
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
            r, grad_col = _column_residual(problem, c, bb, aa, xv)
            outside = np.abs(grad_col) > kappa + tol_eq
            outside[bb, aa] = False
            over = outside & ~banned
            if not over.any():
                # no admit left: certified if the equalities hold and no
                # banned entry sits outside the band either
                converged = converged and not outside.any() and not np.any(
                    np.abs(grad_col[bb, aa] - kappa * ss) > tol_eq)
                break
            r = None
            flat = np.where(over, np.abs(grad_col), -np.inf)
            b_, a_ = np.unravel_index(np.argmax(flat), flat.shape)
            bb = np.append(bb, b_)
            aa = np.append(aa, a_)
            ss = np.append(ss, np.sign(grad_col[b_, a_]))
            xv = np.append(xv, 0.0)
            if bb.size > _REFINE_SUPPORT_CAP:
                break
        if r is None:
            # left by another exit: this support was never priced
            converged = False
            r = _column_residual(problem, c, bb, aa, xv)[0]
        th[bb, aa, c] = xv
        sse += float(r @ r)
        l1 += float(np.sum(np.abs(xv)))
    obj = sse / n + lam * l1
    if not (converged or obj < start):
        th.fill(0.0)
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

    Increment block b >= 1 (0-based) with max-norm above zero_tol becomes
    candidate time t = b + d + 1, the time of equation b's response.
    Default zero_tol is 1e-6 * max(1, ||theta_0||_inf), theta_0 the base.
    Segment k+1 coefficients are the cumulative sum of all increments up to
    and including the k-th candidate block.
    """
    th = estimate.theta
    n = th.shape[0]
    if zero_tol is None:
        zero_tol = 1e-6 * max(1.0, float(np.max(np.abs(th[0]))))
    # max-norm per block without a dense |theta| copy
    mags = np.maximum(th.max(axis=(1, 2)), -th.min(axis=(1, 2)))
    blocks = [b for b in range(1, n) if mags[b] > zero_tol]

    segments = [th[0].copy()]
    cum = th[0].copy()
    prev = 0
    for b in blocks:
        cum = cum + th[prev + 1:b + 1].sum(axis=0)
        segments.append(cum.copy())
        prev = b
    return CandidateSet(
        indices=tuple(b + d + 1 for b in blocks),
        m_hat=len(blocks),
        segment_coefficients=tuple(segments),
        strengths=tuple(float(mags[b]) for b in blocks),
    )
