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
J. Numer. Anal. 2000), run one response column at a time from zero
(`_solve_column`, which stage 2's segment fits run too, on a segment's
rows with only the base block): it admits the worst threshold violator,
solves the stationarity equalities on the working support, and drops an
entry whose sign would cross.  A sparse optimum is reached in a few
admits and ends with a KKT certificate; a solve that ends without one is
reported as converged=False.  Residuals and coupled gradients come from
one raw-row kernel, `_column_residual`.  The pricing round that finds no
violator also certifies the column and gives its residual for the
objective, so each support is priced once; the KKT audit `kkt_check` runs
the kernel afresh.  The kernel's reverse cumulative sum adds two columns
per step, on a complex128 view, to the bits of a one-column scan.  Each
working support keeps its masked raw-row columns U and the pivot
system's A = U'U and U'y beside them, updated by one row
and column per admit (as LARS keeps its active Gram: Efron, Hastie,
Johnstone & Tibshirani, Ann. Statist. 2004), so the solve holds
O(n * (p*d + k)) bytes for k working entries, never the O(n * (p*d)^2)
suffix sums.  The estimate is sparse by design and is
returned as its nonzero entries, never as a dense array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class Stage1Problem:
    """The stage-1 regression: lag rows and responses, one row per equation.

    n = T - d + 1 is the sample size in the objective and the threshold
    n*lambda/2; there are n - 1 equations and one coefficient block per
    equation, and block b (0-based) affects equations b..n-2, so block 0,
    the base, spans all of them.  Residuals, gradients, the objective and
    the pivot systems all come from lagged_rows and targets.

    suffix_gram[b] = sum_{l>=b} x_l x_l' and suffix_cross[b] = sum_{l>=b}
    x_l y_l' over lag rows x_l are built on first access, and nothing in
    the package reads them: they are (n-1) * p*d * (p*d + p) floats, and
    perfbench reports their size by these names.
    """

    n: int
    p: int
    d: int
    lagged_rows: np.ndarray    # (n-1, p*d), row b is equation b
    targets: np.ndarray        # (n-1, p)

    @cached_property
    def suffix_gram(self) -> np.ndarray:     # (n-1, p*d, p*d)
        lag = self.lagged_rows
        return _suffix_sums(lag[:, :, None] * lag[:, None, :])

    @cached_property
    def suffix_cross(self) -> np.ndarray:    # (n-1, p*d, p)
        return _suffix_sums(self.lagged_rows[:, :, None] * self.targets[:, None, :])


def _suffix_sums(terms: np.ndarray) -> np.ndarray:
    """Sum terms[b:] into terms[b] for every b, in place from the end."""
    for b in reversed(range(terms.shape[0] - 1)):
        terms[b] += terms[b + 1]
    return terms


@dataclass(frozen=True, eq=False)
class ThetaEstimate:
    """Stage-1 estimate as its nonzero entries, response column by column.

    support[c] = (blocks, coords, values): entry k adds values[k] to column
    c's lag coefficient coords[k] from block blocks[k] on.  Entries are
    sorted by (block, coordinate), and every value is nonzero.
    """

    support: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]


@dataclass(frozen=True)
class KktReport:
    """Stationarity audit of a stage-1 estimate at threshold n*lambda/2.

    active_residuals maps the 0-based index of each block with a nonzero
    entry (0 is the base, b >= 1 the increment at time t = b + d + 1), in
    increasing order, to its worst equality residual.
    """

    active_residuals: dict[int, float]
    inactive_max: float
    threshold: float
    passed: bool


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Stage-1 output: candidate break times and their strengths.

    indices are on the original time axis (block b >= 1 maps to t = b + d + 1);
    strengths[k] is the max-norm of the increment behind indices[k].
    """

    indices: tuple[int, ...]
    strengths: tuple[float, ...]

    @property
    def m_hat(self) -> int:     # the candidate count, read from indices
        return len(self.indices)


def _lagged_design(data: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack lag vectors (y_{r-1}', ..., y_{r-d}')' for response rows r = d..T-1."""
    T, p = data.shape
    m = T - d
    lag = np.empty((m, p * d))
    for k in range(d):
        lag[:, k * p:(k + 1) * p] = data[d - 1 - k:T - 1 - k]
    return lag, data[d:]


def build_stage1(data: np.ndarray, d: int) -> Stage1Problem:
    """Check the data and stack its lag rows and responses for stage 1.

    The problem holds the lagged design, (T-d) * p*d floats, and a view of
    the responses; the solve adds work arrays of one response column's
    size.
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
    return Stage1Problem(n=T - d + 1, p=p, d=d, lagged_rows=lag, targets=tgt)


def _masked_columns(lag: np.ndarray, bb: np.ndarray, aa: np.ndarray) -> np.ndarray:
    """U[:, k] = lag[:, aa[k]] zeroed above row bb[k]: entry k's raw-row column."""
    return lag[:, aa] * (np.arange(lag.shape[0])[:, None] >= bb)


def _column_residual(lag: np.ndarray, y: np.ndarray, U: np.ndarray,
                     xv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and coupled gradient of one response column, from raw rows.

    lag holds the lag rows and y the column's responses, one per row.
    Entry k adds xv[k] to a lag coefficient from some row on, and U[:, k]
    is its masked raw-row column (`_masked_columns`), so the residual is
    y - U @ xv.  Block b's gradient sums x_l r_l over its rows l >= b: a
    reverse cumulative sum.  The scan runs on column pairs: x_l r_l fills
    a C-ordered (rows, p*d rounded up to even) buffer, zero in the pad
    column, whose complex128 view adds two columns per step.  A complex add
    is two float adds, so every column is summed in the same order and to
    the same bits as a float64 scan of it alone.  Returns r (rows,) and
    the gradient (rows, p*d), a view of the buffer; the work is
    O(rows * (p*d + k)) for k entries.
    """
    r = y - U @ xv
    rows, q = lag.shape
    buf = np.empty((rows, q + q % 2))
    buf[:, q:] = 0.0
    np.multiply(lag, r[:, None], out=buf[:, :q])
    pairs = buf.view(np.complex128)
    np.cumsum(pairs[::-1], axis=0, out=pairs[::-1])   # in place, from the end
    return r, buf[:, :q]


class _WorkingSupport:
    """One response column's working support and its pivot system.

    Entry k adds a coefficient to lag coordinate aa[k] from row bb[k] on,
    and entered with the gradient sign ss[k].  U[:, k] is its masked
    raw-row column (`_masked_columns`), held in a buffer that doubles when
    full.  The pivot system on the support is A = U'U with right-hand side
    U'y - kappa * ss (`rhs`), and A and U'y are updated rather than
    rebuilt: an admit adds one column of U, one row and column of A and
    one entry of U'y, each a sum over the rows the entry affects, in
    O(rows * k); a drop deletes them.
    """

    def __init__(self, lag: np.ndarray, y: np.ndarray):
        self.lag, self.y = lag, y
        self.bb = self.aa = np.empty(0, dtype=np.intp)
        self.ss = self.uy = np.empty(0)
        self.A = np.empty((0, 0))
        self._cols = np.empty((self.lag.shape[0], 8))
        # entries a degenerate pivot dropped: never admitted again
        self.ban_b = self.ban_a = np.empty(0, dtype=np.intp)

    @property
    def U(self) -> np.ndarray:
        return self._cols[:, :self.bb.size]

    def rhs(self, kappa: float) -> np.ndarray:
        return self.uy - kappa * self.ss

    def admit(self, b: int, a: int, sign: float) -> None:
        k = self.bb.size
        if k == self._cols.shape[1]:
            self._cols = np.hstack((self._cols, np.empty_like(self._cols)))
        col = np.ascontiguousarray(self.lag[b:, a])
        self._cols[:b, k] = 0.0
        self._cols[b:, k] = col
        A = np.empty((k + 1, k + 1))
        A[:k, :k] = self.A
        A[k, :k] = A[:k, k] = self._cols[b:, :k].T @ col
        A[k, k] = col @ col
        self.A, self.uy = A, np.append(self.uy, col @ self.y[b:])
        self.bb, self.aa = np.append(self.bb, b), np.append(self.aa, a)
        self.ss = np.append(self.ss, sign)

    def keep(self, mask: np.ndarray) -> None:
        self._cols[:, :int(mask.sum())] = self.U[:, mask]
        self.A, self.uy = self.A[np.ix_(mask, mask)], self.uy[mask]
        self.bb, self.aa, self.ss = self.bb[mask], self.aa[mask], self.ss[mask]


_MAX_ROUNDS = 150
_EQ_TOL = 1e-6      # equality and band tolerance, relative to the threshold


def _pivot(A: np.ndarray, rhs: np.ndarray, xv: np.ndarray, ss: np.ndarray,
           tol_eq: float) -> tuple[np.ndarray, np.ndarray | None, bool] | None:
    """One pivot of the primal active-set method on a working support.

    A z = rhs are the support's stationarity equalities (A symmetric PSD),
    xv the iterate and ss the signs its entries entered with.  One
    eigendecomposition gives the rank test, the pseudo-inverse solve and
    the null space.  The pivot walks toward z only as far as the first
    sign crossing or, when a rank-deficient support cannot meet the
    equalities, descends along the null space until an entry hits zero;
    every move descends, so the method cannot cycle.  Returns (z, None,
    False) for a full step; (x, hit, ban) for a drop, x the iterate after
    the walk without the entries in hit, ban True for a zero-length walk,
    whose entries must never be admitted again; or None on a breakdown.
    """
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError:
        return None
    aw = np.abs(w)
    kept = aw > aw.max() * xv.size * np.finfo(float).eps
    Vk = V[:, kept]
    z = Vk @ ((Vk.T @ rhs) / w[kept])
    null_rows = V[:, ~kept].T if not kept.all() else None
    if null_rows is not None:
        z = z + null_rows.T @ (null_rows @ (xv - z))
    if not np.all(np.isfinite(z)):
        return None

    unmet = float(np.max(np.abs(A @ z - rhs))) > tol_eq
    if unmet and null_rows is None:
        # full rank, so the miss is rounding on an ill-conditioned support:
        # one step of iterative refinement with the same eigendecomposition
        z = z + Vk @ ((Vk.T @ (rhs - A @ z)) / w[kept])
        if not float(np.max(np.abs(A @ z - rhs))) <= tol_eq:
            return None     # still unmet (or not finite): hopeless
        unmet = False
    flips = z * ss <= 0.0
    if not (unmet or flips.any()):
        return z, None, False
    if unmet:
        # equalities unattainable on this face: the objective descends
        # along the null space until a sign crossing
        step = -(null_rows.T @ (null_rows @ (A @ xv - rhs)))
        if float(np.max(np.abs(step))) <= tol_eq:
            return None
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
        return None
    hit = tcand <= t_star
    if t_star <= 0.0:     # degenerate pivot
        return xv[~hit], hit, True
    return (xv + t_star * step)[~hit], hit, False


def _solve_column(lag: np.ndarray, y: np.ndarray, kappa: float, band: float,
                  blocks: int) -> tuple:
    """One response column's lasso by the primal active-set method from zero.

    Entry (b, a) adds a coefficient to lag coordinate a from row b on; only
    blocks b < `blocks` may enter.  Each round pivots on the working support
    (`_pivot` on the system `_WorkingSupport` keeps, equalities within
    `_EQ_TOL` kappa) and, at a full step, prices every entry by the raw-row
    kernel and admits the worst one outside kappa + band; an entry a
    degenerate pivot dropped never enters again.  The round that admits
    nothing certifies the column if the support's equalities hold within
    band and no banned entry lies outside it.  A pivot breakdown or
    `_MAX_ROUNDS` rounds (read at call time) leave it uncertified; a round
    admits at most one entry.  Returns (bb, aa, xv, r, certified): the
    working entries, their values, the residual y - U xv and the
    certificate.
    """
    q = lag.shape[1]
    work = _WorkingSupport(lag, y)
    xv = np.empty(0)
    r = None
    certified = False
    price = np.empty((blocks, q))   # |gradient| off the working support, per round
    for _ in range(_MAX_ROUNDS):
        if xv.size:
            moved = _pivot(work.A, work.rhs(kappa), xv, work.ss, _EQ_TOL * kappa)
            if moved is None:
                break
            xv, hit, ban = moved
            if hit is not None:
                if ban:
                    work.ban_b = np.append(work.ban_b, work.bb[hit])
                    work.ban_a = np.append(work.ban_a, work.aa[hit])
                work.keep(~hit)
                continue
        # full step, or an empty support: certify the column or admit its
        # worst threshold violator
        r, grad = _column_residual(lag, y, work.U, xv)
        np.abs(grad[:blocks], out=price)
        price[work.bb, work.aa] = -1.0
        banned_out = False
        if work.ban_b.size:
            banned_out = bool(np.any(price[work.ban_b, work.ban_a] > kappa + band))
            price[work.ban_b, work.ban_a] = -1.0
        b_, a_ = divmod(int(np.argmax(price)), q)
        if not price[b_, a_] > kappa + band:
            certified = not banned_out and not np.any(
                np.abs(grad[work.bb, work.aa] - kappa * work.ss) > band)
            break
        r = None
        work.admit(b_, a_, np.sign(grad[b_, a_]))
        xv = np.append(xv, 0.0)
    if r is None:
        # left by another exit: this support was never priced
        r = _column_residual(lag, y, work.U, xv)[0]
    return work.bb, work.aa, xv, r, certified


def bcd_solve(problem: Stage1Problem, lam: float) -> ThetaEstimate:
    """Stage-1 solve: the active-set method from zero, column by column.

    Response columns never couple, so each runs `_solve_column` over all
    n - 1 blocks with band `_EQ_TOL` kappa, and its residual gives the
    column's sum of squares.  (A support turns singular as its entries
    approach the equation count: 30 of 34, 33 of 35 and 40 of 40 on the
    oracle gate's instances; the busiest column, on its instance 48, used
    104 rounds.)  The candidate is adopted when it is certified or when its
    objective is below zero's, and zero is returned otherwise.  converged
    is the certificate, so an uncertified solve reports converged=False
    (and `--strict` exits 3).

    perfbench times this function by its name and reads the estimate's
    fields, so they keep their names: iterations is always 0, and
    objective_trace holds two entries, the objective at zero (the targets'
    sum of squares over n) and at the returned estimate (the solve's own
    residual sum of squares over n plus the l1 charge), so neither takes
    another pass over the rows.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    n, lag = problem.n, problem.lagged_rows
    kappa = n * lam / 2.0
    # contiguous columns, as the kernel's residuals are: a strided dot sums
    # in another order, and a zero candidate must not beat zero by an ulp
    start = sum(float(t @ t) for t in np.ascontiguousarray(problem.targets.T)) / n

    support = []
    converged = True
    sse = l1 = 0.0
    for c in range(problem.p):
        bb, aa, xv, r, certified = _solve_column(lag, problem.targets[:, c], kappa,
                                                 _EQ_TOL * kappa, n - 1)
        converged = converged and certified
        nz = xv != 0.0
        order = np.lexsort((aa[nz], bb[nz]))
        support.append((bb[nz][order], aa[nz][order], xv[nz][order]))
        sse += float(r @ r)
        l1 += float(np.sum(np.abs(xv)))
    obj = sse / n + lam * l1
    if not (converged or obj < start):
        support = [tuple(a[:0] for a in column) for column in support]
        obj = start
    return ThetaEstimate(support=tuple(support), iterations=0,
                         converged=converged, objective_trace=(start, obj))


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
    kappa = n * lam / 2.0

    active = np.zeros(n - 1, dtype=bool)
    worst = np.full(n - 1, -np.inf)     # per block, over its nonzero entries
    inactive_max = 0.0
    for c, (bb, aa, xv) in enumerate(estimate.support):
        U = _masked_columns(problem.lagged_rows, bb, aa)
        grad = _column_residual(problem.lagged_rows, problem.targets[:, c], U, xv)[1]
        active[bb] = True
        np.maximum.at(worst, bb, np.abs(grad[bb, aa] - kappa * np.sign(xv)))
        grad[bb, aa] = 0.0
        inactive_max = max(inactive_max, float(np.max(np.abs(grad))))
    active_residuals = {int(b): float(worst[b]) for b in np.flatnonzero(active)}
    passed = all(v <= tol_kkt * kappa for v in active_residuals.values()) \
        and inactive_max <= kappa * (1.0 + tol_kkt)
    return KktReport(active_residuals=active_residuals,
                     inactive_max=inactive_max, threshold=kappa, passed=passed)


def extract_candidates(estimate: ThetaEstimate, d: int) -> CandidateSet:
    """Read off candidate break times and their strengths, in O(support).

    Increment block b >= 1 (0-based) with a nonzero entry becomes candidate
    time t = b + d + 1, the time of equation b's response, and its strength
    is the block's max-norm.  The support lists nonzero entries only, so no
    threshold is needed; an entry of -0.0 has max-norm 0 and makes no
    candidate.
    """
    bb = np.concatenate([blocks for blocks, _, _ in estimate.support])
    mag = np.abs(np.concatenate([values for _, _, values in estimate.support]))
    order = np.argsort(bb, kind="stable")
    blocks, first = np.unique(bb[order], return_index=True)
    mags = np.maximum.reduceat(mag[order], first)
    keep = (blocks >= 1) & (mags > 0.0)
    return CandidateSet(
        indices=tuple(int(b) + d + 1 for b in blocks[keep]),
        strengths=tuple(float(m) for m in mags[keep]),
    )
