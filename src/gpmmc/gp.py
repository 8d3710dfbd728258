"""Local Gaussian-process surrogates over a growing store of exact
model evaluations.

The surrogate never fits one global model. Each query point gets its own
small kriging model built from the stored evaluations most correlated with
it: a quadratic trend fitted by least squares (a column-pivoted QR, whose
diagonal also decides when to fall back to a lower degree) plus a zero-mean
GP on the residuals with an anisotropic exponential kernel

    K(x, x') = a * exp(-sum_i |x_i - x'_i|^p / l_i),    p in {1, 2}.

Neighbours are ranked by that exponent, the kernel's own distance, so a
coordinate with a long lengthscale counts for as little in the choice of
support as it does in the correlations.

Lengthscales are calibrated once from the initial design by a coordinate-wise
grid search on the profile marginal likelihood of the trend residuals,
divided by their largest magnitude so the search does not depend on the
scale of y, and then frozen; the amplitude a is recalibrated in closed form
for every local model, so the predictive variance tracks the local residual
scale as the store grows. The lengthscales and the exponent are checked
once, when a SurrogateKernel is built; the per-query functions here take
them as given.

The support size follows a square-root rule between the number of quadratic
basis terms and the cost of the dense solve:

    n(d) = ceil(sqrt(d) * (d + 1) * (d + 2) / 2)

which gives 9 points in 2 dimensions, 47 in 5, and 209 in 10.

The per-query algebra calls LAPACK directly through scipy.linalg.lapack
(dgeqp3, dormqr and dtrtrs for the trend; dpotrf and dpotrs for the
correlation matrix): on supports this small, the argument checks of the
numpy.linalg and scipy.linalg wrappers cost more than the factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgeqp3, dormqr, dpotrf, dpotrs, dtrtrs
from scipy.spatial.distance import cdist

from .errors import SurrogateError

__all__ = [
    "EvaluationStore", "QuadraticMean", "LocalGP", "local_size",
    "fit_quadratic_mean", "calibrate_lengthscales", "build_local_surrogate",
]

DUPLICATE_TOL = 1e-12
# Rows an EvaluationStore allocates up front; it doubles when full.
STORE_CAPACITY = 256
AMPLITUDE_FLOOR = 1e-12
JITTER_START = 1e-10
JITTER_MAX = 1e-4
# Lengthscale calibration: grid points per coordinate, grid span in units of
# the coordinate's data standard deviation, and full coordinate sweeps.
CALIBRATION_GRID = 13
CALIBRATION_SPAN = (0.01, 100.0)
CALIBRATION_SWEEPS = 2

_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def local_size(d: int) -> int:
    """Support size n(d); see the module docstring."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return math.ceil(math.sqrt(d) * (d + 1) * (d + 2) / 2)


def _check_exponent(p: int) -> None:
    """ValueError unless the kernel exponent p is 1 or 2."""
    if p not in (1, 2):
        raise ValueError(f"kernel exponent must be 1 or 2, got {p}")


def _check_kernel(lengths, p: int) -> np.ndarray:
    """The lengthscales as a 1-D float array, after checking that they are
    positive and finite and that the exponent p is 1 or 2; ValueError
    otherwise."""
    lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
    if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
        raise ValueError("kernel lengthscales must be positive and finite")
    _check_exponent(p)
    return lengths


def _scaled(X: np.ndarray, lengths: np.ndarray, p: int) -> np.ndarray:
    # |x - x'|^p / l == |x/l^(1/p) - x'/l^(1/p)|^p, so fold the lengthscales
    # into the coordinates and use plain distance kernels afterwards.
    if p == 1:
        return X / lengths
    return X / np.sqrt(lengths)


def _metric(p: int) -> str:
    return "cityblock" if p == 1 else "sqeuclidean"


def _corr_matrix(X: np.ndarray, lengths: np.ndarray, p: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Unit-amplitude correlation matrix of the rows of X; written into out
    (C-contiguous, n x n) when given."""
    Xs = _scaled(X, lengths, p)
    D = cdist(Xs, Xs, _metric(p), out=out)
    np.negative(D, out=D)
    return np.exp(D, out=D)


def _kernel_distance(X: np.ndarray, x: np.ndarray, lengths: np.ndarray,
                     p: int) -> np.ndarray:
    """sum_i |X_i - x_i|^p / l_i for every row of X: the correlation is
    exp of minus this."""
    xs = _scaled(x[None, :], lengths, p)
    return cdist(_scaled(X, lengths, p), xs, _metric(p))[:, 0]


class EvaluationStore:
    """Append-only set of exact evaluations (x, y) with duplicate suppression
    and nearest-neighbor queries in the kernel's metric.

    Points closer than 1e-12 (Euclidean) to a stored point are considered
    duplicates and silently skipped on insert, so the correlation matrices
    built from any subset never contain an exactly repeated row.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._x = np.empty((STORE_CAPACITY, dimension))
        self._y = np.empty(STORE_CAPACITY)
        self._n = 0

    @property
    def size(self) -> int:
        return self._n

    @property
    def points(self) -> np.ndarray:
        """(size, d) view of stored points; do not mutate."""
        return self._x[:self._n]

    @property
    def values(self) -> np.ndarray:
        return self._y[:self._n]

    def _grow(self):
        """Double the capacity; called only when the store is full."""
        self._x = np.concatenate([self._x, np.empty_like(self._x)])
        self._y = np.concatenate([self._y, np.empty_like(self._y)])

    def insert(self, x: np.ndarray, y: float) -> bool:
        """Add one evaluation; returns False when skipped as a duplicate."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {x.shape}")
        if not (np.all(np.isfinite(x)) and math.isfinite(y)):
            raise ValueError("cannot store non-finite evaluations")
        if self._n > 0:
            # direct differences: exact zeros for exact re-inserts, which the
            # fast inner-product form cannot guarantee
            d2 = ((self._x[:self._n] - x) ** 2).sum(axis=1)
            if d2.min() <= DUPLICATE_TOL**2:
                return False
        if self._n == self._x.shape[0]:
            self._grow()
        self._x[self._n] = x
        self._y[self._n] = y
        self._n += 1
        return True

    def nearest(self, x: np.ndarray, n: int, lengths: np.ndarray,
                p: int) -> tuple[np.ndarray, np.ndarray]:
        """The n stored evaluations nearest to x in the kernel's metric,
        sum_i |x_i - x'_i|^p / l_i, so the most correlated come first; exact
        ties are broken by insertion order. Returns the whole store when it
        holds fewer than n points."""
        if self._n == 0:
            raise RuntimeError("evaluation store is empty")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {x.shape}")
        n = min(n, self._n)
        dist = _kernel_distance(self.points, x, lengths, p)
        if n == self._n:
            cand = np.arange(self._n)
        else:
            part = np.argpartition(dist, n - 1)[:n]
            # pull in every point tied with the current cutoff so ties resolve
            # by insertion order, not by partition internals
            cand = np.flatnonzero(dist <= dist[part].max())
        order = cand[np.lexsort((cand, dist[cand]))][:n]
        return self._x[order].copy(), self._y[order].copy()

    def save_csv(self, path) -> None:
        """Write a header x_1..x_d,y and one row per stored evaluation, in
        insertion order, each value as its shortest round-trip repr."""
        with open(path, "w") as fh:
            cols = [f"x_{i + 1}" for i in range(self.dimension)] + ["y"]
            fh.write(",".join(cols) + "\n")
            for i in range(self._n):
                row = [repr(float(v)) for v in self._x[i]]
                row.append(repr(float(self._y[i])))
                fh.write(",".join(row) + "\n")


def _design(Z: np.ndarray, degree: int) -> np.ndarray:
    n, d = Z.shape
    if degree == 0:
        return np.ones((n, 1))
    if degree == 1:
        return np.hstack([np.ones((n, 1)), Z])
    if d not in _TRIU_CACHE:
        _TRIU_CACHE[d] = np.triu_indices(d)
    ii, jj = _TRIU_CACHE[d]
    return np.hstack([np.ones((n, 1)), Z, Z[:, ii] * Z[:, jj]])


@dataclass
class QuadraticMean:
    """Polynomial trend fitted on standardized coordinates.

    degree is 2 when the full quadratic fit succeeded and drops to 1 or 0
    when the design was rank-deficient. Coefficients are stored in the
    standardized basis.
    """

    degree: int
    center: np.ndarray
    scale: np.ndarray
    scaled_coef: np.ndarray

    def __call__(self, X: np.ndarray) -> np.ndarray | float:
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        Z = (np.atleast_2d(X) - self.center) / self.scale
        vals = _design(Z, self.degree) @ self.scaled_coef
        return float(vals[0]) if single else vals


def fit_quadratic_mean(X: np.ndarray,
                       y: np.ndarray) -> tuple[QuadraticMean, np.ndarray]:
    """Least-squares polynomial trend with automatic degree reduction, and
    its residuals y - trend(X) on the fitted points.

    Tries the full quadratic basis first and falls back to linear and then
    to a constant whenever the support is too small or the (standardized)
    design is rank-deficient, so the fit always succeeds. The fit is a
    column-pivoted QR of the n x k design (LAPACK dgeqp3): a degree counts
    as rank-deficient when some |R_jj| <= eps * n * |R_11|, the cutoff
    numpy.linalg.lstsq applies to the singular values by default, here
    applied to the diagonal of R. The residuals come from the design the
    fit used, so they equal y - mean(X) bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if y.shape != (n,):
        raise ValueError("X and y lengths differ")
    if n < 1:
        raise ValueError("cannot fit a trend to an empty support")
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    Z = (X - center) / scale
    cutoff = np.finfo(float).eps * n
    for degree in (2, 1, 0):
        B = _design(Z, degree)
        k = B.shape[1]
        if n < k:
            continue
        qr, piv, tau, _, _ = dgeqp3(B)
        r_diag = np.abs(qr.diagonal())
        if r_diag.min() <= cutoff * r_diag[0]:
            continue
        qty, _, _ = dormqr("L", "T", qr, tau, y[:, None], lwork=1)
        # dtrtrs solves with the leading k x k upper triangle of qr
        z, _ = dtrtrs(qr, qty)
        coef = np.empty(k)
        coef[piv - 1] = z[:k, 0]
        return QuadraticMean(degree, center, scale, coef), y - B @ coef


def _chol_with_jitter(corr: np.ndarray,
                      work: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of corr + jitter*I, escalating jitter tenfold
    from 1e-10 to 1e-4 before giving up. The matrix has unit diagonal, so
    these levels are relative to the kernel amplitude after scaling.

    The factor is computed in work (a Fortran-ordered n x n buffer, fresh
    when not given) and returned in it; corr is left intact."""
    n = corr.shape[0]
    if work is None:
        work = np.empty((n, n), order="F")
    diag = np.diag_indices(n)
    jitter = JITTER_START
    while jitter <= JITTER_MAX * (1 + 1e-9):
        work[...] = corr
        work[diag] += jitter
        L, info = dpotrf(work, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        jitter *= 10.0
    raise SurrogateError(
        f"correlation matrix of size {corr.shape[0]} not positive definite "
        f"even with jitter {JITTER_MAX}")


def _profile_loglik(X: np.ndarray, r: np.ndarray, lengths: np.ndarray,
                    p: int, corr: np.ndarray, work: np.ndarray) -> float:
    """Marginal log likelihood of the residuals with the amplitude profiled
    out, up to constants: -n log(r' C^{-1} r / n) - log det C.

    corr (C-ordered) and work (Fortran-ordered) are n x n scratch buffers,
    reused across calls so a calibration allocates no matrices."""
    n = r.size
    try:
        L, _ = _chol_with_jitter(_corr_matrix(X, lengths, p, out=corr), work)
    except SurrogateError:
        return -math.inf
    alpha, _ = dpotrs(L, r, lower=1)
    a_hat = max(float(r @ alpha) / n, AMPLITUDE_FLOOR)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    return -n * math.log(a_hat) - logdet


def calibrate_lengthscales(X: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Lengthscales from the initial design by coordinate-wise grid search.

    Each coordinate gets a log-spaced grid of CALIBRATION_GRID points spanning
    CALIBRATION_SPAN times its data standard deviation. Starting from the grid
    centers, coordinates are optimized one at a time against the profile
    marginal likelihood of the trend residuals, with CALIBRATION_SWEEPS full
    sweeps rather than iterating to convergence. The residuals are divided
    by their largest magnitude first, so the search sees the same numbers
    whatever the scale of y (outputs near 1e170 would otherwise overflow
    every likelihood on the grid). Degenerate data with no residual signal,
    max|r| <= 1e-12 max|y|, falls back to the per-coordinate data ranges.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least two points to calibrate lengthscales")
    _, r = fit_quadratic_mean(X, y)
    r_max = np.max(np.abs(r))
    if r_max <= 1e-12 * np.max(np.abs(y)):
        ranges = X.max(axis=0) - X.min(axis=0)
        ranges[ranges <= 0] = 1.0
        return ranges
    r = r / r_max
    std = X.std(axis=0)
    std[std <= 0] = 1.0
    lo, hi = CALIBRATION_SPAN
    grids = [np.geomspace(lo * s, hi * s, CALIBRATION_GRID) for s in std]
    lengths = np.array([g[CALIBRATION_GRID // 2] for g in grids])
    corr = np.empty((n, n))
    work = np.empty((n, n), order="F")
    best = _profile_loglik(X, r, lengths, p, corr, work)
    for _ in range(CALIBRATION_SWEEPS):
        for j in range(d):
            for cand in grids[j]:
                trial = lengths.copy()
                trial[j] = cand
                ll = _profile_loglik(X, r, trial, p, corr, work)
                if ll > best:
                    best, lengths = ll, trial
    return lengths


@dataclass
class LocalGP:
    """One local kriging model, ready for posterior evaluation.

    Holds the support set (X, y), the fitted trend, the kernel K(x, x') =
    a * exp(-sum_i |x_i - x'_i|^p / l_i) with its local amplitude a and the
    frozen lengthscales and exponent, the Cholesky factor of the jittered
    unit-amplitude correlation matrix C, and the precomputed weight vector
    alpha = C^{-1} (y - trend)."""

    X: np.ndarray
    y: np.ndarray
    mean: Callable
    a: float
    lengths: np.ndarray
    p: int
    chol: np.ndarray
    alpha: np.ndarray

    def posterior(self, x: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at a single point; SurrogateError when
        either is not finite."""
        c = np.exp(-_kernel_distance(self.X, np.asarray(x, dtype=float),
                                     self.lengths, self.p))
        w, _ = dpotrs(self.chol, c, lower=1)
        mu = float(self.mean(x)) + float(c @ self.alpha)
        var = self.a * (1.0 - float(c @ w))
        if not (math.isfinite(mu) and math.isfinite(var)):
            raise SurrogateError(f"local posterior is not finite: {mu}, {var}")
        return mu, max(var, 0.0)


def build_local_surrogate(store: EvaluationStore, x: np.ndarray,
                          lengths: np.ndarray, p: int,
                          n: int | None = None) -> LocalGP:
    """Local model at x from its nearest stored evaluations in the kernel's
    metric.

    Uses the local_size(d) stored points most correlated with x under the
    frozen lengthscales by default (the whole store when it is smaller; see
    EvaluationStore.nearest), fits the trend, recalibrates the amplitude in
    closed form from the trend residuals, and factors the correlation matrix
    once so posterior queries are two triangular solves. lengths and p are
    taken as given: SurrogateKernel checks them once, when it is built.
    Raises SurrogateError when the correlation matrix cannot be factored at
    the maximum jitter or the amplitude is not finite; callers fall back to
    the true model in that case.
    """
    x = np.asarray(x, dtype=float)
    if store.size == 0:
        raise SurrogateError("evaluation store is empty; no surrogate support")
    if n is None:
        n = local_size(store.dimension)
    lengths = np.asarray(lengths, dtype=float)
    Xs, ys = store.nearest(x, n, lengths, p)
    mean, r = fit_quadratic_mean(Xs, ys)
    corr = _corr_matrix(Xs, lengths, p)
    L, _ = _chol_with_jitter(corr)
    alpha, _ = dpotrs(L, r, lower=1)
    # residuals near 1e170 overflow here; the SurrogateError is the signal
    with np.errstate(over="ignore", invalid="ignore"):
        a = float(r @ alpha) / r.size
    if not math.isfinite(a):
        raise SurrogateError(f"local kernel amplitude is {a}")
    return LocalGP(X=Xs, y=ys, mean=mean, a=max(a, AMPLITUDE_FLOOR),
                   lengths=lengths, p=p, chol=L, alpha=alpha)
