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
scale of y, and then frozen; the candidates for one coordinate share its
distances and those over the others. A length divides |x_i - x'_i|^p, so it
has the units of x_i^p: coordinate i's 13-point grid runs from 0.1 s_i^p to
1e4 s_i^p, s_i its data standard deviation, and stretching one input by c
stretches its length by c^p. The span brackets the optimum of every
coordinate of the 10-D Poisson designs; a length on its top edge means the
coordinate does not matter at the data's scale (two points 3 s_i apart keep
a factor exp(-3^p 1e-4) of their correlation along it). Two sweeps score
1 + 2 * d * 12 likelihoods, 241 in 10-D. The amplitude a is recalibrated in
closed form for every local model, so the predictive variance tracks the
local residual scale as the store grows. The EvaluationStore owns the
frozen lengthscales and exponent: it checks them once, when it is built,
and keeps each point also in scaled coordinates, from which distances and
correlations come.

The support size follows a square-root rule between the number of quadratic
basis terms, t(d) = (d + 1)(d + 2)/2, and the cost of the dense solve:

    n(d) = ceil(sqrt(d) * t(d))

which gives 9 points in 2 dimensions, 47 in 5, and 209 in 10.

A local model depends only on the set of stored evaluations in its support:
EvaluationStore.nearest reports the support as ascending store indices, and
build_local_surrogate builds from the rows in that order, never in the
query's distance order, so two queries with the same support set get the
same model bit for bit. EvaluationStore.local_model keeps the models it
built in a least-recently-used cache and serves a query from it in two
cases. A model whose support is the query's (an exact hit) is the model a
fresh build would return. Otherwise a cached model may serve the query when
its support holds the query's t(d) = (d + 1)(d + 2)/2 nearest evaluations
(the quadratic trend's term count) and every evaluation of the query's
support that it lacks was already stored when it was built; of the models
that may, the most recently used serves. Such a model differs from a fresh
build only in evaluations farther than the query's t(d) nearest, and its
posterior is still the GP posterior conditioned on true evaluations, at the
distances from the query to its own rows. A point stored after a model was
built that enters a query's support rules that model out; this is the
moving local design of laGP (Gramacy & Apley 2015), with every cached model
a candidate. The store tests them all at once against a table of which
stored evaluations each model holds, and remembers which model served a
support, so a support seen before is again one lookup. A cached model stays
valid because the store is append-only (a stored row never changes, and a
near-duplicate is skipped on insert rather than overwriting one) and the
lengthscales and exponent are fixed when the store is built. The store is
the only place a model is cached.

The per-query algebra calls LAPACK and BLAS directly through scipy.linalg
(dgeqp3, dormqr and dtrtrs for the trend; dpotrf and dpotrs for the
correlation matrix; dtrsv for the posterior variance): on supports this
small, the argument checks of the numpy.linalg and scipy.linalg wrappers
cost more than the factorizations. Calibration calls dpotrf (clean=0:
the factor is discarded) and dpotrs on the strict lower triangle alone.
For the same reason the trend at a single query builds no design: it
fills a row QuadraticMean owns with the floats of the one-row design and
takes the same product, so mean(x) == mean(x[None, :])[0] bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dgeqp3, dormqr, dpotrf, dpotrs, dtrtrs
from scipy.spatial.distance import cdist, pdist

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
# Size of an EvaluationStore's model cache, in correlation-matrix entries: it
# holds MODEL_CACHE_ENTRIES // n**2 models of support size n, and at least
# one (3,236 at n = 9 in 2-D, 6 at n = 209 in 10-D), about 2 MB of Cholesky
# factors.
MODEL_CACHE_ENTRIES = 2**18
# Lengthscale calibration: grid points per coordinate, grid span in units of
# s**p, s the coordinate's data standard deviation, and full coordinate
# sweeps.
CALIBRATION_GRID = 13
CALIBRATION_SPAN = (0.1, 1e4)
CALIBRATION_SWEEPS = 2

_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _trend_terms(d: int) -> int:
    """t(d) = (d + 1)(d + 2)/2, the terms of a full quadratic in d
    coordinates."""
    return (d + 1) * (d + 2) // 2


def local_size(d: int) -> int:
    """Support size n(d); see the module docstring."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return math.ceil(math.sqrt(d) * _trend_terms(d))


def _check_exponent(p: int) -> None:
    """ValueError unless the kernel exponent p is 1 or 2."""
    if p not in (1, 2):
        raise ValueError(f"kernel exponent must be 1 or 2, got {p}")


def _check_kernel(lengths, p: int, dimension: int) -> np.ndarray:
    """The lengthscales as a float array of shape (dimension,), after
    checking that they are positive and finite and that the exponent p is 1
    or 2; ValueError otherwise."""
    lengths = np.array(lengths, dtype=float)
    if lengths.shape != (dimension,):
        raise ValueError(f"expected {dimension} kernel lengthscales, "
                         f"got shape {lengths.shape}")
    if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
        raise ValueError("kernel lengthscales must be positive and finite")
    _check_exponent(p)
    return lengths


def _root(lengths: np.ndarray, p: int) -> np.ndarray:
    # |x - x'|^p / l == |x/l^(1/p) - x'/l^(1/p)|^p, so dividing the
    # coordinates by l^(1/p) folds the lengthscales in and leaves plain
    # distance kernels.
    return lengths if p == 1 else np.sqrt(lengths)


def _metric(p: int) -> str:
    return "cityblock" if p == 1 else "sqeuclidean"


def _corr_matrix(X: np.ndarray, lengths: np.ndarray, p: int) -> np.ndarray:
    """Unit-amplitude correlation matrix of the rows of X."""
    Xs = X / _root(lengths, p)
    D = cdist(Xs, Xs, _metric(p))
    np.negative(D, out=D)
    return np.exp(D, out=D)


class EvaluationStore:
    """Append-only set of exact evaluations (x, y) with duplicate suppression
    and nearest-neighbor queries in the kernel's metric, whose lengths (one
    per coordinate) and exponent p are checked here once and then frozen.
    Each point is also kept scaled (see _root), so no query rescales.

    Points closer than 1e-12 (Euclidean) to a stored point are considered
    duplicates and silently skipped on insert, so the correlation matrices
    built from any subset never contain an exactly repeated row.

    It also serves the local models built on it from a cache (local_model);
    the module docstring says when a cached model serves a query. The cache
    has MODEL_CACHE_ENTRIES // n**2 slots for support size n. Per slot the
    store keeps the model, a column of a boolean table over store rows that
    is true at the model's support, the store size at the model's build,
    its last use, and the supports whose queries it serves: the one it was
    built on and aliases, supports it has served without being built on
    them. models_built counts the models built and cached.
    """

    def __init__(self, dimension: int, lengths, p: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.lengths = _check_kernel(lengths, p, dimension)
        self.p = p
        self._root = _root(self.lengths, p)
        self._x = np.empty((STORE_CAPACITY, dimension))
        self._xs = np.empty_like(self._x)
        self._y = np.empty(STORE_CAPACITY)
        self._n = 0
        self._support_size = local_size(dimension)
        self._core_size = _trend_terms(dimension)
        slots = max(1, MODEL_CACHE_ENTRIES // self._support_size**2)
        self._models: list[LocalGP | None] = [None] * slots
        # slots are columns: gathering a query's core copies one contiguous
        # row per core evaluation
        self._held = np.zeros((STORE_CAPACITY, slots), dtype=bool)
        self._born = np.zeros(slots, dtype=np.intp)
        self._used = np.zeros(slots, dtype=np.int64)
        self._clock = 0
        # support key -> (slot, alias); a slot's keys go when it is refilled
        self._keys: dict[bytes, tuple[int, bool]] = {}
        self._slot_keys: list[list[bytes]] = [[] for _ in range(slots)]
        self.models_built = 0

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
        self._xs = np.concatenate([self._xs, np.empty_like(self._xs)])
        self._y = np.concatenate([self._y, np.empty_like(self._y)])
        self._held = np.concatenate([self._held, np.zeros_like(self._held)])

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
        self._xs[self._n] = x / self._root
        self._y[self._n] = y
        self._n += 1
        return True

    def nearest(self, x: np.ndarray, n: int,
                core: int = 1) -> tuple[np.ndarray, np.ndarray, float]:
        """The support of a local model at x: the store indices of the n
        evaluations nearest to x in the kernel's metric, sum_i |x_i - x'_i|^p
        / l_i, so the most correlated ones, with exact ties at the cutoff
        broken by insertion order. The indices come in ascending order, so
        they name the support as a set, whatever the query. Also returns the
        kernel distances from x to every stored evaluation, by store index
        (dist[idx] are the support's), and the distance from x to its
        core-th nearest evaluation (core <= n; the nearest by default), from
        the same partition: x's core nearest are the support's evaluations
        within it, less any tied at it past the core-th. The support is the
        whole store when it holds fewer than n points; raises SurrogateError
        when it holds none."""
        if self._n == 0:
            raise SurrogateError("evaluation store is empty")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {x.shape}")
        dist = cdist(self._xs[:self._n], x[None, :] / self._root,
                     _metric(self.p))[:, 0]
        n = min(n, self._n)
        core = min(core, n)
        part = dist.copy()
        part.partition((core - 1, n - 1))
        idx = (dist <= part[n - 1]).nonzero()[0]
        return _earliest(dist, idx, n), dist, part[core - 1]

    def local_model(self, x: np.ndarray) -> tuple[LocalGP, np.ndarray]:
        """The local model at x and the kernel distances from x to its rows,
        in store-index order. The model is the cached one built on x's
        support, the local_size(dimension) nearest evaluations, or else the
        most recently used cached model whose support holds x's core, the
        (d + 1)(d + 2)/2 nearest, and lacks no evaluation of x's support
        stored after it was built; the module docstring says why. Only
        otherwise is a model built and cached, least recently used out
        first; a failed build (SurrogateError, as for an empty store) is
        not cached. The support is then an alias of the model that serves
        it: the next query on it checks that one model first, by the same
        rule, since another query's core may differ."""
        idx, dist, radius = self.nearest(x, self._support_size,
                                         self._core_size)
        key = idx.tobytes()
        slot, alias = self._keys.get(key, (-1, True))
        if alias:
            # x's core is cut only here, off the exact-hit path
            core = _earliest(dist, idx[dist[idx] <= radius], self._core_size)
            if slot < 0 or not (self._held[core, slot].all()
                                and self._born[slot] > idx[-1]):
                fits = self._held[core].all(axis=0) & (self._born > idx[-1])
                if fits.any():
                    slot = int(np.where(fits, self._used, -1).argmax())
                else:
                    slot, alias = self._build(idx), False
                self._keys[key] = (slot, alias)
                self._slot_keys[slot].append(key)
        self._clock += 1
        self._used[slot] = self._clock
        gp = self._models[slot]
        return gp, dist[gp.idx]

    def _build(self, idx: np.ndarray) -> int:
        """Build the model on support idx into an empty slot, else the least
        recently used one, whose model and keys go; returns the slot."""
        gp = build_local_surrogate(self, idx)
        slot = int(self._used.argmin())
        old = self._models[slot]
        if old is not None:
            self._held[old.idx, slot] = False
            for k in self._slot_keys[slot]:
                # a key moved to another slot since stays with that one
                if self._keys.get(k, (-1,))[0] == slot:
                    del self._keys[k]
            self._slot_keys[slot] = []
        self._models[slot] = gp
        self._held[idx, slot] = True
        self._born[slot] = self._n
        self.models_built += 1
        return slot

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


def _earliest(dist: np.ndarray, idx: np.ndarray, k: int) -> np.ndarray:
    """idx (ascending store indices) cut to its k nearest by distance when
    ties at the cutoff left more, keeping the earliest inserted."""
    if idx.size > k:
        idx = np.sort(idx[np.lexsort((idx, dist[idx]))[:k]])
    return idx


def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i <= j of the quadratic terms, in design column order."""
    if d not in _TRIU_CACHE:
        _TRIU_CACHE[d] = np.triu_indices(d)
    return _TRIU_CACHE[d]


def _design(Z: np.ndarray, degree: int) -> np.ndarray:
    n, d = Z.shape
    if degree == 0:
        return np.ones((n, 1))
    if degree == 1:
        return np.hstack([np.ones((n, 1)), Z])
    ii, jj = _triu(d)
    return np.hstack([np.ones((n, 1)), Z, Z[:, ii] * Z[:, jj]])


@dataclass
class QuadraticMean:
    """Polynomial trend fitted on standardized coordinates.

    degree is 2 when the full quadratic fit succeeded and drops to 1 or 0
    when the design was rank-deficient. Coefficients are stored in the
    standardized basis. A single point x, shape (d,), skips the design: its
    1, z and z_i z_j (i <= j) are written into a (1, k) row the model owns
    (the floats of _design's one row) and take the same product, so mean(x)
    equals mean(x[None, :])[0] bit for bit.
    """

    degree: int
    center: np.ndarray
    scale: np.ndarray
    scaled_coef: np.ndarray
    _row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._row = np.ones((1, len(self.scaled_coef)))

    def __call__(self, X: np.ndarray) -> np.ndarray | float:
        X = np.asarray(X, dtype=float)
        if X.ndim != 1:
            Z = (np.atleast_2d(X) - self.center) / self.scale
            return _design(Z, self.degree) @ self.scaled_coef
        z = (X - self.center) / self.scale
        row, d = self._row, z.size
        if self.degree > 0:
            row[0, 1:d + 1] = z
        if self.degree == 2:
            ii, jj = _triu(d)
            np.multiply(z[ii], z[jj], out=row[0, d + 1:])
        return float((row @ self.scaled_coef)[0])


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
    # X.std(axis=0) and (X - center) / scale, bit for bit, centring once
    center = X.mean(axis=0)
    Z = X - center
    scale = np.sqrt(np.add.reduce(Z * Z, axis=0) / n)
    scale[scale == 0] = 1.0
    Z /= scale
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


def _jitter_ladder():
    """Jitters to try in turn on a unit-diagonal correlation matrix (so
    relative to the amplitude), tenfold from JITTER_START to JITTER_MAX."""
    jitter = JITTER_START
    while jitter <= JITTER_MAX * (1 + 1e-9):
        yield jitter
        jitter *= 10.0


def _chol_with_jitter(corr: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of corr + jitter*I at the first jitter of
    _jitter_ladder that factors; SurrogateError past the last.

    The factor is computed in a fresh Fortran-ordered buffer; corr is left
    intact. corr must be exactly symmetric, as _corr_matrix's are: it is
    copied in as its transpose, a contiguous copy."""
    n = corr.shape[0]
    work = np.empty((n, n), order="F")
    diag = np.diag_indices(n)
    for jitter in _jitter_ladder():
        work.T[...] = corr
        work[diag] += jitter
        L, info = dpotrf(work, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
    raise SurrogateError(
        f"correlation matrix of size {corr.shape[0]} not positive definite "
        f"even with jitter {JITTER_MAX}")


def calibrate_lengthscales(X: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Lengthscales from the initial design by coordinate-wise grid search.

    Each coordinate gets a log-spaced grid of CALIBRATION_GRID points spanning
    CALIBRATION_SPAN times s**p, s its data standard deviation: a length
    divides |x_j - x'_j|^p, so stretching one input by c stretches its grid,
    and its chosen length, by c**p. The span brackets the optimum on the
    10-D Poisson designs; a length on the top edge, 1e4 s**p, means the
    coordinate does not matter at the data's scale, as where the quadratic
    trend absorbs its effect. Starting from the grid
    centers, coordinates are optimized one at a time against the profile
    marginal likelihood of the trend residuals r, -n log(r' C^{-1} r / n) -
    log det C up to constants, with CALIBRATION_SWEEPS full sweeps rather
    than iterating to convergence. The residuals are divided by their
    largest magnitude first, so the search sees the same numbers whatever
    the scale of y (outputs near 1e170 would otherwise overflow every
    likelihood on the grid). Degenerate data with no residual signal,
    max|r| <= 1e-12 max|y|, falls back to the per-coordinate data ranges to
    the power p.
    ValueError unless the kernel exponent p is 1 or 2.

    Coordinate j's sweep computes, once, the kernel distance over the other
    coordinates at the current lengths and |x_j - x'_j|^p, over the
    n(n - 1)/2 pairs; a candidate l_j costs a divide-add, the exp and a
    factorization of C's strict lower triangle. The sweep's starting value
    is the best at its start, so it is not scored again: a search scores
    1 + CALIBRATION_SWEEPS * d * (CALIBRATION_GRID - 1) likelihoods, 241 on
    a 10-D design.
    """
    _check_exponent(p)
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
        return ranges**p
    r = r / r_max
    std = X.std(axis=0)
    std[std <= 0] = 1.0
    lo, hi = CALIBRATION_SPAN
    grids = [np.geomspace(lo * s**p, hi * s**p, CALIBRATION_GRID)
             for s in std]
    lengths = np.array([g[CALIBRATION_GRID // 2] for g in grids])
    # work.T[upper] is work's strict lower triangle column by column, the
    # order in which pdist lists the pairs i < j
    work = np.zeros((n, n), order="F")
    upper = np.arange(n) > np.arange(n)[:, None]
    corr = np.empty(n * (n - 1) // 2)

    def loglik(rest: np.ndarray, dist_j: np.ndarray, length: float) -> float:
        """The likelihood at C's pairs exp(-rest - dist_j / length)."""
        np.divide(dist_j, -length, out=corr)
        np.subtract(corr, rest, out=corr)
        np.exp(corr, out=corr)
        for jitter in _jitter_ladder():
            work.T[upper] = corr
            np.fill_diagonal(work, 1.0 + jitter)
            L, info = dpotrf(work, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                alpha, _ = dpotrs(L, r, lower=1)
                a_hat = max(float(r @ alpha) / n, AMPLITUDE_FLOOR)
                return (-n * math.log(a_hat)
                        - 2.0 * float(np.log(np.diag(L)).sum()))
        return -math.inf

    best = None
    for _ in range(CALIBRATION_SWEEPS):
        for j in range(d):
            others = np.arange(d) != j
            rest = pdist(X[:, others] / _root(lengths[others], p), _metric(p))
            dist_j = pdist(X[:, j:j + 1], _metric(p))
            start = lengths[j]
            if best is None:
                best = loglik(rest, dist_j, start)
            for cand in grids[j]:
                if cand == start:
                    continue  # scored as best at the sweep's start
                ll = loglik(rest, dist_j, cand)
                if ll > best:
                    best, lengths[j] = ll, cand
    return lengths


@dataclass
class LocalGP:
    """One local kriging model, ready for posterior evaluation.

    Holds the fitted trend, the local amplitude a of the kernel K(x, x') =
    a * exp(-sum_i |x_i - x'_i|^p / l_i), the Cholesky factor of the
    jittered unit-amplitude correlation matrix C, the precomputed weight
    vector alpha = C^{-1} (y - trend), and its support: idx, the ascending
    store indices of the rows (X, y) it was built from, which stay in the
    store. The kernel's lengthscales and exponent stay with the store, whose
    nearest returns the distances posterior takes, gathered at idx."""

    mean: Callable
    a: float
    chol: np.ndarray
    alpha: np.ndarray
    idx: np.ndarray

    def posterior(self, x: np.ndarray,
                  dist: np.ndarray) -> tuple[float, float]:
        """Posterior mean and variance at a single point x, given dist, the
        kernel distances sum_j |x_j - X_ij|^p / l_j from x to each support
        row X_i, in store-index order: dist[idx] of the distances
        EvaluationStore.nearest returns, so a query computes them once. The
        variance is a (1 - v.v) with v = L^{-1} c, one triangular solve
        (Rasmussen & Williams 2006, Algorithm 2.1). Raises SurrogateError
        when the mean or the variance is not finite."""
        c = np.exp(-dist)
        mu = float(self.mean(x)) + float(c @ self.alpha)
        v = dtrsv(self.chol, c, lower=1, overwrite_x=1)
        var = self.a * (1.0 - float(v @ v))
        if not (math.isfinite(mu) and math.isfinite(var)):
            raise SurrogateError(f"local posterior is not finite: {mu}, {var}")
        return mu, max(var, 0.0)


def build_local_surrogate(store: EvaluationStore, idx: np.ndarray) -> LocalGP:
    """Local model on the stored evaluations idx, the ascending store
    indices EvaluationStore.nearest returns as a query's support.

    Fits the trend on the rows in index order, recalibrates the amplitude in
    closed form from the trend residuals, and factors the correlation matrix
    once so a posterior query is one triangular solve. Because the rows
    come in index order, the model is a function of the support set alone:
    every query whose support is this set gets the same model, bit for bit,
    which is what lets EvaluationStore.local_model build it once and reuse
    it. The model keeps idx. The correlations come from _corr_matrix, as in
    calibration, in the store's frozen metric.
    Raises SurrogateError when the correlation matrix cannot be factored at
    the maximum jitter or the amplitude is not finite; callers fall back to
    the true model in that case.
    """
    Xs = store.points[idx]
    ys = store.values[idx]
    mean, r = fit_quadratic_mean(Xs, ys)
    L, _ = _chol_with_jitter(_corr_matrix(Xs, store.lengths, store.p))
    alpha, _ = dpotrs(L, r, lower=1)
    # residuals near 1e170 overflow here; the SurrogateError is the signal
    with np.errstate(over="ignore", invalid="ignore"):
        a = float(r @ alpha) / r.size
    if not math.isfinite(a):
        raise SurrogateError(f"local kernel amplitude is {a}")
    return LocalGP(mean=mean, a=max(a, AMPLITUDE_FLOOR), chol=L, alpha=alpha,
                   idx=idx)
