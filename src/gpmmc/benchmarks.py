"""Benchmark performance models.

Three problems of increasing cost:

  min_distance   distance from a standard-normal point to the nearest of two
                 fixed centers, minus one. Cheap, heavy-tailed output.
  beam           tip displacement of a cantilever under two point loads, five
                 independent Gaussian inputs with very different scales.
  poisson_kl     center value of the solution of div(a grad u) = f on the
                 unit square with u = 0 on the boundary, where log a is a
                 truncated Karhunen-Loeve expansion of a squared-exponential
                 random field. The model input is the vector of
                 standard-normal mode coefficients.

The Poisson solver uses a five-point finite-volume stencil on a uniform node
grid (resolution counts nodes per side, boundary included) with harmonic-mean
face coefficients, which keeps fluxes continuous across jumps in a. The
negated stencil matrix is symmetric positive definite with bandwidth equal to
the interior width, so each solve is one LAPACK banded Cholesky (dpbsv) on
band storage filled from the face coefficients, followed by a residual check.
The numbers the models fix, rather than take as parameters, are module
constants.

Every model takes a block of points (see problem.PerformanceModel).
min_distance evaluates its block in one broadcast; beam and poisson_kl run
their scalar code on each row, since a vectorized form would round
differently in the last bits (numpy squares where Python calls pow, and a
block of fields goes through a matrix product instead of a vector one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpbsv

from .problem import (EvalLedger, PerformanceModel, evaluate, gaussian_model,
                      register_model, sample_prior)

__all__ = [
    "min_distance_model",
    "beam_eval", "beam_model", "BEAM_LENGTH",
    "KLBasis", "kl_decompose", "realize_field", "solve_poisson",
    "interpolate_bilinear", "poisson_kl_model", "pilot_output_range",
]

BEAM_LENGTH = 100.0
FIELD_SCALE = 1.0                   # a0 in the field a = a0 exp(...)
SOURCE = 1.0                        # f in div(a grad u) = f
OBSERVE = (0.5, 0.5)                # where the Poisson model reads u
# auto output range: prior draws, and padding as a fraction of their span
PILOT_DRAWS = 1000
PILOT_PAD = 0.10

RESIDUAL_TOL = 1e-10


def _rowwise(fn: Callable[[np.ndarray], float]
             ) -> Callable[[np.ndarray], np.ndarray]:
    """Block form of a scalar model: fn applied to each row."""
    def ev(X: np.ndarray) -> np.ndarray:
        return np.fromiter((fn(x) for x in X), dtype=float, count=len(X))
    return ev


# ---------------------------------------------------------------- min distance

def min_distance_model(dimension: int = 2,
                       centers: np.ndarray | None = None) -> PerformanceModel:
    """Standard-normal input; default centers are (3, 3) and (3, -3) in two
    dimensions and the all-ones / all-minus-ones pair otherwise. A block of
    n points is evaluated in one broadcast, which holds centers x n x d
    differences at once: a plain-MC chunk of 2^16 draws with 50 centers in
    16 dimensions needs about 420 MB for each of its two temporaries."""
    if centers is None:
        if dimension == 2:
            centers = np.array([[3.0, 3.0], [3.0, -3.0]])
        else:
            centers = np.vstack([np.ones(dimension), -np.ones(dimension)])
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[1] != dimension:
        raise ValueError(f"centers have dimension {centers.shape[1]}, "
                         f"model has {dimension}")

    rows = centers[:, None, :]
    one = np.array(1.0)

    def ev(X: np.ndarray) -> np.ndarray:
        # Called with one point on every chain step: the ufuncs reduce
        # directly and take a 0-d 1.0, which skips the Python-level wrappers.
        sq = np.square(rows - X)
        return np.minimum.reduce(np.add.reduce(sq, axis=2), axis=0) - one

    return gaussian_model("min_distance", ev, np.zeros(dimension),
                          np.ones(dimension))


def _parse_centers(raw: str) -> np.ndarray:
    """Centers from config text, one point per group: "x1,y1 ; x2,y2"."""
    return np.array([[float(v) for v in grp.split(",")]
                     for grp in raw.split(";")])


# ----------------------------------------------------------------------- beam

def beam_eval(w: float, t: float, x_load: float, y_load: float,
              e_mod: float) -> float:
    """Tip displacement of a BEAM_LENGTH cantilever under horizontal load
    x_load and vertical load y_load, for a w x t rectangular section."""
    if w <= 0 or t <= 0 or e_mod <= 0:
        raise ValueError("width, thickness, and modulus must be positive")
    return (4.0 * BEAM_LENGTH**3 / (e_mod * w * t)
            * math.sqrt((y_load / t**2) ** 2 + (x_load / w**2) ** 2))


def beam_model(e_mean: float = 2.9e7) -> PerformanceModel:
    """Five independent Gaussian inputs (w, t, x_load, y_load, e_mod).

    The modulus mean is configurable: 2.9e7 is the default and reproduces the
    reference displacement statistics; 2.9e6 scales the output tenfold.
    """
    means = np.array([4.0, 4.0, 500.0, 1000.0, e_mean])
    stds = np.sqrt(np.array([1e-3, 1e-4, 100.0, 100.0, 1.45e6]))

    def ev(x: np.ndarray) -> float:
        return beam_eval(x[0], x[1], x[2], x[3], x[4])

    return gaussian_model("beam", _rowwise(ev), means, stds)


# ----------------------------------------------------------- KL random field

@dataclass(frozen=True)
class KLBasis:
    """Top modes of the squared-exponential field covariance on a node grid.

    eigenvalues are sorted descending; functions[j] holds mode j on the
    flattened grid, orthonormal under the uniform quadrature weight 1/N.
    Every mode is a product phi_a(x) phi_b(y) of two 1-D modes, each with its
    first nonvanishing component made positive."""

    eigenvalues: np.ndarray
    functions: np.ndarray
    nodes: int

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def kl_decompose(nodes: int, corr_delta: float, n_modes: int) -> KLBasis:
    """Leading eigenpairs of cov(x, x') = exp(-|x - x'|^2 / corr_delta)
    discretized at the grid nodes with uniform quadrature weights.

    The covariance factors into the same 1-D kernel along each axis, so its
    eigenpairs come from the 1-D matrix exp(-(x - x')^2 / corr_delta) / nodes
    (a dense symmetric eigensolve). With the 1-D modes phi_0, phi_1, ...
    in descending order of eigenvalue mu, mode (a, b) is phi_a(x) phi_b(y)
    with eigenvalue mu_a * mu_b. Modes are ordered by eigenvalue, descending,
    and the equal pairs (a, b) and (b, a) by (a, b). This fixes one basis
    inside every repeated eigenspace, so the basis, and the model built on
    it, does not depend on the number of BLAS threads. A mode built from a
    1-D eigenvalue <= 0 lies past the numerical rank and raises ValueError.
    """
    if nodes < 8:
        raise ValueError("need a grid of at least 8 nodes per side")
    if n_modes < 1 or n_modes > nodes * nodes:
        raise ValueError(f"mode count {n_modes} out of range")
    g = np.linspace(0.0, 1.0, nodes)
    mu, vecs = np.linalg.eigh(np.exp(-(g[:, None] - g[None, :]) ** 2
                                     / corr_delta) / nodes)
    # 1-D modes in descending order, orthonormal under the weight 1/nodes,
    # so their products are orthonormal under the 2-D weight 1/nodes^2
    mu = mu[::-1]
    phi = (vecs[:, ::-1] * math.sqrt(nodes)).T
    for row in phi:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    a, b = np.divmod(np.arange(nodes * nodes), nodes)
    prod = mu[a] * mu[b]
    order = np.lexsort((b, a, -prod))
    # past the numerical rank the 1-D eigenvalues are rounding noise, some
    # of them negative, and so are the modes built from them
    noise = (mu[a[order]] <= 0) | (mu[b[order]] <= 0)
    if noise[:n_modes].any():
        raise ValueError(f"{n_modes} modes exceed the numerical rank "
                         f"({int(np.argmax(noise))} at {nodes} nodes)")
    top = order[:n_modes]
    # grid flattened row-major over (x, y): entry i * nodes + j is (g_i, g_j)
    funcs = (phi[a[top], :, None] * phi[b[top], None, :]).reshape(n_modes, -1)
    return KLBasis(eigenvalues=prod[top], functions=funcs, nodes=nodes)


def realize_field(basis: KLBasis, coeffs: np.ndarray) -> np.ndarray:
    """Field a = FIELD_SCALE * exp(sum_j coeffs_j sqrt(lambda_j) xi_j) on the
    node grid."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.n_modes,):
        raise ValueError(f"expected {basis.n_modes} coefficients, "
                         f"got shape {coeffs.shape}")
    z = (coeffs * np.sqrt(basis.eigenvalues)) @ basis.functions
    return FIELD_SCALE * np.exp(z).reshape(basis.nodes, basis.nodes)


# -------------------------------------------------------------- Poisson solve

def _harmonic(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    return 2.0 * a1 * a2 / (a1 + a2)


def solve_poisson(a: np.ndarray) -> np.ndarray:
    """Solve div(a grad u) = SOURCE on the unit square, u = 0 on the
    boundary.

    a holds the coefficient at the (nodes x nodes) grid points; the returned
    array holds u at the same points, zero on the boundary. The ni = nodes - 2
    interior unknowns, flattened row-major, give a five-point matrix A whose
    negative is symmetric positive definite with bandwidth ni. -A goes into
    LAPACK lower band storage straight from the face coefficients, and one
    dpbsv call (banded Cholesky) solves -A u = -SOURCE. Raises RuntimeError
    if the factorization fails or the solve leaves a relative residual
    ||A u - f|| / ||f|| above RESIDUAL_TOL, with A u taken by the stencil on
    the zero-bordered grid.
    """
    a = np.asarray(a, dtype=float)
    nodes = a.shape[0]
    if a.shape != (nodes, nodes) or nodes < 3:
        raise ValueError("coefficient field must be square, at least 3x3")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("coefficient field must be positive and finite")
    h = 1.0 / (nodes - 1)
    ni = nodes - 2
    c = a[1:-1, 1:-1]
    face_e = _harmonic(c, a[2:, 1:-1]) / h**2
    face_w = _harmonic(c, a[:-2, 1:-1]) / h**2
    face_n = _harmonic(c, a[1:-1, 2:]) / h**2
    face_s = _harmonic(c, a[1:-1, :-2]) / h**2
    diag = face_e + face_w + face_n + face_s

    # band row k, column q holds -A[q + k, q]; the j neighbour is offset 1
    # and must not wrap across grid rows, the i neighbour is offset ni. The
    # lower form, because OpenBLAS factors the upper one ~4x slower at two
    # BLAS threads.
    band = np.zeros((ni + 1, ni * ni), order="F")
    band[0] = diag.ravel()
    band[1, :-1] = -face_n.ravel()[:-1]
    band[1, ni - 1::ni] = 0.0
    band[ni, :-ni] = -face_e.ravel()[:-ni]
    rhs = np.full((ni, ni), SOURCE)
    _, u_in, info = dpbsv(band, -rhs.ravel(), lower=1, overwrite_ab=1,
                          overwrite_b=1)
    if info != 0:
        raise RuntimeError(f"Poisson factorization failed (dpbsv info {info})")
    u = np.zeros((nodes, nodes))
    u[1:-1, 1:-1] = u_in.reshape(ni, ni)
    au = (face_e * u[2:, 1:-1] + face_w * u[:-2, 1:-1]
          + face_n * u[1:-1, 2:] + face_s * u[1:-1, :-2] - diag * u[1:-1, 1:-1])
    residual = np.linalg.norm(au - rhs) / np.linalg.norm(rhs)
    if residual > RESIDUAL_TOL:
        raise RuntimeError(f"Poisson solve left relative residual {residual:.2e}")
    return u


def interpolate_bilinear(u: np.ndarray, point: tuple[float, float]) -> float:
    """Bilinear interpolation of node values at a point in [0, 1]^2."""
    nodes = u.shape[0]
    px, py = float(point[0]), float(point[1])
    if not (0.0 <= px <= 1.0 and 0.0 <= py <= 1.0):
        raise ValueError(f"point {point} outside the unit square")
    h = 1.0 / (nodes - 1)
    i = min(int(px / h), nodes - 2)
    j = min(int(py / h), nodes - 2)
    sx = px / h - i
    sy = py / h - j
    return float(u[i, j] * (1 - sx) * (1 - sy) + u[i + 1, j] * sx * (1 - sy)
                 + u[i, j + 1] * (1 - sx) * sy + u[i + 1, j + 1] * sx * sy)


def poisson_kl_model(nodes: int = 65, corr_delta: float = 0.6,
                     n_modes: int = 10) -> PerformanceModel:
    """Performance model mapping KL mode coefficients to u at the point
    OBSERVE. The coefficients carry a standard-normal prior."""
    basis = kl_decompose(nodes, corr_delta, n_modes)

    def ev(c: np.ndarray) -> float:
        return interpolate_bilinear(solve_poisson(realize_field(basis, c)),
                                    OBSERVE)

    return gaussian_model("poisson_kl", _rowwise(ev), np.zeros(n_modes),
                          np.ones(n_modes))


# ------------------------------------------------------------------ utilities

def pilot_output_range(model: PerformanceModel, seed: int,
                       ledger: EvalLedger) -> tuple[float, float]:
    """Output range from PILOT_DRAWS prior draws (RNG stream [seed, 2]),
    padded by PILOT_PAD times the observed span on each side. The draws go
    to the true model as one block, charged to ledger. Used when a run gives
    no output range."""
    rng = np.random.default_rng([seed, 2])
    ys = evaluate(model, sample_prior(model, rng, PILOT_DRAWS), ledger)
    lo, hi = float(ys.min()), float(ys.max())
    span = hi - lo
    if span <= 0:
        raise RuntimeError("pilot sample produced a degenerate output range")
    return lo - PILOT_PAD * span, hi + PILOT_PAD * span


register_model("min_distance", min_distance_model,
               {"dimension": ("dimension", int),
                "centers": ("centers", _parse_centers)})
register_model("beam", beam_model, {"e_mean": ("e_mean", float)})
register_model("poisson_kl", poisson_kl_model,
               {"grid_nodes": ("nodes", int),
                "corr_delta": ("corr_delta", float),
                "kl_modes": ("n_modes", int)})
