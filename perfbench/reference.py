"""Fixed reference densities and the output checks each run must pass.

two-center  bin masses of y = min_k |x - c_k|^2 - 1 for x ~ N(0, I_2) and
            centers (3, 3), (3, -3), by one-dimensional quadrature over x_1
            of the exact conditional probability in x_2. Uses scipy only,
            nothing from the package under test.
poisson     the committed final-iteration density of one long exact-kernel
            MMC run (reference/poisson_gp.csv, provenance in
            reference/poisson_gp.json; make_reference.py regenerates it).
"""

import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

HERE = Path(__file__).resolve().parent
MASS_CUT = 1e-4          # bins compared by avg_rel_err (criterion 10's cut)
NORM_TOL = 1e-9          # |integral of the final density - 1|
HEADER = "iter,bin,center,lo,hi,count,H_hat,theta,P_i,pdf"


def _x2_probability(x1: float, r: float, c: float) -> float:
    """P(x_2 in the union of the two disks' chords at x_1)."""
    d2 = r * r - (x1 - c) ** 2
    if d2 <= 0.0:
        return 0.0
    h = math.sqrt(d2)
    if h >= c:  # chords [c-h, c+h] and [-c-h, -c+h] overlap
        return float(ndtr(c + h) - ndtr(-c - h))
    return float(2.0 * (ndtr(c + h) - ndtr(c - h)))


def two_center_masses(edges: np.ndarray, c: float = 3.0) -> np.ndarray:
    """Probability of each bin [edges[i], edges[i+1]) of the two-center
    output, renormalized over the binned range."""
    radii = [math.sqrt(max(e + 1.0, 0.0)) for e in edges]
    masses = []
    for r_lo, r_hi in zip(radii[:-1], radii[1:]):
        def integrand(x1, r_lo=r_lo, r_hi=r_hi):
            phi = math.exp(-0.5 * x1 * x1) / math.sqrt(2.0 * math.pi)
            return phi * (_x2_probability(x1, r_hi, c)
                          - _x2_probability(x1, r_lo, c))
        kinks = [c + s * math.sqrt(v) for r in (r_lo, r_hi)
                 for v in (r * r, r * r - c * c) if v > 0 for s in (-1, 1)]
        lo, hi = c - r_hi, c + r_hi
        mass, _ = quad(integrand, lo, hi, limit=200, epsabs=1e-15,
                       epsrel=1e-10,
                       points=sorted(k for k in kinks if lo < k < hi) or None)
        masses.append(mass)
    masses = np.array(masses)
    return masses / masses.sum()


def read_final(path: Path) -> dict:
    """Final-iteration rows of a histogram.csv: edges, counts, P_i, pdf."""
    with open(path) as fh:
        if fh.readline().strip() != HEADER:
            raise ValueError(f"{path}: not a histogram file")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    last = max(int(r[0]) for r in rows)
    final = [r for r in rows if int(r[0]) == last]
    final.sort(key=lambda r: int(r[1]))
    lo = np.array([float(r[3]) for r in final])
    hi = np.array([float(r[4]) for r in final])
    return {"edges": np.append(lo, hi[-1]),
            "counts": np.array([int(r[5]) for r in final]),
            "p": np.array([float(r[8]) for r in final]),
            "pdf": np.array([float(r[9]) for r in final]),
            "rows": rows}


def reference_masses(kind: str, edges: np.ndarray) -> np.ndarray:
    if kind == "two_center":
        return two_center_masses(edges)
    if kind == "poisson":
        ref = read_final(HERE / "reference" / "poisson_gp.csv")
        if not np.allclose(ref["edges"], edges, rtol=0, atol=1e-12):
            raise ValueError("run binning differs from the Poisson reference")
        return ref["p"]
    raise ValueError(f"unknown reference {kind!r}")
