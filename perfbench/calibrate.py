"""Host-speed calibration for the benchmark's timings.

The virtual machines this benchmark runs on change speed with the host, by
up to about 2x in phases from under a second to minutes, so raw wall times
of the same code spread far beyond any useful regression bound. A Sampler
therefore interrupts the repetition every PERIOD_S seconds (SIGALRM) and
times a short fixed kernel that uses nothing from gpmmc. The host's phases
slow each kind of work by a different factor, so there are three kernels,
and each workload samples, in turn, the ones that mirror its hot path:
interpreter overhead with numpy calls on 2-vectors (the exact kernel and
plain MC), a local GP fit on 9 points through numpy and scipy (the
surrogate path), and dense linear algebra at the size of the largest GP
supports (poisson_gp, with the other two).

The host speed in an interval is the mean, over the workload's kernels, of
a kernel's time on the reference host (KERNELS) over its mean time sampled
in the interval. A repetition's timings are reported at the reference
speed, that is multiplied by the speed, after the time spent in the kernels
has been taken out of every interval it fell in. The kernels' cost does not
depend on gpmmc, so a change to the package moves the raw and the scaled
timings alike; only the host's speed cancels.
"""

import signal
import statistics
import time
from array import array

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist

PERIOD_S = 0.04
BURST = 15        # samples taken at once on entry, so short set-ups have some

_RNG = np.random.default_rng(0)
_POINTS = _RNG.standard_normal((500, 2))
_SPD = _RNG.standard_normal((200, 200))
_SPD = _SPD @ _SPD.T / 200 + np.eye(200)
_ONES = np.ones(200)


def _interpreter(rng: np.random.Generator) -> float:
    acc = 0
    for i in range(2000):
        acc += (i * i) % 7
    x = np.zeros(2)
    for _ in range(50):
        x = np.minimum(x + rng.standard_normal(2), 3.0)
        acc += float(np.dot(x, x)) > 1.0
    return acc


def _local_gp(rng: np.random.Generator) -> float:
    acc = 0.0
    for _ in range(4):
        x = rng.standard_normal(2)
        d2 = ((_POINTS - x) ** 2).sum(axis=1)
        idx = np.argpartition(d2, 8)[:9]
        X, y = _POINTS[idx], d2[idx]
        basis = np.hstack([np.ones((9, 1)), X,
                           X[:, [0, 0, 1]] * X[:, [0, 1, 1]]])
        coef = np.linalg.lstsq(basis, y, rcond=None)[0]
        chol = np.linalg.cholesky(np.exp(-cdist(X, X, "sqeuclidean"))
                                  + 1e-8 * np.eye(9))
        alpha = cho_solve((chol, True), y - basis @ coef)
        acc += float(np.exp(-cdist(X, x[None, :], "sqeuclidean"))[:, 0]
                     @ alpha)
    return acc


def _dense(rng: np.random.Generator) -> float:
    chol = np.linalg.cholesky(_SPD)
    return float(np.linalg.solve(chol, _ONES)[0])


# (kernel, its mean time on the reference host: a 2-vCPU Intel Xeon virtual
# machine, one BLAS thread). Only the ratios matter.
KERNELS = {"interpreter": (_interpreter, 0.0005),
           "local_gp": (_local_gp, 0.0006),
           "dense": (_dense, 0.0008)}


class Sampler:
    """Times the named kernels in turn on a SIGALRM timer while it runs."""

    def __init__(self, names: list[str]):
        self.names = names
        self.kernel = array("i")
        self.start = array("d")
        self.duration = array("d")
        self._rng = np.random.default_rng(0)

    def _sample(self, signum, frame) -> None:
        k = len(self.start) % len(self.names)
        fn = KERNELS[self.names[k]][0]
        t0 = time.perf_counter()
        fn(self._rng)
        self.kernel.append(k)
        self.start.append(t0)
        self.duration.append(time.perf_counter() - t0)

    def __enter__(self):
        for _ in range(BURST):
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, t0: float, t1: float) -> tuple[float, dict]:
        """Kernel time spent in [t0, t1] and the mean time of each kernel
        sampled there (kernels without a sample are left out)."""
        spent = 0.0
        times: dict[str, list[float]] = {}
        for k, s, d in zip(self.kernel, self.start, self.duration):
            if t0 <= s < t1:
                spent += d
                times.setdefault(self.names[k], []).append(d)
        return spent, {n: statistics.fmean(v) for n, v in times.items()}


def host_speed(means: dict) -> float:
    """Speed relative to the reference host from within()'s kernel means;
    1 where no kernel was sampled."""
    if not means:
        return 1.0
    return statistics.fmean(KERNELS[n][1] / m for n, m in means.items())
