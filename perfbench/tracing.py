"""Per-layer spans recorded from outside the package.

A Tracer replaces named functions and methods of the gpmmc modules with
wrappers that record one span per call: name, start, end and the span that
was open when the call began (its parent). Spans live in flat arrays in
memory and are written out once, when the run ends. Self time is a span's
duration minus the durations of its direct children.

LAYER_SPANS lists every wrapped callable. Module-level functions are replaced
in every gpmmc module that imported them by name, so calls through any of
those names are traced.
"""

import sys
import time
from array import array
from functools import wraps

import numpy as np

# (span name, module, attribute path) for every wrapped public callable.
LAYER_SPANS = [
    ("harness.run", "gpmmc.harness", "run_experiment"),
    ("harness.write", "gpmmc.harness", "_write_histogram_csv"),
    ("harness.write", "gpmmc.gp", "EvaluationStore.save_csv"),
    ("engine.loop", "gpmmc.engine", "run_mmc"),
    ("engine.plain_mc", "gpmmc.engine", "run_plain_mc"),
    ("engine.target", "gpmmc.engine", "log_bias_density"),
    ("engine.update_weights", "gpmmc.engine", "update_weights"),
    ("binning.tally", "gpmmc.binning", "tally"),
    ("mcmc.step", "gpmmc.mcmc", "ExactKernel.step"),
    ("surrogate.step", "gpmmc.surrogate", "SurrogateKernel.step"),
    ("surrogate.misassignment", "gpmmc.surrogate",
     "misassignment_probability"),
    ("gp.factor", "gpmmc.gp", "build_local_surrogate"),
    ("gp.nearest", "gpmmc.gp", "EvaluationStore.nearest"),
    ("gp.insert", "gpmmc.gp", "EvaluationStore.insert"),
    ("gp.trend_fit", "gpmmc.gp", "fit_quadratic_mean"),
    ("gp.trend_eval", "gpmmc.gp", "QuadraticMean.__call__"),
    ("gp.posterior", "gpmmc.gp", "LocalGP.posterior"),
    ("gp.calibrate", "gpmmc.gp", "calibrate_lengthscales"),
    ("problem.evaluate", "gpmmc.problem", "evaluate"),
    ("benchmarks.kl_decompose", "gpmmc.benchmarks", "kl_decompose"),
    ("benchmarks.realize_field", "gpmmc.benchmarks", "realize_field"),
    ("benchmarks.solve_poisson", "gpmmc.benchmarks", "solve_poisson"),
]

# The sampler entry points; the untraced run wraps only these (and the
# harness root) to time its phases.
PHASE_SPANS = [s for s in LAYER_SPANS
               if s[0] in ("harness.run", "engine.loop", "engine.plain_mc")]


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        ids, parents, starts, ends = (self.name_id, self.parent, self.start,
                                      self.end)
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(t0)
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, spans) -> None:
        """Wrap each (name, module, attribute) callable in place."""
        gpmmc_modules = [m for k, m in sys.modules.items()
                         if k == "gpmmc" or k.startswith("gpmmc.")]
        for name, module, attr in spans:
            owner = sys.modules[module]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapper = self._wrap(name, original)
            if cls_path:
                setattr(owner, fn_name, wrapper)
                continue
            for mod in gpmmc_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path, run_id: str) -> None:
        np.savez(path, names=np.array(self.names), run_id=run_id,
                 **self.arrays())

    def first(self, name: str) -> tuple[float, float] | None:
        """(start, end) of the first span with this name, if any."""
        if name not in self.names:
            return None
        nid = self.names.index(name)
        for i, n in enumerate(self.name_id):
            if n == nid:
                return self.start[i], self.end[i]
        return None

    def summarize(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus the
        share of the harness root span covered by its direct children."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        par = a["parent"]
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        self_s = np.bincount(ids, weights=own, minlength=n_names)
        out = {name: {"calls": int(calls[k]), "total_s": float(total[k]),
                      "self_s": float(self_s[k])}
               for k, name in enumerate(self.names)}
        roots = np.flatnonzero(ids == self.names.index("harness.run"))
        root = int(roots[0])
        out["coverage"] = float(child[root] / dur[root]) if dur[root] > 0 \
            else 0.0
        return out
