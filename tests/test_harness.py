import dataclasses
import functools
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import gpmmc.benchmarks
import gpmmc.gp
import gpmmc.harness
from gpmmc import (ConfigError, compare_pdfs, estimate_moments, evaluate,
                   gaussian_model, parse_config, read_histogram_csv,
                   run_experiment)
from gpmmc.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
# the shipped configs and the benchmark's workloads, read as files only
PRESETS = (sorted((ROOT / "configs").glob("*.cfg"))
           + sorted((ROOT / "perfbench" / "workloads").glob("*.cfg")))


def _preset_id(path: Path) -> str:
    """A shipped config by its name, a workload by its path in the repo (two
    of them share a name with a shipped config)."""
    return (path.name if path.parent.name == "configs"
            else path.relative_to(ROOT).as_posix())


@functools.cache
def _bench_checks():
    """check_outputs and comparable_files of the benchmark's runner, which
    puts its own directory on sys.path when imported; restored after."""
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        run = importlib.import_module("run")
    finally:
        sys.path[:] = saved
    return run.check_outputs, run.comparable_files


def _write_cfg(path, text):
    path.write_text(text)
    return str(path)


GOOD_MMC = """
# a tiny but complete run
model = min_distance
method = mmc
seed = 11
bins = 10
range_lo = -1.0
range_hi = 34.0
iterations = 2
samples_per_iteration = 300
burn_in = 30
proposal_scale = 0.8
"""

GOOD_GPMMC = """
model = min_distance
method = gpmmc
seed = 11
bins = 10
range_lo = -1.0
range_hi = 34.0
iterations = 2
samples_per_iteration = 300
burn_in = 30
proposal_scale = 0.8
gamma = 0.01
beta_max = 0.1
kernel_p = 2
initial_design = 30
"""


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC))
        assert cfg.model == "min_distance"
        assert cfg.method == "mmc"
        assert cfg.seed == 11
        assert cfg.bins == 10
        assert (cfg.range_lo, cfg.range_hi) == (-1.0, 34.0)
        assert cfg.iterations == 2
        assert cfg.samples_per_iteration == 300
        assert cfg.burn_in == 30
        assert cfg.proposal_scale == 0.8
        assert cfg.auto_range is False

    def test_vector_scale_and_centers(self, tmp_path):
        text = GOOD_MMC + "proposal_scale = 0.5, 1.5\ncenters = 1,2 ; 3,4\n"
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        np.testing.assert_array_equal(cfg.proposal_scale, [0.5, 1.5])
        np.testing.assert_array_equal(cfg.model_params["centers"],
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'samples'"):
            parse_config(_write_cfg(tmp_path / "a.cfg",
                                    GOOD_MMC + "samples = 3\n"))

    def test_missing_required_key(self, tmp_path):
        text = GOOD_MMC.replace("seed = 11\n", "")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))

    def test_bad_value(self, tmp_path):
        text = GOOD_MMC.replace("bins = 10", "bins = ten")
        with pytest.raises(ConfigError, match="bad value for 'bins'"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))

    def test_missing_range(self, tmp_path):
        text = GOOD_MMC.replace("range_lo = -1.0\n", "")
        text = text.replace("range_hi = 34.0\n", "")
        with pytest.raises(ConfigError, match="range"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))

    def test_auto_range(self, tmp_path):
        text = GOOD_MMC.replace("range_lo = -1.0\nrange_hi = 34.0\n",
                                "range = auto\n")
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        assert cfg.auto_range is True

    @pytest.mark.parametrize("explicit", [
        "range_lo = -1.0\nrange_hi = 34.0\n",
        "range_lo = -1.0\nrange_hi = -5.0\n",  # invalid on its own, too
        "range_lo = -1.0\n"])
    def test_range_given_twice(self, tmp_path, explicit):
        # rejected at parse time, before the pilot's true evaluations
        text = GOOD_MMC.replace("range_lo = -1.0\nrange_hi = 34.0\n",
                                explicit + "range = auto\n")
        with pytest.raises(ConfigError, match="not both"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))

    def test_bad_range_keyword(self, tmp_path):
        with pytest.raises(ConfigError, match="range"):
            parse_config(_write_cfg(tmp_path / "a.cfg",
                                    GOOD_MMC + "range = guess\n"))

    def test_key_for_wrong_model(self, tmp_path):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(_write_cfg(tmp_path / "a.cfg",
                                    GOOD_MMC + "e_mean = 2.9e6\n"))

    def test_model_keys_become_factory_keywords(self, tmp_path):
        text = (GOOD_MMC.replace("method = mmc", "method = mc")
                + "dimension = 2\n")
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        assert cfg.model_params == {"dimension": 2}
        text = GOOD_MMC.replace("model = min_distance", "model = poisson_kl")
        cfg = parse_config(_write_cfg(tmp_path / "b.cfg",
                                      text + "grid_nodes = 17\nkl_modes = 4\n"
                                      "corr_delta = 0.5\n"))
        assert cfg.model_params == {"nodes": 17, "n_modes": 4,
                                    "corr_delta": 0.5}

    def test_unknown_model(self, tmp_path):
        text = GOOD_MMC.replace("model = min_distance", "model = nope")
        with pytest.raises(ConfigError, match="unknown model 'nope'"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))
        cfg_path = _write_cfg(tmp_path / "b.cfg", GOOD_MMC)
        with pytest.raises(ConfigError, match="unknown model 'nope'"):
            parse_config(cfg_path, {"model": "nope"})
        cfg = dataclasses.replace(parse_config(cfg_path), model="nope")
        with pytest.raises(ConfigError, match="unknown model 'nope'"):
            run_experiment(cfg, tmp_path / "out")

    @pytest.mark.parametrize("line", ["out = x", "log_steps = true"])
    def test_output_keys_are_unknown(self, tmp_path, line):
        # where a run writes and whether it logs steps are the caller's
        # arguments to run_experiment, not config keys
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"unknown key {key!r}"):
            parse_config(_write_cfg(tmp_path / "a.cfg",
                                    GOOD_MMC + line + "\n"))

    def test_unknown_method(self, tmp_path):
        text = GOOD_MMC.replace("method = mmc", "method = abc")
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))

    def test_overrides_win(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC),
                           overrides={"seed": 99})
        assert cfg.seed == 99

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC + "oops\n"))

    @pytest.mark.parametrize("preset", PRESETS, ids=_preset_id)
    def test_shipped_preset_parses(self, preset):
        assert parse_config(preset).method in ("mc", "mmc", "gpmmc")

    @pytest.mark.parametrize("preset", PRESETS, ids=_preset_id)
    def test_shipped_preset_runs(self, preset, tmp_path, monkeypatch):
        # a full preset run takes minutes to an hour: cut the effort and the
        # Poisson grid, keep the model, method, binning, proposal and
        # surrogate keys
        overrides = {"iterations": 2, "samples_per_iteration": 100,
                     "burn_in": 10}
        if "grid_nodes" in preset.read_text():
            overrides["grid_nodes"] = 17
        cfg = parse_config(preset, overrides)
        results = []

        def recorded(*args, **kwargs):
            results.append(run_mmc(*args, **kwargs))
            return results[-1]

        run_mmc = gpmmc.harness.run_mmc
        monkeypatch.setattr(gpmmc.harness, "run_mmc", recorded)
        summary = run_experiment(cfg, tmp_path, log_steps=True)
        assert summary["method"] == cfg.method
        data = read_histogram_csv(tmp_path / "histogram.csv")
        assert data["binning"].m == cfg.bins
        causes = summary["causes"]
        if cfg.method == "mc":
            assert causes == {} and results == []
            assert not (tmp_path / "steps.csv").exists()
        else:
            # the three records of the steps agree: the step log, the
            # summary's table and the run's own tally, zeros filled in
            logged = [line.split(",")[1] for line in (
                tmp_path / "steps.csv").read_text().splitlines()[1:]]
            assert causes == {k: logged.count(k) for k in causes}
            assert sum(causes.values()) == len(logged)
            assert causes == {k: results[0].causes.get(k, 0)
                              for k in causes}
            assert set(results[0].causes) <= set(causes)
            # and eval_breakdown's step terms are the true-evaluation causes
            bd = summary["eval_breakdown"]
            assert {k: bd[k] for k in bd if k in causes} == {
                k: n for k, n in causes.items()
                if k not in ("served", "screened")}
        if preset.parent.name == "workloads":
            # the benchmark's own output checks, on the files it reads
            check_outputs, comparable_files = _bench_checks()
            written = json.loads((tmp_path / "summary.json").read_text())
            assert check_outputs(tmp_path, written) == []
            expect = {"histogram.csv", "summary.json"}
            if cfg.method == "gpmmc":
                expect.add("store.csv")
            assert set(comparable_files(tmp_path)) == expect


class TestRegisteredModel:
    """A model added to benchmarks.MODELS from outside the package, with its
    own config key, runs from a config file like the shipped ones."""

    @pytest.fixture
    def toy(self, monkeypatch):
        def shifted_normal(shift=0.0):
            return gaussian_model("shifted", lambda X: X[:, 0] + shift,
                                  np.zeros(1), np.ones(1))

        monkeypatch.setitem(gpmmc.benchmarks.MODELS, "shifted",
                            (shifted_normal, {"toy_shift": ("shift", float)}))

    TEXT = """
model = shifted
method = mc
seed = 3
bins = 8
range_lo = -4.0
range_hi = 12.0
iterations = 1
samples_per_iteration = 2000
toy_shift = 8.0
"""

    def test_own_key_parses_and_reaches_the_factory(self, toy, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", self.TEXT))
        assert cfg.model_params == {"shift": 8.0}
        summary = run_experiment(cfg, tmp_path / "out")
        assert summary["model"] == "shifted"
        assert 7.5 <= summary["moments"]["mean"] <= 8.5

    def test_default_comes_from_the_factory(self, toy, tmp_path):
        text = self.TEXT.replace("toy_shift = 8.0\n", "")
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        assert cfg.model_params == {}
        summary = run_experiment(cfg, tmp_path / "out")
        assert -0.5 <= summary["moments"]["mean"] <= 0.5

    def test_own_key_checked_against_the_model(self, toy, tmp_path):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(_write_cfg(tmp_path / "a.cfg",
                                    GOOD_MMC + "toy_shift = 1.0\n"))
        text = self.TEXT.replace("toy_shift = 8.0", "toy_shift = far")
        with pytest.raises(ConfigError, match="bad value for 'toy_shift'"):
            parse_config(_write_cfg(tmp_path / "b.cfg", text))
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(_write_cfg(tmp_path / "c.cfg",
                                    self.TEXT + "e_mean = 2.9e6\n"))


class TestNonFiniteMoments:
    """Outputs near 1e170 (y = 1e170 sin(7x)): the variance overflows to inf
    and the odd central moments are NaN. summary.json and the compare report
    must still be strict JSON, and the CLI prints such a moment as n/a."""

    TEXT = """
model = huge
method = gpmmc
seed = 1
bins = 10
range_lo = -1e170
range_hi = 1e170
iterations = 2
samples_per_iteration = 300
proposal_scale = 0.5
gamma = 1e-4
beta_max = 0.05
kernel_p = 2
initial_design = 20
"""

    @staticmethod
    def _strict(text):
        def reject(name):
            raise ValueError(f"not valid JSON: {name}")
        return json.loads(text, parse_constant=reject)

    def test_summary_and_report_are_valid_json(self, monkeypatch, tmp_path,
                                               capsys):
        monkeypatch.setitem(gpmmc.benchmarks.MODELS, "huge", (
            lambda: gaussian_model(
                "huge", lambda X: np.array([1e170 * math.sin(7.0 * x[0])
                                            for x in X]),
                np.zeros(1), np.ones(1)), {}))
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", self.TEXT))
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            run_experiment(cfg, out)
        summary = self._strict((out / "summary.json").read_text())
        assert math.isfinite(summary["moments"]["mean"])
        assert summary["moments"]["variance"] is None

        hist = str(out / "histogram.csv")
        assert cli_main(["moments", hist]) == 0
        assert "variance   n/a" in capsys.readouterr().out
        report_path = tmp_path / "report.json"
        assert cli_main(["compare", hist, hist,
                         "--json", str(report_path)]) == 0
        assert "n/a" in capsys.readouterr().out
        report = self._strict(report_path.read_text())
        assert report["baseline_moments"]["variance"] is None


class TestRunExperimentMc:
    def test_outputs_and_accounting(self, tmp_path):
        text = GOOD_MMC.replace("method = mmc", "method = mc")
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        summary = run_experiment(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "histogram.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert summary["true_evals"] == 600
        assert summary["eval_breakdown"] == {"pilot": 0, "samples": 600}
        assert summary["causes"] == {}
        assert summary["local_models_built"] == 0
        assert 0.9 <= summary["in_range_fraction"] <= 1.0
        data = read_histogram_csv(tmp_path / "out" / "histogram.csv")
        assert data["counts"][-1].sum() == summary["true_evals"] * \
            summary["in_range_fraction"]

    def test_file_density_is_the_run_density(self, tmp_path):
        """The summary moments are those of the density histogram.csv holds,
        as gpmmc moments and gpmmc compare read it, bit for bit."""
        text = GOOD_MMC.replace("method = mmc", "method = mc")
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        summary = run_experiment(cfg, tmp_path / "out")
        data = read_histogram_csv(tmp_path / "out" / "histogram.csv")
        assert estimate_moments(data["final_pdf"], data["binning"]) == \
            summary["moments"]

    def test_auto_range_runs_pilot(self, tmp_path):
        text = GOOD_MMC.replace("method = mmc", "method = mc")
        text = text.replace("range_lo = -1.0\nrange_hi = 34.0\n",
                            "range = auto\n")
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        summary = run_experiment(cfg, tmp_path / "out")
        assert summary["eval_breakdown"]["pilot"] == 1000
        assert summary["true_evals"] == 1600
        assert summary["binning"]["lo"] < summary["binning"]["hi"]

    def test_output_dir_required(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_MMC)
        with pytest.raises(TypeError, match="out_dir"):
            run_experiment(parse_config(cfg_path))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", cfg_path])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err


class TestRunExperimentMmc:
    def test_outputs_and_accounting(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC))
        summary = run_experiment(cfg, tmp_path / "out")
        bd = summary["eval_breakdown"]
        assert summary["true_evals"] == (bd["pilot"] + bd["initial_design"]
                                         + bd["start_draws"] + bd["chain"])
        assert bd["chain"] == 2 * (300 + 30)
        assert summary["causes"] == {"chain": bd["chain"]}
        assert summary["local_models_built"] == 0
        assert summary["burn_in"] == 30
        assert len(summary["flatness"]) == 2
        assert len(summary["acceptance"]) == 2
        assert all(0.0 < a < 1.0 for a in summary["acceptance"])
        data = read_histogram_csv(tmp_path / "out" / "histogram.csv")
        assert data["iterations"] == [0, 1]
        assert data["counts"].shape == data["thetas"].shape == (2, 10)
        assert all(c.sum() == 300 for c in data["counts"])
        # final density integrates to one
        binning = data["binning"]
        assert data["final_pdf"].sum() * binning.delta == pytest.approx(1.0)

    def test_file_density_is_the_run_density(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC))
        summary = run_experiment(cfg, tmp_path / "out")
        data = read_histogram_csv(tmp_path / "out" / "histogram.csv")
        assert estimate_moments(data["final_pdf"], data["binning"]) == \
            summary["moments"]

    def test_default_burn_in(self, tmp_path):
        text = GOOD_MMC.replace("burn_in = 30\n", "")
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        summary = run_experiment(cfg, tmp_path / "out")
        assert summary["burn_in"] == 30  # a tenth of 300

    def test_uncounted_true_evaluation_is_caught(self, tmp_path,
                                                 monkeypatch):
        # the ledger must equal the sum of its causes: one true evaluation
        # that no breakdown term counts fails the run
        class LeakyKernel(gpmmc.harness.ExactKernel):
            leaked = False

            def step(self, x_new, *rest):
                if not self.leaked:
                    self.leaked = True
                    evaluate(self.model, x_new, self.ledger)
                return super().step(x_new, *rest)

        monkeypatch.setattr(gpmmc.harness, "ExactKernel", LeakyKernel)
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC))
        with pytest.raises(RuntimeError, match="ledger mismatch"):
            run_experiment(cfg, tmp_path / "out")

    def test_step_log(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC))
        run_experiment(cfg, tmp_path / "plain")
        assert not (tmp_path / "plain" / "steps.csv").exists()
        run_experiment(cfg, tmp_path / "out", log_steps=True)
        lines = (tmp_path / "out" / "steps.csv").read_text().splitlines()
        assert lines[0] == "step,cause,beta,accepted"
        assert len(lines) - 1 == 2 * (300 + 30)
        assert {line.split(",")[1] for line in lines[1:]} == {"chain"}


class TestRunExperimentGpmmc:
    def test_outputs_and_accounting(self, tmp_path, monkeypatch):
        builds = []
        build = gpmmc.gp.build_local_surrogate

        def counted(store, idx):
            gp = build(store, idx)
            builds.append(idx)
            return gp

        monkeypatch.setattr(gpmmc.gp, "build_local_surrogate", counted)
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_GPMMC))
        summary = run_experiment(cfg, tmp_path / "out")
        # every model built and cached, and nothing else
        assert summary["local_models_built"] == len(builds) > 0
        bd = summary["eval_breakdown"]
        assert bd["initial_design"] == 30
        refines = (bd["refine_random"] + bd["refine_beta"]
                   + bd["refine_fallback"])
        assert summary["true_evals"] == (bd["pilot"] + bd["initial_design"]
                                         + bd["start_draws"] + refines)
        # the surrogate answered most steps
        assert summary["true_evals"] < 2 * (300 + 30) * 0.8 + 30
        causes = summary["causes"]
        assert list(causes) == ["served", "screened", "refine_random",
                                "refine_beta", "refine_fallback"]
        assert causes["served"] > 0
        assert (tmp_path / "out" / "store.csv").exists()
        assert summary["store_size"] >= 30

    def test_store_matches_refinements(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_GPMMC))
        summary = run_experiment(cfg, tmp_path / "out")
        rows = np.loadtxt(tmp_path / "out" / "store.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape == (summary["store_size"], 3)

    def test_rerun_leaves_no_file_of_an_earlier_run(self, tmp_path,
                                                    monkeypatch):
        """A run into a directory that holds another run's files removes
        them first: an mmc run after a logged gpmmc run leaves no store or
        step log, and a run that fails leaves no summary."""
        out = tmp_path / "out"
        (out / "notes.txt").parent.mkdir()
        (out / "notes.txt").write_text("kept\n")
        run_experiment(parse_config(_write_cfg(tmp_path / "a.cfg",
                                               GOOD_GPMMC)),
                       out, log_steps=True)
        assert (out / "store.csv").exists() and (out / "steps.csv").exists()
        mmc = parse_config(_write_cfg(tmp_path / "b.cfg", GOOD_MMC))
        run_experiment(mmc, out)
        assert sorted(p.name for p in out.iterdir()) == [
            "histogram.csv", "notes.txt", "summary.json"]

        def failed(*args, **kwargs):
            raise RuntimeError("chain failed")

        monkeypatch.setattr(gpmmc.harness, "run_mmc", failed)
        with pytest.raises(RuntimeError, match="chain failed"):
            run_experiment(mmc, out)
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    def test_summary_records_the_frozen_lengthscales(self, tmp_path,
                                                      monkeypatch):
        kernels = []
        fit = gpmmc.harness.fit_surrogate_kernel

        def kept(*args, **kwargs):
            kernels.append(fit(*args, **kwargs))
            return kernels[-1]

        monkeypatch.setattr(gpmmc.harness, "fit_surrogate_kernel", kept)
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_GPMMC))
        run_experiment(cfg, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        lengths = np.array(summary["lengthscales"])
        assert lengths.shape == (2,)
        np.testing.assert_array_equal(lengths, kernels[0].store.lengths)
        for method in ("mmc", "mc"):
            text = GOOD_MMC.replace("method = mmc", f"method = {method}")
            cfg = parse_config(_write_cfg(tmp_path / "b.cfg", text))
            run_experiment(cfg, tmp_path / method)
            summary = json.loads(
                (tmp_path / method / "summary.json").read_text())
            assert "lengthscales" not in summary

    def test_small_design_rejected(self, tmp_path):
        text = GOOD_GPMMC.replace("initial_design = 30",
                                  "initial_design = 1")
        with pytest.raises(ConfigError, match="initial_design"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))

    def test_vector_scale_length_checked(self, tmp_path, monkeypatch):
        text = GOOD_GPMMC.replace("range_lo = -1.0\nrange_hi = 34.0\n",
                                  "range = auto\n")
        text += "proposal_scale = 0.5, 0.5, 0.5\n"
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))

        def no_pilot(*args):
            raise AssertionError("pilot ran before the proposal check")

        monkeypatch.setattr(gpmmc.harness, "pilot_output_range", no_pilot)
        with pytest.raises(ConfigError, match="proposal_scale"):
            run_experiment(cfg, tmp_path / "out")


class TestReproducibility:
    @pytest.mark.parametrize("text", [GOOD_MMC, GOOD_GPMMC],
                             ids=["mmc", "gpmmc"])
    def test_runs_are_byte_identical(self, tmp_path, text):
        cfg_path = _write_cfg(tmp_path / "a.cfg", text)
        for d in ("one", "two"):
            cfg = parse_config(cfg_path)
            run_experiment(cfg, tmp_path / d)
        h1 = (tmp_path / "one" / "histogram.csv").read_bytes()
        h2 = (tmp_path / "two" / "histogram.csv").read_bytes()
        assert h1 == h2
        s1 = json.loads((tmp_path / "one" / "summary.json").read_text())
        s2 = json.loads((tmp_path / "two" / "summary.json").read_text())
        s1.pop("runtime_seconds")
        s2.pop("runtime_seconds")
        assert s1 == s2
        if "gpmmc" in text:
            assert (tmp_path / "one" / "store.csv").read_bytes() == \
                (tmp_path / "two" / "store.csv").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_MMC)
        run_experiment(parse_config(cfg_path), tmp_path / "one")
        run_experiment(parse_config(cfg_path, overrides={"seed": 12}),
                       tmp_path / "two")
        assert (tmp_path / "one" / "histogram.csv").read_bytes() != \
            (tmp_path / "two" / "histogram.csv").read_bytes()


class TestCompare:
    def _run(self, tmp_path, text, name, seed=None):
        overrides = {} if seed is None else {"seed": seed}
        cfg = parse_config(_write_cfg(tmp_path / f"{name}.cfg", text),
                           overrides)
        run_experiment(cfg, tmp_path / name)
        return tmp_path / name / "histogram.csv"

    def test_self_comparison_is_exact(self, tmp_path):
        h = self._run(tmp_path, GOOD_MMC, "base")
        report = compare_pdfs(h, h)
        assert report.max_rel_err == 0.0
        assert report.avg_rel_err == 0.0
        assert report.compared_bins > 0
        assert report.baseline_moments == report.candidate_moments

    def test_two_seeds_disagree_mildly(self, tmp_path):
        a = self._run(tmp_path, GOOD_MMC, "a")
        b = self._run(tmp_path, GOOD_MMC, "b", seed=12)
        report = compare_pdfs(a, b)
        assert report.max_rel_err > 0.0

    def test_mismatched_binning_rejected(self, tmp_path):
        a = self._run(tmp_path, GOOD_MMC, "a")
        text = GOOD_MMC.replace("bins = 10", "bins = 12")
        b = self._run(tmp_path, text, "b")
        with pytest.raises(ConfigError, match="binnings differ"):
            compare_pdfs(a, b)

    def test_all_zero_candidate_has_no_moments(self, tmp_path, capsys):
        base = self._run(tmp_path, GOOD_MMC.replace("method = mmc",
                                                    "method = mc"), "base")
        # the same plain-MC file with every count zero: what a run whose
        # range holds no output writes
        lines = base.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for r in rows:
            r[5] = "0"
        empty = tmp_path / "empty.csv"
        empty.write_text("\n".join([lines[0]] + [",".join(r) for r in rows])
                         + "\n")
        report = compare_pdfs(base, empty)
        assert report.compared_bins > 0
        assert report.max_rel_err == report.avg_rel_err == 1.0
        assert report.candidate_moments is None
        assert report.baseline_moments["mean"] is not None
        assert cli_main(["compare", str(base), str(empty)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        mean = next(r for r in rows if r[0] == "mean")
        assert mean[2] == "n/a" and mean[1] != "n/a"


@pytest.fixture(scope="module")
def mmc_histogram(tmp_path_factory):
    """The lines of a two-iteration, ten-bin histogram.csv."""
    d = tmp_path_factory.mktemp("mmc")
    run_experiment(parse_config(_write_cfg(d / "a.cfg", GOOD_MMC)), d / "out")
    return (d / "out" / "histogram.csv").read_text().splitlines()


def _damaged(lines, damage):
    if damage == "truncated":  # cut inside iteration 1
        return lines[:14]
    if damage == "header_only":
        return lines[:1]
    if damage == "wrong_header":
        return [lines[0].replace("pdf", "density")] + lines[1:]
    rows = [line.split(",") for line in lines[1:]]
    if damage == "garbled":
        rows[3][5] = "x"
    elif damage == "short_row":
        rows[3].pop()
    elif damage == "negative_count":
        rows[3][5] = "-5"
    elif damage == "empty_iteration":
        for r in rows[10:]:
            r[5] = "0"
    else:  # "zero_theta"
        rows[13][7] = "0.0"
    return [lines[0]] + [",".join(r) for r in rows]


def test_zero_theta_rejected_in_a_file_without_counts(tmp_path,
                                                     mmc_histogram):
    """A file with no in-range counts reads as zero density, and its
    weights are checked all the same."""
    rows = [line.split(",") for line in mmc_histogram[1:]]
    for r in rows:
        r[5] = "0"
    path = tmp_path / "empty.csv"

    def write():
        path.write_text("\n".join([mmc_histogram[0]]
                                  + [",".join(r) for r in rows]) + "\n")

    write()
    assert not read_histogram_csv(path)["final_pdf"].any()
    rows[13][7] = "0.0"
    write()
    with pytest.raises(ConfigError, match="positive and finite"):
        read_histogram_csv(path)


class TestCli:
    def test_run_and_moments_and_compare(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_MMC)
        out = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "true evaluations" in captured
        assert "moments" in captured

        hist = str(out / "histogram.csv")
        assert cli_main(["moments", hist]) == 0
        assert "mean" in capsys.readouterr().out

        report_path = tmp_path / "report.json"
        assert cli_main(["compare", hist, hist,
                         "--json", str(report_path)]) == 0
        assert "max relative err" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["max_rel_err"] == 0.0

    def test_missing_config_is_reported(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_is_reported(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_MMC + "bogus = 1\n")
        assert cli_main(["run", cfg_path, "--out",
                         str(tmp_path / "out")]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True],
                             ids=["out_is_a_file", "parent_is_a_file"])
    def test_unusable_output_dir_is_reported(self, tmp_path, capsys, under):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_MMC)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if under else afile
        assert cli_main(["run", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert afile.read_text() == "kept\n"
        assert list(tmp_path.rglob("summary.json")) == []

    def test_logged_gpmmc_run(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_GPMMC)
        out = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out),
                         "--log-steps"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "steps by cause    " + "  ".join(
            f"{k} {n}" for k, n in summary["causes"].items()) in \
            capsys.readouterr().out
        rows = [line.split(",") for line in
                (out / "steps.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 * (300 + 30)
        # every local posterior made left its beta in the step log
        c = summary["causes"]
        assert c["served"] + c["screened"] + c["refine_beta"] == sum(
            r[2] != "" for r in rows)
        # and its cause: each cause can be picked out of the file
        causes = [r[1] for r in rows]
        assert c == {k: causes.count(k) for k in c}
        for cause in ("refine_random", "refine_beta", "refine_fallback"):
            assert summary["eval_breakdown"][cause] == causes.count(cause)

    @pytest.mark.parametrize("line", ["kernel_p = 3", "gamma = 2",
                                      "beta_max = 0", "initial_design = 1"])
    def test_bad_surrogate_setting_is_reported_before_the_run(
            self, tmp_path, capsys, line):
        # the later line wins, so this replaces the good value
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_GPMMC + line + "\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert not out.exists()  # rejected before the run began

    @pytest.mark.parametrize("method", ["mc", "mmc", "gpmmc"])
    def test_negative_seed_option_is_reported_before_the_run(
            self, tmp_path, capsys, method):
        text = GOOD_GPMMC.replace("method = gpmmc", f"method = {method}")
        cfg_path = _write_cfg(tmp_path / "a.cfg", text)
        out = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--seed", "-1",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be")
        assert not out.exists()

    def test_seed_override(self, tmp_path):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_MMC)
        assert cli_main(["run", cfg_path, "--seed", "12",
                         "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 12

    @pytest.mark.parametrize("line", [
        "bins = 0", "iterations = 0", "samples_per_iteration = 0",
        "burn_in = 300", "range_hi = -1.0", "proposal_scale = 0.5, 0",
        # an auto range would spend 1,000 pilot evaluations first
        "range = auto\nproposal_scale = -1", "seed = -3",
        # surrogate keys are checked on runs that do not use them too
        "gamma = 7", "kernel_p = 9", "initial_design = 0",
        "method = mc\nbeta_max = 1"])
    def test_bad_run_key_is_reported_before_the_run(self, tmp_path, capsys,
                                                    line):
        # the later line wins, so this replaces the good value; range = auto
        # does not combine with an explicit range, so that one is dropped
        base = GOOD_MMC
        if line.startswith("range = auto"):
            base = base.replace("range_lo = -1.0\nrange_hi = 34.0\n", "")
        cfg_path = _write_cfg(tmp_path / "a.cfg", base + line + "\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("model, lines", [
        ("min_distance", "dimension = 3\ncenters = 1,2 ; 3,4"),
        ("min_distance", "dimension = 0"),
        ("poisson_kl", "grid_nodes = 9\nkl_modes = 100")],
        ids=["centers_of_other_dimension", "no_dimension", "too_many_modes"])
    def test_bad_model_value_is_reported_before_the_run(self, tmp_path,
                                                        capsys, model, lines):
        text = GOOD_MMC.replace("model = min_distance", f"model = {model}")
        cfg_path = _write_cfg(tmp_path / "a.cfg", text + lines + "\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: model {model!r}")
        assert not out.exists()

    def test_moments_of_an_empty_range_are_reported(self, tmp_path, capsys):
        text = (GOOD_MMC.replace("method = mmc", "method = mc")
                .replace("range_lo = -1.0", "range_lo = 100.0")
                .replace("range_hi = 34.0", "range_hi = 101.0"))
        out = tmp_path / "out"
        assert cli_main(["run", _write_cfg(tmp_path / "a.cfg", text),
                         "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["moments"] \
            is None
        hist = str(out / "histogram.csv")
        capsys.readouterr()
        assert cli_main(["moments", hist]) == 2
        assert capsys.readouterr().err.startswith(f"error: {hist}")
        # nor is it a baseline to compare against
        assert cli_main(["compare", hist, hist]) == 2
        assert capsys.readouterr().err == (
            f"error: {hist}: baseline density is all zero\n")

    @pytest.mark.parametrize("command", ["moments", "compare"])
    @pytest.mark.parametrize("damage", ["truncated", "garbled", "short_row",
                                        "negative_count", "empty_iteration",
                                        "zero_theta", "wrong_header",
                                        "header_only"])
    def test_damaged_histogram_is_reported(self, tmp_path, capsys,
                                           mmc_histogram, command, damage):
        good = tmp_path / "good.csv"
        good.write_text("\n".join(mmc_histogram) + "\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(_damaged(mmc_histogram, damage)) + "\n")
        args = [str(bad)] if command == "moments" else [str(good), str(bad)]
        assert cli_main([command, *args]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}")
