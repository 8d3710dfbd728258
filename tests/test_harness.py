import json
import math
from pathlib import Path

import numpy as np
import pytest

import gpmmc.problem
from gpmmc import (ConfigError, compare_pdfs, estimate_moments,
                   gaussian_model, parse_config, read_histogram_csv,
                   register_model, run_experiment)
from gpmmc.cli import main as cli_main

PRESETS = sorted((Path(__file__).resolve().parent.parent / "configs")
                 .glob("*.cfg"))


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

    def test_unknown_method(self, tmp_path):
        text = GOOD_MMC.replace("method = mmc", "method = abc")
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))

    def test_overrides_win(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC),
                           overrides={"seed": 99, "out": "somewhere"})
        assert cfg.seed == 99
        assert cfg.out == "somewhere"

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC + "oops\n"))

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.name)
    def test_shipped_preset_parses(self, preset):
        # parsed only: a full preset run takes minutes to an hour
        assert parse_config(preset).method in ("mc", "mmc", "gpmmc")


class TestRegisteredModel:
    """A model registered outside the package, with its own config key,
    runs from a config file like the shipped ones."""

    @pytest.fixture
    def toy(self, monkeypatch):
        monkeypatch.setattr(gpmmc.problem, "_REGISTRY",
                            dict(gpmmc.problem._REGISTRY))

        def shifted_normal(shift=0.0):
            return gaussian_model("shifted", lambda x: float(x[0]) + shift,
                                  np.zeros(1), np.ones(1))

        register_model("shifted", shifted_normal,
                       {"toy_shift": ("shift", float)})

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
        monkeypatch.setattr(gpmmc.problem, "_REGISTRY",
                            dict(gpmmc.problem._REGISTRY))
        register_model("huge", lambda: gaussian_model(
            "huge", lambda x: 1e170 * math.sin(7.0 * x[0]),
            np.zeros(1), np.ones(1)), {})
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
        assert summary["surrogate_evals"] == 0
        assert 0.9 <= summary["in_range_fraction"] <= 1.0
        data = read_histogram_csv(tmp_path / "out" / "histogram.csv")
        assert data["counts"][-1].sum() == summary["true_evals"] * \
            summary["in_range_fraction"]

    def test_auto_range_runs_pilot(self, tmp_path):
        text = GOOD_MMC.replace("method = mmc", "method = mc")
        text = text.replace("range_lo = -1.0\nrange_hi = 34.0\n",
                            "range = auto\n")
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
        summary = run_experiment(cfg, tmp_path / "out")
        assert summary["eval_breakdown"]["pilot"] == 1000
        assert summary["true_evals"] == 1600
        assert summary["binning"]["lo"] < summary["binning"]["hi"]

    def test_output_dir_required(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC))
        with pytest.raises(ConfigError, match="output directory"):
            run_experiment(cfg)


class TestRunExperimentMmc:
    def test_outputs_and_accounting(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC))
        summary = run_experiment(cfg, tmp_path / "out")
        bd = summary["eval_breakdown"]
        assert summary["true_evals"] == (bd["pilot"] + bd["initial_design"]
                                         + bd["start_draws"] + bd["chain"])
        assert bd["chain"] == 2 * (300 + 30)
        assert summary["burn_in"] == 30
        assert len(summary["flatness"]) == 2
        assert len(summary["acceptance"]) == 2
        assert all(0.0 < a < 1.0 for a in summary["acceptance"])
        data = read_histogram_csv(tmp_path / "out" / "histogram.csv")
        assert data["iterations"] == [0, 1]
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

    def test_step_log(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_MMC),
                           overrides={"log_steps": True})
        run_experiment(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "steps.csv").read_text().splitlines()
        assert lines[0] == "step,used_surrogate,beta,refined,accepted"
        assert len(lines) - 1 == 2 * (300 + 30)


class TestRunExperimentGpmmc:
    def test_outputs_and_accounting(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_GPMMC))
        summary = run_experiment(cfg, tmp_path / "out")
        bd = summary["eval_breakdown"]
        assert bd["initial_design"] == 30
        refines = (bd["refine_random"] + bd["refine_beta"]
                   + bd["refine_fallback"])
        assert summary["true_evals"] == (bd["pilot"] + bd["initial_design"]
                                         + bd["start_draws"] + refines)
        # the surrogate answered most steps
        assert summary["true_evals"] < 2 * (300 + 30) * 0.8 + 30
        assert summary["surrogate_evals"] > 0
        assert (tmp_path / "out" / "store.csv").exists()
        assert summary["store_size"] >= 30

    def test_store_matches_refinements(self, tmp_path):
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", GOOD_GPMMC))
        summary = run_experiment(cfg, tmp_path / "out")
        rows = np.loadtxt(tmp_path / "out" / "store.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape == (summary["store_size"], 3)

    def test_small_design_rejected(self, tmp_path):
        text = GOOD_GPMMC.replace("initial_design = 30",
                                  "initial_design = 1")
        with pytest.raises(ConfigError, match="initial_design"):
            parse_config(_write_cfg(tmp_path / "a.cfg", text))

    def test_vector_scale_length_checked(self, tmp_path):
        text = GOOD_GPMMC + "proposal_scale = 0.5, 0.5, 0.5\n"
        cfg = parse_config(_write_cfg(tmp_path / "a.cfg", text))
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
        assert cli_main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_is_reported(self, tmp_path, capsys):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_MMC + "bogus = 1\n")
        assert cli_main(["run", cfg_path]) == 2
        assert "unknown key" in capsys.readouterr().err

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

    def test_seed_override(self, tmp_path):
        cfg_path = _write_cfg(tmp_path / "a.cfg", GOOD_MMC)
        assert cli_main(["run", cfg_path, "--seed", "12",
                         "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 12
