"""Config parsing: defaults, strict key checking, mode-specific sections."""

from pathlib import Path

import numpy as np
import pytest

from spreadbandits import KINDS, run
from spreadbandits.config import RunConfig, load_config, parse_config
from spreadbandits.core import BanditInstance
from spreadbandits.errors import ParseError, ValidationError
from spreadbandits.sysid import GainProblem

SIMULATE = """\
[instance]
means = [[2.0, 0.0], [1.0, 0.0]]
variances = [1.0, 0.5]

[run]
mode = simulate
T = 100
"""

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))

GAIN = """\
[gain]
g_coeffs = [0.5, 0.5]
h_coeffs = [1.0]
K = 4

[run]
mode = gain
T = 50
"""


class TestDefaults:
    def test_simulate_defaults(self):
        cfg = parse_config(SIMULATE)
        assert cfg.mode == "simulate"
        assert cfg.T == 100
        assert cfg.replications == 1
        assert cfg.seed == 0
        assert cfg.policies == ("wts",)
        assert cfg.mc_samples == 1024
        assert cfg.thin == 1
        assert cfg.out == "trace"
        np.testing.assert_array_equal(cfg.means,
                                      [[2.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(cfg.variances, [1.0, 0.5])

    def test_gain_fields(self):
        cfg = parse_config(GAIN)
        assert cfg.mode == "gain"
        assert cfg.K == 4
        np.testing.assert_array_equal(cfg.g_coeffs, [0.5, 0.5])
        np.testing.assert_array_equal(cfg.h_coeffs, [1.0])

    def test_all_run_keys(self):
        cfg = parse_config(SIMULATE.replace(
            "T = 100",
            "T = 100\nreplications = 7\nseed = 3\n"
            "policies = [wts, oracle]\nmc_samples = 64\nthin = 5\n"
            "out = results/x"))
        assert cfg.replications == 7
        assert cfg.seed == 3
        assert cfg.policies == ("wts", "oracle")
        assert cfg.mc_samples == 64
        assert cfg.thin == 5
        assert cfg.out == "results/x"


class TestValidationErrors:
    def assert_names(self, text, fragment):
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert fragment in str(exc.value)

    def test_misspelled_key_is_named(self):
        self.assert_names(SIMULATE.replace("variances", "varience"),
                          "varience")

    def test_unknown_section_is_named(self):
        self.assert_names(SIMULATE + "\n[extras]\nfoo = 1\n", "extras")

    def test_unknown_run_key(self):
        self.assert_names(SIMULATE + "horizon = 5\n", "horizon")

    def test_small_horizon_names_bound(self):
        self.assert_names(SIMULATE.replace("T = 100", "T = 3"), "T")

    def test_negative_seed_names_field(self):
        self.assert_names(SIMULATE + "seed = -1\n", "seed")

    def test_missing_mode(self):
        self.assert_names("[run]\nT = 10\n", "mode")

    def test_unknown_mode(self):
        for mode in ("train", "verify"):
            self.assert_names(f"[run]\nmode = {mode}\nT = 10\n",
                              f"mode: expected one of simulate, gain, "
                              f"got {mode!r}")

    def test_simulate_needs_instance(self):
        self.assert_names("[run]\nmode = simulate\nT = 10\n", "instance")

    def test_simulate_needs_T(self):
        self.assert_names(
            "[instance]\nmeans = [[2.0, 0.0], [1.0, 0.0]]\n"
            "variances = [1.0, 1.0]\n\n[run]\nmode = simulate\n", "T")

    def test_simulate_rejects_gain_section(self):
        self.assert_names(SIMULATE + "\n[gain]\ng_coeffs = [1.0]\n"
                          "h_coeffs = [1.0]\nK = 2\n", "gain")

    def test_gain_needs_gain_section(self):
        self.assert_names("[run]\nmode = gain\nT = 10\n", "gain")

    def test_gain_missing_field(self):
        self.assert_names(GAIN.replace("h_coeffs = [1.0]\n", ""), "h_coeffs")

    def test_unknown_policy_named(self):
        self.assert_names(
            SIMULATE + "policies = [wts, greedy]\n", "greedy")

    def test_duplicate_policies(self):
        self.assert_names(SIMULATE + "policies = [wts, wts]\n", "duplicate")

    def test_int_fields_reject_floats(self):
        self.assert_names(SIMULATE.replace("T = 100", "T = 100.5"), "T")
        self.assert_names(SIMULATE + "seed = 1e3\n", "seed")

    def test_bad_number_list(self):
        self.assert_names(SIMULATE.replace("[1.0, 0.5]", "[1.0, oops]"),
                          "variances")

    def test_ragged_means(self):
        self.assert_names(
            SIMULATE.replace("[[2.0, 0.0], [1.0, 0.0]]",
                             "[[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]"), "means")

    def test_default_section_key_rejected(self):
        self.assert_names("[DEFAULT]\nmode = simulate\n" + SIMULATE, "mode")

    def test_unbuildable_instance_wrapped(self):
        # structurally fine, semantically broken: zero variance
        self.assert_names(SIMULATE.replace("[1.0, 0.5]", "[1.0, 0.0]"),
                          "valid problem")

    def test_tied_peak_wrapped(self):
        self.assert_names(GAIN.replace("[0.5, 0.5]", "[1.0]"),
                          "valid problem")


class TestParseErrors:
    def test_bad_syntax(self):
        with pytest.raises(ParseError):
            parse_config("[run\nmode = simulate\n")

    def test_duplicate_section(self):
        with pytest.raises(ParseError):
            parse_config("[run]\nmode = simulate\n[run]\nseed = 1\n")

    def test_key_before_any_section(self):
        with pytest.raises(ParseError):
            parse_config("mode = simulate\n" + SIMULATE)


class TestRoundTrip:
    def test_load_config(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(SIMULATE)
        cfg = load_config(str(path))
        assert cfg.T == 100

    def test_replaced(self):
        cfg = parse_config(SIMULATE)
        assert cfg.replaced(seed=9).seed == 9
        assert cfg.seed == 0

    def test_to_dict_is_json_plain(self):
        import json
        d = parse_config(SIMULATE).to_dict()
        json.dumps(d)
        assert d["means"] == [[2.0, 0.0], [1.0, 0.0]]
        d = parse_config(GAIN).to_dict()
        json.dumps(d)
        assert d["K"] == 4
        # built in Python, an integer field may be a numpy int or 3.0
        for seed in (np.int64(3), 3.0):
            cfg = RunConfig(**VALID["simulate"], seed=seed)
            assert json.dumps(cfg.to_dict()["seed"]) == "3" == str(cfg.seed)

    def test_comments_ignored(self):
        cfg = parse_config(SIMULATE + "# trailing comment\nseed = 4  # four\n")
        assert cfg.seed == 4

    def test_direct_construction(self):
        cfg = RunConfig(**VALID["simulate"])
        assert cfg.policies == ("wts",)

    def test_direct_construction_rejects_other_mode_field(self):
        # parse_config stops a foreign section before it gets here
        with pytest.raises(ValidationError,
                           match=r"^K: not used in simulate mode$"):
            RunConfig(mode="simulate", T=10, means=[[2.0, 0.0], [1.0, 0.0]],
                      variances=[1.0, 1.0], K=4)

    def test_rule_message_names_field_alone(self):
        # the value may come from --seed or a Python call, not a [run] line
        with pytest.raises(ValidationError,
                           match=r"^seed must be an integer >= 0, got -1$"):
            RunConfig(**VALID["simulate"], seed=-1)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_configs_load(self, path):
        assert load_config(str(path)).mode == path.stem


# a valid config of each mode, built in Python
VALID = {
    "simulate": dict(mode="simulate", T=10, means=[[2.0, 0.0], [1.0, 0.0]],
                     variances=[1.0, 0.5]),
    "gain": dict(mode="gain", T=10, g_coeffs=[0.5, 0.5], h_coeffs=[1.0],
                 K=4),
}
# fields that keep every run rule but describe no valid problem
UNBUILDABLE = {
    "tied-means": ("simulate", {"means": [[1.0, 0.0], [0.0, 1.0]]}),
    "zero-variance": ("simulate", {"variances": [1.0, 0.0]}),
    "means-2x3": ("simulate", {"means": [[2.0, 0.0, 0.0],
                                         [1.0, 0.0, 0.0]]}),
    "tied-gain-peak": ("gain", {"g_coeffs": [1.0]}),
    "means-not-numbers": ("simulate", {"means": [["a", 0.0], [1.0, 0.0]]}),
}


class TestInstance:
    @pytest.mark.parametrize("mode,bad", UNBUILDABLE.values(),
                             ids=UNBUILDABLE)
    def test_unbuildable_problem_refused_when_built(self, mode, bad):
        with pytest.raises(ValidationError, match="valid problem"):
            RunConfig(**{**VALID[mode], **bad})
        with pytest.raises(ValidationError, match="valid problem"):
            RunConfig(**VALID[mode]).replaced(**bad)

    def test_instance_is_not_a_field(self):
        for mode, kw in VALID.items():
            cfg = RunConfig(**kw)
            assert isinstance(cfg.instance, BanditInstance)
            assert cfg.replaced(seed=1).instance.k_star == cfg.instance.k_star
            assert "instance" not in cfg.to_dict()
            with pytest.raises(AttributeError):
                cfg.instance = None

    def test_gain_problem_is_not_a_field(self):
        cfg = RunConfig(**VALID["gain"])
        assert isinstance(cfg.problem, GainProblem)
        assert cfg.instance is cfg.problem.instance
        assert cfg.problem.peak_bin == cfg.instance.k_star
        assert "problem" not in cfg.to_dict()
        with pytest.raises(AttributeError):
            cfg.problem = None
        assert RunConfig(**VALID["simulate"]).problem is None

    def test_instance_keeps_its_own_arrays(self):
        # a write to the caller's array cannot leave k_star and gaps stale
        means = np.array([[2.0, 0.0], [1.0, 0.0]])
        cfg = RunConfig(**{**VALID["simulate"], "means": means})
        means[0] = 0.0
        assert cfg.instance.means.tolist() == [[2.0, 0.0], [1.0, 0.0]]
        assert not cfg.instance.means.flags.writeable

    def test_run_builds_no_instance(self, tmp_path, monkeypatch):
        # the config built its instance; the tasks and the sidecar read it
        cfgs = [RunConfig(**kw, policies=KINDS, replications=2,
                          out=str(tmp_path / mode))
                for mode, kw in VALID.items()]
        built = []
        real = BanditInstance.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(BanditInstance, "__post_init__", counted)
        for cfg in cfgs:
            run(cfg, quiet=True)
        assert built == []
