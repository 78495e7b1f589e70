"""Config parsing: defaults, strict key checking, mode-specific sections."""

from pathlib import Path

import numpy as np
import pytest

from spreadbandits.config import RunConfig, load_config, parse_config
from spreadbandits.errors import ParseError, ValidationError

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

    def test_verify_minimal(self):
        cfg = parse_config("[run]\nmode = verify\n")
        assert cfg.mode == "verify"
        assert cfg.T is None

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
        self.assert_names("[run]\nmode = train\nT = 10\n", "mode")

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

    def test_verify_rejects_instance(self):
        self.assert_names(
            "[instance]\nmeans = [[2.0, 0.0], [1.0, 0.0]]\n"
            "variances = [1.0, 1.0]\n\n[run]\nmode = verify\n", "instance")

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
            parse_config("[run\nmode = verify\n")

    def test_duplicate_section(self):
        with pytest.raises(ParseError):
            parse_config("[run]\nmode = verify\n[run]\nseed = 1\n")

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
            cfg = RunConfig(mode="verify", seed=seed)
            assert json.dumps(cfg.to_dict()["seed"]) == "3" == str(cfg.seed)

    def test_comments_ignored(self):
        cfg = parse_config(SIMULATE + "# trailing comment\nseed = 4  # four\n")
        assert cfg.seed == 4

    def test_direct_construction(self):
        cfg = RunConfig(mode="verify")
        assert cfg.policies == ("wts",)

    def test_rule_message_names_field_alone(self):
        # the value may come from --seed or a Python call, not a [run] line
        with pytest.raises(ValidationError,
                           match=r"^seed must be an integer >= 0, got -1$"):
            RunConfig(mode="verify", seed=-1)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_configs_load(self, path):
        assert load_config(str(path)).mode == path.stem
