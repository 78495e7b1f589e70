"""Command-line interface: subcommands, overrides, exit codes."""

import json
from pathlib import Path

import pytest

from spreadbandits import cli
from spreadbandits.cli import main
from spreadbandits.verify import CheckResult


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def sim_cfg(tmp_path):
    return write(tmp_path, "sim.cfg", f"""\
[instance]
means = [[2.0, 0.0], [1.0, 0.0]]
variances = [0.5, 1.0]

[run]
mode = simulate
T = 25
replications = 2
policies = [uniform, oracle]
out = {tmp_path / 'trace'}
""")


@pytest.fixture
def gain_cfg(tmp_path):
    return write(tmp_path, "gain.cfg", f"""\
[gain]
g_coeffs = [0.5, 0.5]
h_coeffs = [1.0]
K = 3

[run]
mode = gain
T = 20
mc_samples = 64
out = {tmp_path / 'gtrace'}
""")


class TestSimulate:
    def test_writes_trace_files(self, tmp_path, sim_cfg, capsys):
        assert main(["simulate", "--config", sim_cfg]) == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "trace.json").exists()
        head = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert head == "policy,replication,t,regret_step,regret_cum"
        out = capsys.readouterr().out
        assert "uniform" in out and "oracle" in out

    def test_out_override(self, tmp_path, sim_cfg, capsys):
        alt = str(tmp_path / "elsewhere" / "run")
        assert main(["simulate", "--config", sim_cfg, "--out", alt]) == 0
        assert (tmp_path / "elsewhere" / "run.csv").exists()

    def test_seed_override_changes_output(self, tmp_path, sim_cfg, capsys):
        # needs a stochastic policy: oracle/uniform traces are seed-free
        cfg = write(tmp_path, "seeded.cfg",
                    Path(sim_cfg).read_text().replace("[uniform, oracle]",
                                                 "[ts_known]"))
        main(["simulate", "--config", cfg])
        base = (tmp_path / "trace.csv").read_bytes()
        main(["simulate", "--config", cfg, "--seed", "1"])
        assert (tmp_path / "trace.csv").read_bytes() != base
        main(["simulate", "--config", cfg, "--seed", "0"])
        assert (tmp_path / "trace.csv").read_bytes() == base

    def test_mode_command_mismatch(self, tmp_path, gain_cfg, capsys):
        assert main(["simulate", "--config", gain_cfg]) == 2
        assert "gain" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["simulate", "--config",
                     str(tmp_path / "nope.cfg")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_names_field(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.cfg", """\
[instance]
means = [[2.0, 0.0], [1.0, 0.0]]
varience = [0.5, 1.0]

[run]
mode = simulate
T = 25
""")
        assert main(["simulate", "--config", bad]) == 2
        assert "varience" in capsys.readouterr().err

    def test_small_horizon_rejected(self, tmp_path, sim_cfg, capsys):
        bad = write(tmp_path, "small.cfg",
                    Path(sim_cfg).read_text().replace("T = 25", "T = 3"))
        assert main(["simulate", "--config", bad]) == 2
        assert "T" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, sim_cfg, capsys):
        assert main(["simulate", "--config", sim_cfg, "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


class TestGain:
    def test_writes_gain_columns(self, tmp_path, gain_cfg, capsys):
        assert main(["gain", "--config", gain_cfg]) == 0
        head = (tmp_path / "gtrace.csv").read_text().splitlines()[0]
        assert head.endswith(",beta_hat,k_hat")
        side = json.loads((tmp_path / "gtrace.json").read_text())
        assert side["config"]["K"] == 3


def fake_suite(monkeypatch, *passed):
    """Replace the check suite with one canned result per entry of
    ``passed``; returns the list of seeds it is called with."""
    seeds = []

    def fake(seed):
        seeds.append(seed)
        return [CheckResult(f"check-{i}", ok, f"obs {i}", f"req {i}")
                for i, ok in enumerate(passed)]

    monkeypatch.setattr(cli, "run_verification", fake)
    return seeds


class TestVerify:
    def test_exit_zero_and_report(self, monkeypatch, capsys):
        seeds = fake_suite(monkeypatch, True, True)
        assert main(["verify"]) == 0
        assert seeds == [0]
        assert capsys.readouterr().out.splitlines() == [
            f"PASS {'check-0':<32} obs 0 (require req 0)",
            f"PASS {'check-1':<32} obs 1 (require req 1)",
            "2 checks: 2 passed, 0 failed (seed 0)"]

    def test_exit_one_on_failing_check(self, monkeypatch, capsys):
        fake_suite(monkeypatch, True, False)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {'check-1':<32} obs 1 (require req 1)" in out
        assert "2 checks: 1 passed, 1 failed (seed 0)" in out

    def test_seed_forwarded(self, monkeypatch, capsys):
        seeds = fake_suite(monkeypatch, True)
        assert main(["verify", "--seed", "7"]) == 0
        assert main(["verify", "--seed", "9"]) == 0
        assert seeds == [7, 9]
        assert "(seed 9)" in capsys.readouterr().out

    def test_negative_seed_rejected(self, capsys):
        # the real suite, which checks its seed before running any check
        assert main(["verify", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_config_is_a_usage_error(self, sim_cfg, capsys):
        # the suite reads no config: its one input is --seed
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", sim_cfg])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
