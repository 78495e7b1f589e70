"""Command-line interface: subcommands, overrides, exit codes."""

import json
from pathlib import Path

import pytest

from spreadbandits.cli import main


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


class TestGain:
    def test_writes_gain_columns(self, tmp_path, gain_cfg, capsys):
        assert main(["gain", "--config", gain_cfg]) == 0
        head = (tmp_path / "gtrace.csv").read_text().splitlines()[0]
        assert head.endswith(",beta_hat,k_hat")
        side = json.loads((tmp_path / "gtrace.json").read_text())
        assert side["config"]["K"] == 3


# module-scoped: the full suite is expensive, run it once
@pytest.fixture(scope="module")
def verify_run():
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify"])
    return code, buf.getvalue()


class TestVerify:
    def test_exit_zero_and_report(self, verify_run):
        code, out = verify_run
        assert code == 0
        assert "FAIL" not in out
        lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
        assert len(lines) == 22
        assert "22 checks: 22 passed, 0 failed" in out

    def test_config_must_be_verify_mode(self, tmp_path, sim_cfg, capsys):
        assert main(["verify", "--config", sim_cfg]) == 2
        assert "simulate" in capsys.readouterr().err
