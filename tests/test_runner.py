"""Runner determinism, trace file format, error context, parallel equality."""

import json

import numpy as np
import pytest

from spreadbandits import RunConfig, run, run_replication
from spreadbandits.errors import InsufficientData, ValidationError
from spreadbandits import runner as runner_mod


def sim_config(tmp_path, name="t", **kw):
    base = dict(
        mode="simulate",
        T=40,
        replications=3,
        seed=0,
        policies=("wts", "oracle", "uniform"),
        mc_samples=64,
        thin=1,
        out=str(tmp_path / name),
        means=np.array([[2.0, 0.0], [0.9, 1.2], [0.0, 0.8]]),
        variances=np.array([0.25, 0.5, 1.0]),
    )
    base.update(kw)
    return RunConfig(**base)


def gain_config(tmp_path, name="g", **kw):
    base = dict(
        mode="gain",
        T=30,
        replications=2,
        seed=1,
        policies=("wts",),
        mc_samples=64,
        thin=1,
        out=str(tmp_path / name),
        g_coeffs=np.array([0.5, 0.5]),
        h_coeffs=np.array([1.0]),
        K=3,
    )
    base.update(kw)
    return RunConfig(**base)


class TestTraceFile:
    def test_simulate_header_and_shape(self, tmp_path):
        cfg = sim_config(tmp_path)
        rep = run(cfg, quiet=True)
        lines = open(rep.csv_path).read().splitlines()
        assert lines[0] == "policy,replication,t,regret_step,regret_cum"
        assert len(lines) == 1 + 3 * 3 * 40

    def test_gain_header(self, tmp_path):
        cfg = gain_config(tmp_path)
        rep = run(cfg, quiet=True)
        lines = open(rep.csv_path).read().splitlines()
        assert lines[0] == ("policy,replication,t,regret_step,regret_cum,"
                            "beta_hat,k_hat")
        first = lines[1].split(",")
        assert first[0] == "wts" and first[2] == "1"
        int(first[6])  # k_hat parses as an integer

    def test_rows_sorted_and_cumulative(self, tmp_path):
        cfg = sim_config(tmp_path)
        rep = run(cfg, quiet=True)
        lines = open(rep.csv_path).read().splitlines()[1:]
        keys, cums = [], {}
        for ln in lines:
            pol, r, t, step, cum = ln.split(",")
            keys.append((pol, int(r), int(t)))
            cums.setdefault((pol, r), []).append(float(cum))
        assert keys == sorted(keys)
        for series in cums.values():
            assert all(b >= a for a, b in zip(series, series[1:]))

    def test_oracle_rows_are_zero(self, tmp_path):
        cfg = sim_config(tmp_path, policies=("oracle",), replications=1)
        rep = run(cfg, quiet=True)
        for ln in open(rep.csv_path).read().splitlines()[1:]:
            _, _, _, step, cum = ln.split(",")
            assert float(step) == 0.0 and float(cum) == 0.0

    def test_thinning_keeps_exact_cumulative(self, tmp_path):
        dense = run(sim_config(tmp_path, "dense"), quiet=True)
        thin = run(sim_config(tmp_path, "thin", thin=7), quiet=True)
        want = {}
        for ln in open(dense.csv_path).read().splitlines()[1:]:
            pol, r, t, _, cum = ln.split(",")
            want[(pol, r, t)] = cum
        thinned = open(thin.csv_path).read().splitlines()[1:]
        assert thinned  # rounds 7, 14, ..., 35, 40 per trace
        for ln in thinned:
            pol, r, t, _, cum = ln.split(",")
            assert int(t) % 7 == 0 or int(t) == 40
            assert cum == want[(pol, r, t)]

    def test_json_sidecar(self, tmp_path):
        cfg = sim_config(tmp_path)
        rep = run(cfg, quiet=True)
        side = json.load(open(rep.json_path))
        assert set(side) == {"config", "bound_constants", "horizon_summary",
                             "started_at", "elapsed_s"}
        assert set(side["bound_constants"]) == {
            "spreading_known", "spreading_unknown", "ns_known", "ns_unknown"}
        assert side["config"]["T"] == 40
        assert set(side["horizon_summary"]) == {"wts", "oracle", "uniform"}

    def test_summary_matches_trace(self, tmp_path):
        cfg = sim_config(tmp_path, policies=("uniform",))
        rep = run(cfg, quiet=True)
        finals = [o.final_cum for o in rep.outputs]
        s = rep.horizon_summary["uniform"]
        assert s["mean"] == pytest.approx(np.mean(finals))
        assert s["std"] == pytest.approx(np.std(finals, ddof=1))
        assert s["replications"] == 3


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = run(sim_config(tmp_path, "a"), quiet=True)
        b = run(sim_config(tmp_path, "b"), quiet=True)
        assert open(a.csv_path, "rb").read() == open(b.csv_path, "rb").read()

    def test_seed_changes_trace(self, tmp_path):
        a = run(sim_config(tmp_path, "a"), quiet=True)
        b = run(sim_config(tmp_path, "b", seed=1), quiet=True)
        assert open(a.csv_path, "rb").read() != open(b.csv_path, "rb").read()

    def test_more_replications_extend_prefix(self, tmp_path):
        small = run(sim_config(tmp_path, "small", replications=3),
                    quiet=True)
        large = run(sim_config(tmp_path, "large", replications=6),
                    quiet=True)

        def by_rep(path):
            rows = {}
            for ln in open(path).read().splitlines()[1:]:
                parts = ln.split(",")
                rows.setdefault((parts[0], int(parts[1])), []).append(ln)
            return rows

        small_rows, large_rows = by_rep(small.csv_path), by_rep(large.csv_path)
        for key, lines in small_rows.items():
            assert large_rows[key] == lines

    def test_workers_do_not_change_bytes(self, tmp_path):
        serial = run(sim_config(tmp_path, "serial"), workers=1, quiet=True)
        parallel = run(sim_config(tmp_path, "par"), workers=2, quiet=True)
        assert open(serial.csv_path, "rb").read() \
            == open(parallel.csv_path, "rb").read()

    def test_policy_order_irrelevant(self, tmp_path):
        a = run(sim_config(tmp_path, "a",
                           policies=("wts", "uniform")), quiet=True)
        b = run(sim_config(tmp_path, "b",
                           policies=("uniform", "wts")), quiet=True)
        assert open(a.csv_path, "rb").read() == open(b.csv_path, "rb").read()

    def test_policies_isolated_seeds(self, tmp_path):
        # dropping one policy leaves the other's trace bytes unchanged
        both = run(sim_config(tmp_path, "both",
                              policies=("wts", "uniform")), quiet=True)
        solo = run(sim_config(tmp_path, "solo", policies=("wts",)),
                   quiet=True)
        both_wts = [ln for ln in open(both.csv_path).read().splitlines()[1:]
                    if ln.startswith("wts,")]
        solo_wts = open(solo.csv_path).read().splitlines()[1:]
        assert both_wts == solo_wts


class TestReplication:
    def test_snapshots_at_tenth_and_horizon(self, tmp_path):
        cfg = sim_config(tmp_path)
        out = run_replication(cfg, "wts", 0)
        assert set(out.z_snapshots) == {4, 40}
        assert out.z_snapshots[40].shape == (3,)
        # total power spent equals the number of rounds
        assert out.z_snapshots[40].sum() == pytest.approx(40.0)

    def test_final_cum_matches_rows(self, tmp_path):
        cfg = sim_config(tmp_path)
        out = run_replication(cfg, "uniform", 2)
        assert out.rows[-1].regret_cum == pytest.approx(out.final_cum)
        assert out.rows[-1].t == 40

    def test_error_context(self, tmp_path, monkeypatch):
        from spreadbandits.policies import _choose

        def boom(state, rng):
            if state.round == 3:
                raise InsufficientData("stub failure")
            return _choose(state, rng)

        cfg = sim_config(tmp_path, policies=("uniform",))
        monkeypatch.setattr(runner_mod, "_choose", boom)
        with pytest.raises(InsufficientData) as exc:
            run_replication(cfg, "uniform", 0)
        msg = str(exc.value)
        assert "policy=uniform" in msg
        assert "replication=0" in msg
        assert "round=3" in msg


class TestRunValidation:
    def test_verify_mode_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            run(RunConfig(mode="verify"), quiet=True)

    def test_missing_horizon_rejected(self, tmp_path):
        cfg = sim_config(tmp_path, T=None)
        with pytest.raises(ValidationError):
            run(cfg, quiet=True)
