"""Runner determinism, trace file format, error context, parallel equality."""

import json
import pickle
from pathlib import Path

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
        lines = Path(rep.csv_path).read_text().splitlines()
        assert lines[0] == "policy,replication,t,regret_step,regret_cum"
        assert len(lines) == 1 + 3 * 3 * 40

    def test_gain_header(self, tmp_path):
        cfg = gain_config(tmp_path)
        rep = run(cfg, quiet=True)
        lines = Path(rep.csv_path).read_text().splitlines()
        assert lines[0] == ("policy,replication,t,regret_step,regret_cum,"
                            "beta_hat,k_hat")
        first = lines[1].split(",")
        assert first[0] == "wts" and first[2] == "1"
        int(first[6])  # k_hat parses as an integer

    def test_rows_sorted_and_cumulative(self, tmp_path):
        cfg = sim_config(tmp_path)
        rep = run(cfg, quiet=True)
        lines = Path(rep.csv_path).read_text().splitlines()[1:]
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
        for ln in Path(rep.csv_path).read_text().splitlines()[1:]:
            _, _, _, step, cum = ln.split(",")
            assert float(step) == 0.0 and float(cum) == 0.0

    def test_thinning_keeps_exact_cumulative(self, tmp_path):
        dense = run(sim_config(tmp_path, "dense"), quiet=True)
        thin = run(sim_config(tmp_path, "thin", thin=7), quiet=True)
        want = {}
        for ln in Path(dense.csv_path).read_text().splitlines()[1:]:
            pol, r, t, _, cum = ln.split(",")
            want[(pol, r, t)] = cum
        thinned = Path(thin.csv_path).read_text().splitlines()[1:]
        assert thinned  # rounds 7, 14, ..., 35, 40 per trace
        for ln in thinned:
            pol, r, t, _, cum = ln.split(",")
            assert int(t) % 7 == 0 or int(t) == 40
            assert cum == want[(pol, r, t)]

    def test_json_sidecar(self, tmp_path):
        cfg = sim_config(tmp_path)
        rep = run(cfg, quiet=True)
        side = json.loads(Path(rep.json_path).read_text())
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


def all_kinds_run(tmp_path, name, **kw):
    """A simulate run of both sampling kinds and both fixed baselines."""
    return run(sim_config(tmp_path, name, **kw,
                          policies=("wts", "ts_unknown", "oracle", "uniform")),
               quiet=True)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = all_kinds_run(tmp_path, "a")
        b = all_kinds_run(tmp_path, "b")
        assert Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()

    def test_seed_changes_trace(self, tmp_path):
        a = all_kinds_run(tmp_path, "a")
        b = all_kinds_run(tmp_path, "b", seed=1)
        assert Path(a.csv_path).read_bytes() != Path(b.csv_path).read_bytes()

    def test_more_replications_extend_prefix(self, tmp_path):
        small = all_kinds_run(tmp_path, "small", replications=10)
        large = all_kinds_run(tmp_path, "large", replications=20)

        def by_rep(path):
            rows = {}
            for ln in Path(path).read_text().splitlines()[1:]:
                parts = ln.split(",")
                rows.setdefault((parts[0], int(parts[1])), []).append(ln)
            return rows

        small_rows, large_rows = by_rep(small.csv_path), by_rep(large.csv_path)
        assert len(large_rows) == 2 * len(small_rows)
        for key, lines in small_rows.items():
            assert large_rows[key] == lines

    def test_workers_do_not_change_bytes(self, tmp_path):
        serial = run(sim_config(tmp_path, "serial"), workers=1, quiet=True)
        parallel = run(sim_config(tmp_path, "par"), workers=2, quiet=True)
        assert Path(serial.csv_path).read_bytes() \
            == Path(parallel.csv_path).read_bytes()

    def test_policy_order_irrelevant(self, tmp_path):
        a = run(sim_config(tmp_path, "a",
                           policies=("wts", "uniform")), quiet=True)
        b = run(sim_config(tmp_path, "b",
                           policies=("uniform", "wts")), quiet=True)
        assert Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()

    def test_policies_isolated_seeds(self, tmp_path):
        # dropping one policy leaves the other's trace bytes unchanged
        both = run(sim_config(tmp_path, "both",
                              policies=("wts", "uniform")), quiet=True)
        solo = run(sim_config(tmp_path, "solo", policies=("wts",)),
                   quiet=True)
        both_wts = [ln for ln in
                    Path(both.csv_path).read_text().splitlines()[1:]
                    if ln.startswith("wts,")]
        solo_wts = Path(solo.csv_path).read_text().splitlines()[1:]
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
        assert out.regret_cum[-1] == pytest.approx(out.final_cum)
        assert out.t[-1] == 40

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
        with pytest.raises(ValidationError):
            run(sim_config(tmp_path, T=None), quiet=True)

    @pytest.mark.parametrize("field,value", [
        ("T", 3), ("T", 0), ("replications", 0), ("mc_samples", 0),
        ("thin", 0), ("thin", -1), ("thin", 2.5), ("seed", -1),
        ("seed", 2.5), ("policies", ("greedy",)), ("policies", ("wts", "wts")),
        ("policies", ()), ("out", ""), ("replications", True),
        ("mc_samples", True)])
    def test_run_fields_checked_at_boundary(self, tmp_path, field, value):
        with pytest.raises(ValidationError, match=field):
            run(sim_config(tmp_path, **{field: value}), quiet=True)
        assert not list(tmp_path.iterdir())


def reference_write_csv(path, outputs, gain_mode):
    """The per-row writer the block writer replaced, kept as its oracle."""
    header = "policy,replication,t,regret_step,regret_cum"
    if gain_mode:
        header += ",beta_hat,k_hat"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for o in outputs:
            for i in range(len(o.t)):
                line = (f"{o.policy},{o.replication},{int(o.t[i])},"
                        f"{format(float(o.regret_step[i]), '.17g')},"
                        f"{format(float(o.regret_cum[i]), '.17g')}")
                if gain_mode:
                    line += (f",{format(float(o.beta_hat[i]), '.17g')},"
                             f"{int(o.k_hat[i])}")
                fh.write(line + "\n")


AWKWARD = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
           123456789012345678.0, 1.7976931348623157e308, float("inf"),
           float("nan")]


def hand_built_outputs(gain_mode):
    outs = []
    for i, (policy, rep) in enumerate([("oracle", 0), ("uniform", 0),
                                       ("uniform", 1), ("wts", 12)]):
        vals = np.roll(np.array(AWKWARD), i)
        gain = {}
        if gain_mode:
            gain = {"beta_hat": vals[::-1].copy(),
                    "k_hat": np.resize(np.array([0, 15, 3, 7],
                                                dtype=np.int64), vals.shape)}
        t = np.arange(1, len(vals) + 1, dtype=np.int64) * (i + 1)
        outs.append(runner_mod.ReplicationOut(
            policy, rep, t, vals, np.cumsum(vals), float(np.sum(vals)), {},
            **gain))
    return outs


class TestCsvWriter:
    @pytest.mark.parametrize("gain_mode", [False, True],
                             ids=["simulate", "gain"])
    def test_bytes_match_reference_writer(self, tmp_path, gain_mode):
        outs = hand_built_outputs(gain_mode)
        runner_mod._write_csv(str(tmp_path / "new.csv"), outs, gain_mode)
        reference_write_csv(str(tmp_path / "ref.csv"), outs, gain_mode)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert len(new.splitlines()) == 1 + 4 * len(AWKWARD)

    def test_failed_write_leaves_old_file(self, tmp_path):
        outs = hand_built_outputs(False)
        path = tmp_path / "trace.csv"
        runner_mod._write_csv(str(path), outs, False)
        before = path.read_bytes()
        # the second task's block fails to format, after the first block
        # has gone to the file
        steps = outs[1].regret_step.astype(object)
        steps[3] = "x"
        bad = runner_mod.ReplicationOut(
            "uniform", 0, outs[1].t, steps, outs[1].regret_cum, 0.0, {})
        for target in (path, tmp_path / "fresh.csv"):
            with pytest.raises(TypeError):
                runner_mod._write_csv(str(target), [outs[0], bad], False)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_failed_sidecar_leaves_old_file(self, tmp_path, monkeypatch):
        cfg = sim_config(tmp_path, replications=1)
        sidecar = tmp_path / "t.json"
        run(cfg, quiet=True)
        before = sidecar.read_bytes()

        def boom(obj, fh, **kw):
            fh.write('{"config": ')
            raise OSError("disk full")

        monkeypatch.setattr(runner_mod.json, "dump", boom)
        with pytest.raises(OSError):
            run(cfg, quiet=True)
        assert sidecar.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv",
                                                              "t.json"]


class TestColumns:
    @pytest.mark.parametrize("thin", [1, 8, 7])
    def test_layout(self, tmp_path, thin):
        cfg = sim_config(tmp_path, thin=thin)
        out = run_replication(cfg, "uniform", 0)
        n = cfg.T // thin + (cfg.T % thin != 0)
        for col, dtype in ((out.t, np.int64), (out.regret_step, np.float64),
                           (out.regret_cum, np.float64)):
            assert col.dtype == dtype and col.shape == (n,)
        assert out.t[-1] == cfg.T
        assert out.regret_cum[-1] == out.final_cum
        assert out.beta_hat is None and out.k_hat is None

    def test_gain_layout(self, tmp_path):
        out = run_replication(gain_config(tmp_path, thin=7), "wts", 1)
        assert out.beta_hat.dtype == np.float64
        assert out.k_hat.dtype == np.int64
        assert out.beta_hat.shape == out.k_hat.shape == out.t.shape == (5,)

    def test_pickled_size_per_row(self, tmp_path):
        # a task sends its rows back to the parent by pickle: three
        # 8-byte columns, not one object per row
        cfg = sim_config(tmp_path, T=10_000, policies=("oracle",))
        out = run_replication(cfg, "oracle", 0)
        assert len(out.t) == 10_000
        assert len(pickle.dumps(out)) < 40 * 10_000
