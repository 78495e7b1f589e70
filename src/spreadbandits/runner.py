"""Simulation runner: replications in, deterministic trace files out.

Each (policy, replication) pair is an independent task driven by two random
streams keyed on ``(seed, policy id, replication, purpose)`` - one for
outcome noise, one for policy-internal draws - so results do not depend on
execution order or worker count, and raising ``replications`` appends new
traces without disturbing existing ones.

``run`` writes ``<out>.csv`` with header

    policy,replication,t,regret_step,regret_cum[,beta_hat,k_hat]

(the two extra columns in gain mode), rows sorted by (policy, replication,
t), floats at 17 significant digits, plus a ``<out>.json`` sidecar carrying
the config echo, the instance's bound constants, and a per-policy horizon
summary.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import rng as rng_streams
# regret_step, sample_outcome, observe and policy_step are the validated
# per-round API; the round loop does not call them, but they stay runner
# attributes because the benchmark's tracer (perfbench/measure.py) wraps them
from .bounds import lower_bound_constants, regret_step
from .config import RunConfig
from .core import _draw, _draw_arm, new_instance, sample_outcome
from .errors import BanditError, ValidationError
from .policies import (
    KIND_IDS,
    _choose,
    _fold_arm,
    _fold_powers,
    make_policy,
    observe,
    policy_step,
)
from .sysid import gain_estimate, grid_from_fir


@dataclass(frozen=True)
class TraceRow:
    """One recorded round of one replication."""

    policy: str
    replication: int
    t: int
    regret_step: float
    regret_cum: float
    beta_hat: float | None = None
    k_hat: int | None = None


@dataclass(frozen=True, eq=False)
class ReplicationOut:
    """Everything one task reports back."""

    policy: str
    replication: int
    rows: list
    final_cum: float
    z_snapshots: dict  # round -> per-arm cumulative power


@dataclass(frozen=True, eq=False)
class RunReport:
    """Return value of :func:`run`."""

    csv_path: str
    json_path: str
    horizon_summary: dict
    outputs: list = field(repr=False)
    elapsed_s: float = 0.0


def _build_instance(cfg: RunConfig):
    if cfg.mode == "gain":
        return grid_from_fir(cfg.g_coeffs, cfg.h_coeffs, cfg.K).instance
    return new_instance(cfg.means, cfg.variances)


def run_replication(cfg: RunConfig, kind: str, replication: int
                    ) -> ReplicationOut:
    """Run one policy for one replication of T rounds.

    Records every ``thin``-th round plus round T; snapshots per-arm
    cumulative power at rounds T//10 and T.  The rounds run on the policy
    engine's arrays: a dense play (``wts``, ``uniform``) updates all arms
    with whole-array operations, a one-hot play updates its one arm in
    Python floats, and no profile or outcome object is built per round.
    """
    instance = _build_instance(cfg)
    rng_env = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.ENV)
    rng_pol = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.POLICY)
    state = make_policy(kind, instance, cfg.mc_samples)
    T = cfg.T
    thin = cfg.thin
    snap_at = {max(1, T // 10), T}
    gain_mode = cfg.mode == "gain"
    means, variances, gaps = instance.means, instance.variances, instance.gaps
    # a one-hot play reads its arm's constants as Python floats;
    # gaps[k] is bit-equal to gaps @ one_hot(k)
    mean_x, mean_y = means[:, 0].tolist(), means[:, 1].tolist()
    var, gap = variances.tolist(), gaps.tolist()

    rows = []
    snaps = {}
    cum = 0.0
    for t in range(1, T + 1):
        try:
            play = _choose(state, rng_pol)
            if type(play) is int:
                step = gap[play]
                x0, x1 = _draw_arm(mean_x[play], mean_y[play], var[play],
                                   rng_env)
                _fold_arm(state, play, 1.0, x0, x1)
            else:
                step = float(gaps @ play)
                _fold_powers(state, play,
                             _draw(means, variances, play, rng_env))
            state.round += 1
            cum += step
            if t % thin == 0 or t == T:
                if gain_mode:
                    est = gain_estimate(state.z, state.mean, t)
                    rows.append(TraceRow(kind, replication, t, step, cum,
                                         est.beta_hat, est.k_hat))
                else:
                    rows.append(TraceRow(kind, replication, t, step, cum))
        except BanditError as exc:
            raise type(exc)(f"policy={kind} replication={replication} "
                            f"round={t}: {exc}") from exc
        if t in snap_at:
            snaps[t] = state.z.copy()
    return ReplicationOut(kind, replication, rows, cum, snaps)


def _task(args) -> ReplicationOut:
    return run_replication(*args)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write_csv(path: str, rows, gain_mode: bool) -> None:
    header = "policy,replication,t,regret_step,regret_cum"
    if gain_mode:
        header += ",beta_hat,k_hat"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for r in rows:
            line = (f"{r.policy},{r.replication},{r.t},"
                    f"{_fmt(r.regret_step)},{_fmt(r.regret_cum)}")
            if gain_mode:
                line += f",{_fmt(r.beta_hat)},{r.k_hat}"
            fh.write(line + "\n")


def run(cfg: RunConfig, workers: int = 1, quiet: bool = False) -> RunReport:
    """Execute every (policy, replication) task and write the trace files."""
    if cfg.mode not in ("simulate", "gain"):
        raise ValidationError(f"run() handles simulate/gain, not {cfg.mode!r}")
    if cfg.T is None:
        raise ValidationError("run() needs a horizon T")
    workers = max(1, int(workers))
    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()

    tasks = [(cfg, kind, rep)
             for kind in cfg.policies
             for rep in range(cfg.replications)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_task, tasks, chunksize=1))
    else:
        outputs = [_task(t) for t in tasks]
    outputs.sort(key=lambda o: (o.policy, o.replication))

    rows = [row for out in outputs for row in out.rows]
    gain_mode = cfg.mode == "gain"

    summary = {}
    for kind in sorted(cfg.policies):
        finals = np.array([o.final_cum for o in outputs if o.policy == kind])
        std = float(finals.std(ddof=1)) if finals.shape[0] > 1 else 0.0
        summary[kind] = {"mean": float(finals.mean()), "std": std,
                         "replications": int(finals.shape[0])}

    out_dir = os.path.dirname(cfg.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    csv_path = cfg.out + ".csv"
    json_path = cfg.out + ".json"
    _write_csv(csv_path, rows, gain_mode)

    consts = lower_bound_constants(_build_instance(cfg))
    elapsed = time.perf_counter() - t0
    sidecar = {
        "config": cfg.to_dict(),
        "bound_constants": {
            "spreading_known": consts.spreading_known,
            "spreading_unknown": consts.spreading_unknown,
            "ns_known": consts.ns_known,
            "ns_unknown": consts.ns_unknown,
        },
        "horizon_summary": summary,
        "started_at": started.isoformat(),
        "elapsed_s": elapsed,
    }
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")

    if not quiet:
        print(f"wrote {csv_path} ({len(rows)} rows) and {json_path}")
        print(f"{'policy':<12} {'reps':>5} {'mean regret(T)':>16} "
              f"{'std':>12}")
        for kind, s in summary.items():
            print(f"{kind:<12} {s['replications']:>5} {s['mean']:>16.6g} "
                  f"{s['std']:>12.6g}")
    return RunReport(csv_path, json_path, summary, outputs, elapsed)
