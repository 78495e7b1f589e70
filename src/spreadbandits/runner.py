"""Simulation runner: replications in, deterministic trace files out.

Each (policy, replication) pair is an independent task driven by two random
streams keyed on ``(seed, policy id, replication, purpose)`` - one for
outcome noise, one for policy-internal draws - so results do not depend on
execution order or worker count, and raising ``replications`` appends new
traces without disturbing existing ones.  A task reads each stream through
a :class:`spreadbandits.rng.BlockReader`, which draws a block of rounds in
one call; a round's draws are the same whatever the block size, so the
trace is too.

``run`` writes ``<out>.csv`` with header

    policy,replication,t,regret_step,regret_cum[,beta_hat,k_hat]

(the two extra columns in gain mode), rows sorted by (policy, replication,
t), floats at 17 significant digits, plus a ``<out>.json`` sidecar carrying
the config echo, the instance's bound constants, and a per-policy horizon
summary.  Each file is written to a temporary file in the same directory
and moved into place, so an interrupted run leaves the previous file or
none, never a partial one.

``RunReport.outputs[i]`` is a :class:`ReplicationOut` that carries its
recorded rounds as columns, one array each: ``t``, ``regret_step``,
``regret_cum`` and, in gain mode, ``beta_hat`` and ``k_hat``.  These columns
are the one in-memory form of a trace; the CSV is written from them.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import rng as rng_streams
# regret_step, sample_outcome, observe and policy_step are the validated
# per-round API; the round loop does not call them, but they stay runner
# attributes because the benchmark's tracer (perfbench/measure.py) wraps them
from .bounds import lower_bound_constants, regret_step
from .config import RunConfig, build_instance
from .core import _draw, _draw_arm, sample_outcome
from .errors import BanditError, ValidationError
from .policies import (
    KIND_IDS,
    _choose,
    _env_fill,
    _fold_arm,
    _fold_powers,
    make_policy,
    observe,
    policy_step,
)
from .sysid import gain_estimate


@dataclass(frozen=True, eq=False)
class ReplicationOut:
    """Everything one task reports back.

    The recorded rounds are columns with one entry per recorded round:
    ``t`` and ``k_hat`` are int64, ``regret_step``, ``regret_cum`` and
    ``beta_hat`` float64.  ``beta_hat`` and ``k_hat`` are ``None`` in
    simulate mode.
    """

    policy: str
    replication: int
    t: np.ndarray
    regret_step: np.ndarray
    regret_cum: np.ndarray
    final_cum: float
    z_snapshots: dict  # round -> per-arm cumulative power
    beta_hat: np.ndarray | None = None
    k_hat: np.ndarray | None = None

    def columns(self) -> list:
        """The recorded columns in CSV order, after policy and replication."""
        cols = [self.t, self.regret_step, self.regret_cum]
        if self.beta_hat is not None:
            cols += [self.beta_hat, self.k_hat]
        return cols


@dataclass(frozen=True, eq=False)
class RunReport:
    """Return value of :func:`run`."""

    csv_path: str
    json_path: str
    horizon_summary: dict
    outputs: list = field(repr=False)
    elapsed_s: float = 0.0


def run_replication(cfg: RunConfig, kind: str, replication: int
                    ) -> ReplicationOut:
    """Run one policy for one replication of T rounds.

    Records every ``thin``-th round plus round T; snapshots per-arm
    cumulative power at rounds T//10 and T.  The rounds run on the policy
    engine's arrays: a dense play (``wts``, ``uniform``) updates all arms
    with whole-array operations, a one-hot play updates its one arm in
    Python floats, and no profile or outcome object is built per round.
    Each stream is read in blocks of rounds; what is left of the last
    blocks after round T is dropped with the task's generators.
    """
    instance = build_instance(cfg)
    rng_env = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.ENV)
    rng_pol = rng_streams.stream(cfg.seed, KIND_IDS[kind], replication,
                                 rng_streams.POLICY)
    state = make_policy(kind, instance, cfg.mc_samples)
    env_noise = rng_streams.BlockReader(
        rng_env, *_env_fill(kind, instance.n_arms)).next
    policy_noise = (None if state._fill is None else
                    rng_streams.BlockReader(rng_pol, *state._fill).next)
    T = cfg.T
    thin = cfg.thin
    snap_at = {max(1, T // 10), T}
    gain_mode = cfg.mode == "gain"
    means, variances, gaps = instance.means, instance.variances, instance.gaps
    # a one-hot play reads its arm's constants as Python floats;
    # gaps[k] is bit-equal to gaps @ one_hot(k)
    mean_x, mean_y = means[:, 0].tolist(), means[:, 1].tolist()
    var, gap = variances.tolist(), gaps.tolist()

    ts, steps, cums, betas, k_hats = [], [], [], [], []
    snaps = {}
    cum = 0.0
    for t in range(1, T + 1):
        try:
            play = _choose(state, policy_noise)
            if type(play) is int:
                step = gap[play]
                x0, x1 = _draw_arm(mean_x[play], mean_y[play], var[play],
                                   env_noise())
                _fold_arm(state, play, 1.0, x0, x1)
            else:
                step = float(gaps @ play)
                _fold_powers(state, play,
                             _draw(means, variances, play, env_noise()))
            state.round += 1
            cum += step
            if t % thin == 0 or t == T:
                ts.append(t)
                steps.append(step)
                cums.append(cum)
                if gain_mode:
                    est = gain_estimate(state.z, state.mean)
                    betas.append(est.beta_hat)
                    k_hats.append(est.k_hat)
        except BanditError as exc:
            raise type(exc)(f"policy={kind} replication={replication} "
                            f"round={t}: {exc}") from exc
        if t in snap_at:
            snaps[t] = state.z.copy()
    gain_cols = {}
    if gain_mode:
        gain_cols = {"beta_hat": np.array(betas, dtype=np.float64),
                     "k_hat": np.array(k_hats, dtype=np.int64)}
    return ReplicationOut(kind, replication,
                          np.array(ts, dtype=np.int64),
                          np.array(steps, dtype=np.float64),
                          np.array(cums, dtype=np.float64),
                          cum, snaps, **gain_cols)


def _task(args) -> ReplicationOut:
    return run_replication(*args)


@contextmanager
def _replacing(path: str):
    """Open ``path`` for writing so that it holds its old contents until
    the new ones are complete.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` moves onto ``path`` only after the ``with`` block ends
    without an exception; on any exception the temporary file is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path: str, outputs, gain_mode: bool) -> None:
    """Write the trace of ``outputs``, one block of rows per task, in order.

    Each block comes from one ``%`` template with the task's policy and
    replication in it; ``%.17g`` runs the same routine as
    ``format(x, ".17g")``.
    """
    header = "policy,replication,t,regret_step,regret_cum"
    fields = ",%d,%.17g,%.17g"
    if gain_mode:
        header += ",beta_hat,k_hat"
        fields += ",%.17g,%d"
    with _replacing(path) as fh:
        fh.write(header + "\n")
        for out in outputs:
            fmt = f"{out.policy},{out.replication}{fields}\n"
            cols = (c.tolist() for c in out.columns())
            fh.write("".join(map(fmt.__mod__, zip(*cols))))


def run(cfg: RunConfig, workers: int = 1, quiet: bool = False) -> RunReport:
    """Execute every (policy, replication) task and write the trace files.

    ``cfg`` was checked when it was built (see :class:`RunConfig`), so the
    one rule left here is that it describes a simulate or gain run.
    """
    if cfg.mode not in ("simulate", "gain"):
        raise ValidationError(f"run() handles simulate/gain, not {cfg.mode!r}")
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
    _write_csv(csv_path, outputs, cfg.mode == "gain")

    consts = lower_bound_constants(build_instance(cfg))
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
    with _replacing(json_path) as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")

    if not quiet:
        n_rows = sum(len(out.t) for out in outputs)
        print(f"wrote {csv_path} ({n_rows} rows) and {json_path}")
        print(f"{'policy':<12} {'reps':>5} {'mean regret(T)':>16} "
              f"{'std':>12}")
        for kind, s in summary.items():
            print(f"{kind:<12} {s['replications']:>5} {s['mean']:>16.6g} "
                  f"{s['std']:>12.6g}")
    return RunReport(csv_path, json_path, summary, outputs, elapsed)
