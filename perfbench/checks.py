"""Correctness checks on a run's outputs that hold on any seed.

None of them depends on the bytes of a random stream: they follow from the
trace format, the regret definition and the instance alone.  The gain
recovery check is the statistical one of ``test_peak_gain_recovery``.
"""

import hashlib
import math

import numpy as np

# slack on a cumulative increment, in units of the rounding of one addition
SUM_ULPS = 2.0
# peak-gain recovery, as in test_peak_gain_recovery
GAIN_TOL = 0.05
GAIN_HIT_SHARE = 0.9


class Trace:
    """Columns of a trace CSV, parsed back from its bytes."""

    def __init__(self, data: bytes):
        self.digest = hashlib.sha256(data).hexdigest()
        self.nbytes = len(data)
        lines = data.decode("utf-8").splitlines()
        self.header = lines[0].split(",")
        cols = list(zip(*(line.split(",") for line in lines[1:])))
        if not cols:
            cols = [()] * len(self.header)
        self.policy = np.array(cols[0], dtype=object)
        self.replication = np.array(cols[1], dtype=np.int64)
        self.t = np.array(cols[2], dtype=np.int64)
        self.step = np.array(cols[3], dtype=np.float64)
        self.cum = np.array(cols[4], dtype=np.float64)
        if len(cols) > 5:
            self.beta_hat = np.array(cols[5], dtype=np.float64)
            self.k_hat = np.array(cols[6], dtype=np.int64)

    def __len__(self) -> int:
        return self.t.shape[0]


def expected_rounds(T: int, thin: int) -> np.ndarray:
    """Rounds the runner records: every ``thin``-th one, and round T."""
    ts = np.arange(thin, T + 1, thin)
    return ts if ts.size and ts[-1] == T else np.append(ts, T)


def task_keys(cfg) -> list:
    """(policy, replication) of every task, in trace order."""
    return [(kind, rep) for kind in sorted(cfg.policies)
            for rep in range(cfg.replications)]


def _cumulative_ok(ts, step, cum, gmax) -> bool:
    prev_t = np.concatenate(([0], ts[:-1]))
    prev_cum = np.concatenate(([0.0], cum[:-1]))
    dt = ts - prev_t
    one = dt == 1
    # consecutive rounds: exactly the addition the runner makes
    if not np.array_equal(cum[one], prev_cum[one] + step[one]):
        return False
    # thinned rows: the last of dt rounds is ``step``, each other in [0, gmax]
    inc = cum - prev_cum
    slack = SUM_ULPS * dt * np.finfo(np.float64).eps * np.maximum(cum, 1.0)
    return bool(np.all(inc >= step - slack)
                and np.all(inc <= step + (dt - 1) * gmax + slack))


def bad_tasks(cfg, instance, tr: Trace) -> set:
    """Tasks whose rows break an invariant of the trace.

    Checks the row count and (policy, replication, t) order, that
    ``0 <= regret_step <= max(gaps)``, that ``regret_cum`` is the running sum
    of ``regret_step``, that ``oracle`` regret is exactly 0 and that
    ``uniform`` regret is ``gaps @ full(K, 1/K)`` every round.
    """
    keys = task_keys(cfg)
    ts = expected_rounds(cfg.T, cfg.thin)
    n = ts.shape[0]
    if len(tr) != n * len(keys):
        return set(keys)
    gaps = instance.gaps
    gmax = float(gaps.max())
    K = instance.n_arms
    uniform_step = float(gaps @ np.full(K, 1.0 / K))
    bad = set()
    for i, (kind, rep) in enumerate(keys):
        sl = slice(i * n, (i + 1) * n)
        step, cum = tr.step[sl], tr.cum[sl]
        ok = (np.all(tr.policy[sl] == kind)
              and np.all(tr.replication[sl] == rep)
              and np.array_equal(tr.t[sl], ts)
              and np.all(step >= 0.0)
              and np.all(step <= gmax * (1.0 + 1e-12))
              and _cumulative_ok(ts, step, cum, gmax))
        if kind == "oracle":
            ok = ok and np.all(step == 0.0)
        elif kind == "uniform":
            ok = ok and np.all(step == uniform_step)
        if not ok:
            bad.add((kind, rep))
    return bad


def gain_misses(cfg, problem, tr: Trace) -> set:
    """Replications that miss the peak, when fewer than 90% recover it.

    A replication recovers the peak when its last row has ``k_hat`` on the
    peak bin and ``|beta_hat - peak_gain| <= 0.05``.
    """
    last = tr.t == cfg.T
    hit = ((tr.k_hat[last] == problem.peak_bin)
           & (np.abs(tr.beta_hat[last] - problem.peak_gain) <= GAIN_TOL))
    reps = tr.replication[last]
    if hit.sum() >= math.ceil(GAIN_HIT_SHARE * cfg.replications):
        return set()
    return {("wts", int(r)) for r in reps[~hit]}


def tampered(tr: Trace, cfg, gmax: float) -> dict:
    """Copies of ``tr`` that break one invariant each (sensitivity control).

    Each tampers the last row with positive regret that is not the first
    row of its task: a negative ``regret_step``, that row swapped with the
    one before it, and a broken running sum (one ulp off after a single
    round, or more than the largest possible regret after a thinned
    stretch).
    """
    n = expected_rounds(cfg.T, cfg.thin).shape[0]
    i = int(np.flatnonzero((tr.step > 0.0)
                           & (np.arange(len(tr)) % n != 0))[-1])
    out = {}

    neg = _copy(tr)
    neg.step[i] = -neg.step[i]
    out["negative_step"] = neg

    swap = _copy(tr)
    for col in ("policy", "replication", "t", "step", "cum"):
        a = getattr(swap, col)
        a[[i - 1, i]] = a[[i, i - 1]]
    out["out_of_order"] = swap

    broken = _copy(tr)
    dt = tr.t[i] - tr.t[i - 1]
    if dt == 1:
        broken.cum[i] = np.nextafter(broken.cum[i], np.inf)
    else:
        broken.cum[i] += dt * gmax + 1.0
    out["broken_running_sum"] = broken
    return out


def _copy(tr: Trace) -> Trace:
    dup = Trace.__new__(Trace)
    dup.__dict__ = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                    for k, v in tr.__dict__.items()}
    return dup
