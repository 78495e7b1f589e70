"""Timed entry calls, their correctness checks and the per-layer numbers.

A workload is driven only through the calls the command line makes: its
configuration, then ``run(cfg, workers)``.
"""

import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from spreadbandits import KINDS, policies, posterior, run, runner
from checks import Trace, bad_tasks, gain_misses, tampered, task_keys
from tracer import Tracer
from workloads import build_problem, make_config

# one process per core, never more than the two of the reference machine
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))
PROBE_TIMEOUT_S = 120


@dataclass
class Call:
    """One entry call: its clock readings and the digest of its trace."""

    t0: int
    t1: int
    digest: str
    raised: bool = False
    spans: object = None

    @property
    def wall_s(self) -> float:
        return (self.t1 - self.t0) / 1e9


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def setup_times(root: str, name: str, seed: int, n: int) -> list:
    """Set-up durations of ``n`` fresh processes (see setup_probe.py)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "setup_probe.py")
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, probe, name, str(seed)],
                              env=env, cwd=root, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


class Workload:
    def __init__(self, name: str, root: str, seed: int, out_dir: str):
        self.name = name
        self.out_dir = out_dir
        self.cfg = make_config(name, root, seed,
                               os.path.join(out_dir, "trace"))
        self.instance, self.problem = build_problem(self.cfg)
        self.tasks = len(task_keys(self.cfg))
        self.rounds = self.tasks * self.cfg.T  # policy-rounds of one call
        # only the first trace is kept, so memory does not grow with calls
        self.first_csv = None
        self.trace = None  # the first trace, once checked

    def call(self) -> Call:
        """One timed entry call; one that raises is kept, as failed."""
        t0 = time.perf_counter_ns()
        try:
            report = run(self.cfg, workers=WORKERS, quiet=True)
        except Exception as exc:  # counted in ``failed`` by check()
            t1 = time.perf_counter_ns()
            traceback.print_exc(file=sys.stderr)
            return Call(t0, t1, f"raised {exc!r}", raised=True)
        t1 = time.perf_counter_ns()
        with open(report.csv_path, "rb") as fh:
            data = fh.read()
        if self.first_csv is None:
            self.first_csv = data
        return Call(t0, t1, hashlib.sha256(data).hexdigest())

    def traced_call(self, tracer: Tracer, n: int) -> Call:
        tracer.out_dir = os.path.join(self.out_dir, f"spans{n}")
        os.makedirs(tracer.out_dir)
        c = self.call()
        c.spans = tracer.collect()
        return c

    def check(self, calls: list, res: Result) -> None:
        """Count the failed tasks of ``calls``.

        A call that raised fails all its tasks.  The first trace written is
        checked in full, and every other call must have written the same
        bytes.
        """
        res.attempted += self.tasks * len(calls)
        done = [c for c in calls if not c.raised]
        res.failed += self.tasks * (len(calls) - len(done))
        if not done:
            res.correct = False
            return
        tr = Trace(self.first_csv)
        bad = bad_tasks(self.cfg, self.instance, tr)
        if self.problem is not None:
            bad |= gain_misses(self.cfg, self.problem, tr)
        res.failed += len(bad)
        gmax = float(self.instance.gaps.max())
        for kind, copy in tampered(tr, self.cfg, gmax).items():
            caught = bool(bad_tasks(self.cfg, self.instance, copy))
            res.notes[f"control.{kind}"] = "caught" if caught else "MISSED"
            res.correct &= caught
        res.notes["trace"] = {"rows": len(tr), "bytes": tr.nbytes}
        self.trace = tr
        changed = sum(c.digest != tr.digest for c in done)
        res.failed += changed * self.tasks
        res.notes["digest"] = tr.digest
        res.notes["nondeterministic_calls"] = changed
        res.correct &= res.failed == 0


def repeat(call, seconds: float) -> list:
    """Entry calls back to back until the next would end after ``seconds``."""
    calls = []
    start = time.perf_counter()
    while True:
        calls.append(call())
        used = time.perf_counter() - start
        if used + statistics.median(c.wall_s for c in calls) > seconds:
            return calls


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(w: Workload, setups: list, calls: list) -> dict:
    return {
        "wall_s": (statistics.median(c.wall_s for c in calls), "s"),
        "rounds_per_s": (statistics.median(w.rounds / c.wall_s for c in calls),
                         "1/s"),
        "setup_s": (statistics.median(
            s["import_s"] + s["config_s"] + s["instance_s"] for s in setups),
            "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def install(tracer: Tracer) -> None:
    """Wrap the names the runner and the policies look up."""
    def draws(args):
        return int(args[3].shape[0]) * int(args[4])

    tracer.wrap(policies, "_rho_counts", "posterior.rho_counts", units=draws)
    tracer.wrap(posterior, "_rho_counts", "posterior.rho_counts",
                units=draws)
    tracer.wrap(policies, "PowerProfile", "core.power_profile")
    tracer.wrap(runner, "policy_step", "policies.policy_step")
    tracer.wrap(runner, "sample_outcome", "core.sample_outcome")
    tracer.wrap(runner, "observe", "policies.observe")
    tracer.wrap(runner, "regret_step", "bounds.regret_step")
    tracer.wrap(runner, "gain_estimate", "sysid.gain_estimate")
    tracer.wrap(runner, "_write_csv", "runner.write_csv")
    tracer.wrap(runner, "_task", "runner.task",
                label=lambda args, r: f"{r.policy}:{r.replication}")


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def per_layer(w: Workload, setups: list, plain: list, traced: list) -> dict:
    n_calls = len(traced)
    spans = [c.spans for c in traced]

    def layer(name):
        masks = [s.of(name) for s in spans]
        n = sum(int(m.sum()) for m in masks)
        total = sum(float(s.dur[m].sum()) for s, m in zip(spans, masks))
        own = sum(float((s.dur - s.child_ns)[m].sum())
                  for s, m in zip(spans, masks))
        units = sum(int(s.units[m].sum()) for s, m in zip(spans, masks))
        return n, total, own, units

    def per(x, n):
        return x / n if n else 0.0

    m = {}
    for name, stats in (("posterior.rho_counts", ("calls", "us", "draw")),
                        ("policies.policy_step", ("calls", "self")),
                        ("policies.observe", ("us",)),
                        ("core.power_profile", ("calls", "us")),
                        ("core.sample_outcome", ("us",)),
                        ("bounds.regret_step", ("us",)),
                        ("sysid.gain_estimate", ("calls", "us"))):
        n, total, own, units = layer(name)
        if "calls" in stats:
            m[f"{name}.calls"] = (n / n_calls, "count")
        if "us" in stats:
            m[f"{name}.us_per_call"] = (per(total, n) / 1e3, "us")
        if "self" in stats:
            m[f"{name}.self_us_per_call"] = (per(own, n) / 1e3, "us")
        if "draw" in stats:
            m[f"{name}.ns_per_draw"] = (per(total, units), "ns")

    _, _, task_own, _ = layer("runner.task")
    m["runner.loop_self_us_per_round"] = (
        per(task_own, w.rounds * n_calls) / 1e3, "us")
    tr = w.trace
    m["runner.rows"] = (len(tr) if tr is not None else 0, "count")
    m["runner.csv_bytes"] = (tr.nbytes if tr is not None else 0, "bytes")
    m["runner.write_csv_s"] = (_median(
        float(s.dur[s.of("runner.write_csv")].sum()) / 1e9 for s in spans),
        "s")
    pool_start, idle = [], []
    for c, s in zip(traced, spans):
        task = s.of("runner.task")
        if task.any():
            begin, finish = s.start[task].min(), s.end[task].max()
            pool_start.append((begin - c.t0) / 1e9)
            idle.append(1.0 - s.dur[task].sum()
                        / (WORKERS * (finish - begin)))
    m["runner.pool_start_s"] = (_median(pool_start), "s")
    m["runner.worker_idle_frac"] = (_median(idle), "frac")
    for kind in KINDS:
        durs = [d / 1e9 for s in spans
                for d, lab in zip(s.dur[s.of("runner.task")],
                                  s.label[s.of("runner.task")])
                if lab.split(":")[0] == kind]
        m[f"runner.task_s.{kind}.p50"] = (_median(durs), "s")
        m[f"runner.task_s.{kind}.max"] = (max(durs, default=0.0), "s")
        m[f"runner.task_s.{kind}.n"] = (len(durs), "count")

    m["config.load_config_ms"] = (
        _median(s["config_s"] for s in setups) * 1e3, "ms")

    m["trace.overhead_frac"] = (
        _median(c.wall_s for c in traced) / _median(c.wall_s for c in plain)
        - 1.0, "frac")
    roots = [s.of("runner.task") for s in spans]
    covered = sum(float(s.child_ns[r].sum()) for s, r in zip(spans, roots))
    task_time = sum(float(s.dur[r].sum()) for s, r in zip(spans, roots))
    m["trace.coverage_frac"] = (per(covered, task_time), "frac")

    ratio = 0.0
    if w.name == "study" and tr is not None:
        last = tr.t == w.cfg.T
        ratio = (tr.cum[last & (tr.policy == "wts")].mean()
                 / tr.cum[last & (tr.policy == "ts_unknown")].mean())
    m["study.final_regret_ratio"] = (float(ratio), "ratio")
    return m


def measure(name: str, root: str, seed: int, seconds: float, trace: bool,
            out_dir: str) -> Result:
    """Run workload ``name`` for about ``seconds`` and check its outputs.

    Untraced, it reports the end-to-end metrics.  Traced, it spends half
    the time on untraced calls and half on traced ones, and reports the
    per-layer metrics; every call must write the same bytes.
    """
    res = Result()
    setups = setup_times(root, name, seed, 3 if trace else 9)
    res.notes["package"] = setups[0]["package"]
    w = Workload(name, root, seed, out_dir)
    if not trace:
        calls = repeat(w.call, seconds)
        w.check(calls, res)
        res.metrics = end_to_end(w, setups, calls)
    else:
        plain = repeat(w.call, seconds / 2)
        tracer = Tracer()
        install(tracer)
        count = itertools.count()
        try:
            calls = repeat(lambda: w.traced_call(tracer, next(count)),
                           seconds / 2)
        finally:
            tracer.unwrap()
        w.check(plain + calls, res)
        res.metrics = per_layer(w, setups, plain, calls)
        res.notes["traced_wall_s"] = [c.wall_s for c in calls]
        calls = plain
    res.notes["wall_s"] = [c.wall_s for c in calls]
    return res
