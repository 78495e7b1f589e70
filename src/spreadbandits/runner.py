"""Simulation runner: replications in, deterministic trace files out.

Each (policy, replication) pair is an independent task, one
:func:`spreadbandits.policies.run_replication` of the round engine on the
instance its config built, driven by two random streams keyed on ``(seed,
policy id, replication, purpose)`` - one for outcome noise, one for
policy-internal draws - so results do not depend on execution order or
worker count, and raising ``replications`` appends new traces without
disturbing existing ones.  A stream is read in blocks of rounds, none
past round T, and a round's draws are the same whatever the block size,
so the trace is too.

``run`` writes ``<out>.csv`` with the columns ``policy``, ``replication``
and those of :meth:`spreadbandits.policies.ReplicationOut.columns`, rows
sorted by (policy, replication, t), floats at 17 significant digits, plus
a ``<out>.json`` sidecar carrying the config echo, the instance's bound
constants, a per-policy horizon summary, ``csv_sha256``, the sha256 of
the CSV bytes the run wrote, and the numpy build that drew them
(``numpy_version``, and ``simd``: numpy's baseline SIMD targets and the
dispatch targets enabled on this CPU).
Each file is written to a temporary file in the same directory and moved
into place, so an interrupted run leaves the previous file or none, never
a partial one; a run that fails between the two files leaves a CSV whose
hash is not the sidecar's.

``RunReport.outputs[i]`` is the task's
:class:`spreadbandits.policies.ReplicationOut`, in (policy, replication)
order, which carries its recorded rounds as the arrays of its
``columns()``.  These columns are the one in-memory form of a trace; the
CSV is written from them in this process, a task at a time, with each
distinct value of a float column formatted once.
"""

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import chain, islice, repeat

import numpy as np

# regret_step, gain_estimate, sample_outcome, observe and policy_step are
# not called here: the round engine runs without them, but they stay runner
# attributes because the benchmark's tracer (perfbench/measure.py) wraps them
from .bounds import lower_bound_constants, regret_step
from .config import RunConfig
from .core import _count
from .errors import InvalidParams, ValidationError
from .policies import (
    ReplicationOut,
    observe,
    policy_step,
    run_replication,
    sample_outcome,
)
from .sysid import gain_estimate


# rows of trace text joined, hashed and written at a time
ROWS_PER_WRITE = 4096


@dataclass(frozen=True, eq=False)
class RunReport:
    """Return value of :func:`run`."""

    csv_path: str
    json_path: str
    horizon_summary: dict
    outputs: list = field(repr=False)
    elapsed_s: float = 0.0


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


def _float_texts(col: np.ndarray) -> list:
    """``format(x, ".17g")`` of each entry of the float64 column ``col``,
    computed once per distinct bit pattern (so ``0.0`` and ``-0.0`` stay
    apart, and every NaN matches its own bits)."""
    if col.dtype != np.float64:
        raise TypeError(f"a float trace column must be float64, not "
                        f"{col.dtype}")
    bits, at = np.unique(col.view(np.int64), return_inverse=True)
    texts = [format(x, ".17g") for x in bits.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[at].tolist()


def _texts(col: np.ndarray) -> list:
    """The CSV texts of a trace column: ``str`` of each int64 entry, and
    :func:`_float_texts` of any other column."""
    return (list(map(str, col.tolist())) if col.dtype == np.int64
            else _float_texts(col))


def _write_csv(path: str, outputs) -> str:
    """Write the trace of ``outputs``, one block of rows per task, in order,
    and return the sha256 of the bytes written.  The columns are the tasks'
    :meth:`ReplicationOut.columns`, after ``policy`` and ``replication``.

    A block is built column by column (:func:`_texts`), reusing the last
    task's texts of a column of the same dtype and bytes (so ``0.0`` and
    ``-0.0`` stay apart), and a row is one ``",".join`` of its texts.  The
    rows of a block are joined, hashed and written ``ROWS_PER_WRITE`` at a
    time, so neither the file nor a whole block of it is held as text.
    """
    digest = hashlib.sha256()
    last = {}  # column name -> ((dtype, bytes), texts) of the last task
    with _replacing(path) as fh:
        def write(text):
            fh.write(text)
            digest.update(text.encode())
        write(",".join(["policy", "replication", *outputs[0].columns()])
              + "\n")
        for out in outputs:
            cols = []
            for name, col in out.columns().items():
                key = col.dtype, col.tobytes()
                if name not in last or last[name][0] != key:
                    last[name] = key, _texts(col)
                cols.append(last[name][1])
            rows = map(",".join,
                       zip(repeat(f"{out.policy},{out.replication}"), *cols))
            for _ in range(0, len(out.t), ROWS_PER_WRITE):
                write("\n".join(chain(islice(rows, ROWS_PER_WRITE), ("",))))
    return digest.hexdigest()


def _simd():
    """numpy's baseline SIMD targets and the dispatch targets it enables on
    this CPU, or None where numpy does not expose them."""
    try:
        umath = np._core._multiarray_umath
        enabled = umath.__cpu_features__
        return {"baseline": list(umath.__cpu_baseline__),
                "dispatch": [t for t in umath.__cpu_dispatch__
                             if enabled.get(t)]}
    except AttributeError:
        return None


def run(cfg: RunConfig, workers: int = 1, quiet: bool = False) -> RunReport:
    """Execute every (policy, replication) task and write the trace files.

    ``cfg`` was checked, and its instance built, when it was built (see
    :class:`RunConfig`), so the one rule left here is that ``workers`` is
    a count, by the rule of every other count.  The tasks run in
    ``min(workers, tasks, max(2, usable CPUs))`` processes, or in this one
    when that is 1.
    """
    try:
        workers = _count(workers, "workers")
    except InvalidParams as e:
        raise ValidationError(str(e)) from None
    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()

    tasks = [(cfg, kind, rep)
             for kind in cfg.policies
             for rep in range(cfg.replications)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    processes = min(workers, len(tasks), max(2, cpus))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
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
    csv_sha256 = _write_csv(csv_path, outputs)

    consts = lower_bound_constants(cfg.instance)
    elapsed = time.perf_counter() - t0
    sidecar = {
        "config": cfg.to_dict(),
        "bound_constants": asdict(consts),
        "horizon_summary": summary,
        "csv_sha256": csv_sha256,
        "numpy_version": np.__version__,
        "simd": _simd(),
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
