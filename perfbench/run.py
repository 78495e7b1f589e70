"""Benchmark of the spreadbandits package, one workload per run.

    python3 perfbench/run.py --workload study --seed 0 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
Workloads (BENCHMARK.json says why each was chosen):

* ``study``: the acceptance regret study's shape, wts and ts_unknown on the
  five-arm instance, T = 20000, mc_samples = 512, thin = 10000;
* ``gain``: ``configs/gain.cfg``, wts on K = 16 frequency bins;
* ``onehot_trace``: the ``configs/simulate.cfg`` instance with ts_known,
  ts_unknown, oracle and uniform, one trace row per round.

The run repeats the workload's entry call, ``run(cfg, workers)``, for
``--seconds`` and checks every output (see checks.py).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time
of one entry call), ``rounds_per_s`` (policy-rounds per second of it),
``setup_s`` (median over fresh processes of the import, config and instance
construction before ``run``) and ``peak_rss_mb`` (largest resident set of
this process and its children).  A task is one (policy, replication) pair;
tasks that raise or fail a check, and all tasks of a call whose trace bytes
differ from the first call's, count in ``failed`` against ``attempted``.

``--trace 1`` spends half the time on untraced calls and half on calls with
the package's names wrapped by ``tracer.py``, and reports the per-layer
metrics named in BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine facts and the run's notes.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "spreadbandits",
                                              "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine_facts(args, workers: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "spreadbandits", "__init__.py")):
        print(f"error: no spreadbandits package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import spreadbandits
    if not spreadbandits.__file__.startswith(src + os.sep):
        print(f"error: imported {spreadbandits.__file__}, not the package "
              f"under {src}", file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the worker pool is shut down and the outputs
    # are removed, instead of leaving orphaned workers behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    out_root = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        res = measure.measure(args.workload, ROOT, args.seed, args.seconds,
                              bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(out_root)
        except OSError:
            pass  # another run still uses it

    units = {name: unit for name, (_, unit) in res.metrics.items()}
    if units != declared_metrics(bool(args.trace)):
        print("error: the metrics measured differ from BENCHMARK.json",
              file=sys.stderr)
        return 3

    facts = machine_facts(args, measure.WORKERS)
    print(json.dumps({"machine": facts, "notes": res.notes}))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in res.metrics.items()}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
