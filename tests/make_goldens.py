"""Golden trace digests: the runs ``tests/test_goldens.py`` holds against
``tests/golden_digests.json``, and the script that writes that file.

Run from the repository root to write it again::

    PYTHONPATH=src python tests/make_goldens.py

The entries are the regret study's shape at T = 3000 with every round
recorded, ``configs/gain.cfg``, the one-hot trace of
``configs/simulate.cfg``, and the gain problem under the two fixed plays,
each at seed 0 with two replications.  A change that moves bytes on
purpose runs this and says which digests changed, and why.
"""

import hashlib
import json
import os
import pathlib
import tempfile

import numpy as np

from spreadbandits import RunConfig, load_config, run

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_digests.json")
WORKERS = (1, 2)

# the five-arm instance of the acceptance regret study
REGRET_MEANS = [[0.8, 0.0], [0.15, 0.0], [0.0, 0.10], [-0.05, 0.0],
                [0.0, 0.0]]
REGRET_VARIANCES = [0.25, 0.4225, 0.49, 0.5625, 0.64]


def task_digest(out) -> str:
    """sha256 of a task's ``final_cum`` and its snapshot rounds and powers,
    as float64 and int64 bytes in round order."""
    h = hashlib.sha256(np.float64(out.final_cum).tobytes())
    for t in sorted(out.z_snapshots):
        h.update(np.int64(t).tobytes())
        h.update(np.ascontiguousarray(out.z_snapshots[t]).tobytes())
    return h.hexdigest()


def run_entry(fields: dict, workers: int, out: str) -> tuple:
    """``(digests, build)`` of one run of the config ``fields`` with
    ``workers``: the CSV's sha256 and each task's digest, and the numpy
    build that the run's sidecar records."""
    report = run(RunConfig(**fields, out=out), workers=workers, quiet=True)
    with open(report.csv_path, "rb") as fh:
        csv_sha256 = hashlib.sha256(fh.read()).hexdigest()
    with open(report.json_path, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    tasks = {f"{o.policy}/{o.replication}": task_digest(o)
             for o in report.outputs}
    return ({"csv_sha256": csv_sha256, "tasks": tasks},
            {"numpy_version": sidecar["numpy_version"],
             "simd": sidecar["simd"]})


def entries() -> dict:
    """Entry name -> its ``RunConfig``."""
    simulate = load_config(os.path.join("configs", "simulate.cfg"))
    gain = load_config(os.path.join("configs", "gain.cfg"))
    return {
        "study": RunConfig(
            mode="simulate", T=3000, replications=2,
            policies=("wts", "ts_unknown"), mc_samples=512, thin=1,
            means=REGRET_MEANS, variances=REGRET_VARIANCES),
        "gain": gain.replaced(seed=0, replications=2),
        "onehot_trace": simulate.replaced(
            seed=0, replications=2, thin=1,
            policies=("ts_known", "ts_unknown", "oracle", "uniform")),
        "gain_fixed_plays": gain.replaced(seed=0, replications=2,
                                          policies=("oracle", "uniform")),
    }


def main() -> None:
    record = {"build": None, "entries": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in entries().items():
            fields = cfg.to_dict()
            del fields["out"]
            (digests, build), (other, _) = (
                run_entry(fields, w, os.path.join(tmp, f"{name}{w}"))
                for w in WORKERS)
            assert digests == other, f"{name}: workers changed the bytes"
            record["build"] = build
            record["entries"][name] = {"config": fields, **digests}
            print(name, digests["csv_sha256"][:12])
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    main()
