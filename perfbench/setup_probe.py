"""Time one set-up in a fresh process.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

Times ``import spreadbandits``, the workload's configuration
(``load_config`` or ``RunConfig``) and its instance construction, up to the
point where ``run`` would be entered, and prints the three durations in
seconds as one JSON line.
"""

import time

t0 = time.perf_counter()
import spreadbandits  # noqa: E402

t1 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from workloads import build_problem, make_config  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t2 = time.perf_counter()
    cfg = make_config(name, root, seed, "unused")
    t3 = time.perf_counter()
    build_problem(cfg)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t3 - t2,
                      "instance_s": t4 - t3,
                      "package": spreadbandits.__file__}))


if __name__ == "__main__":
    main()
