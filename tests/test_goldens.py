"""Golden trace digests: runs of the shapes the benchmark and the README's
determinism claims rest on, hashed and held against a checked-in record.

``golden_digests.json`` holds, for each entry, its ``RunConfig`` fields
(seed 0), the sha256 of the CSV the run writes, and one digest per task of
its ``final_cum`` and ``z_snapshots``.  The record names the numpy version
and SIMD targets it was made with: numpy may change last bits between
builds (README, Determinism), so a run on another build checks only that
workers 1 and 2 write the same bytes.  ``make_goldens.py`` writes the
record again; a change that means to move bytes does so and says why.
"""

import json
import warnings

import pytest

from make_goldens import GOLDEN_PATH, WORKERS, run_entry

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN["entries"]))
def test_trace_matches_golden(name, tmp_path):
    entry = GOLDEN["entries"][name]
    (one, build), (two, _) = (
        run_entry(entry["config"], w, str(tmp_path / f"w{w}"))
        for w in WORKERS)
    assert one == two, "the worker count changed the bytes"
    if build != GOLDEN["build"]:
        warnings.warn(f"no goldens for numpy {build['numpy_version']} with "
                      f"SIMD {build['simd']}; checked workers 1 and 2 only")
        return
    assert one == {"csv_sha256": entry["csv_sha256"],
                   "tasks": entry["tasks"]}
