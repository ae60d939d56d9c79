"""The committed BENCH_*.json records must be exact.

Each file maps an experiment name to its row list; any other top-level
key (a ``_profile`` dump, a note) is metadata and skipped.  A row that
carries a correctness column must hold it: the labelling stayed
``identical`` to a from-scratch rebuild, and no BFS-checked answer was
``incorrect``.  ``None`` means the column does not apply to that row.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

_INVARIANTS = {
    "identical": lambda v: v is None or v is True,
    "incorrect": lambda v: v is None or v == 0,
    "bfs_incorrect": lambda v: v is None or v == 0,
}


def test_committed_records_hold_their_invariants():
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths, "no committed BENCH_*.json records"
    checked = 0
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        for experiment, rows in data.items():
            if not isinstance(rows, list):
                continue
            for row in rows:
                for field, holds in _INVARIANTS.items():
                    if field in row:
                        assert holds(row[field]), (path.name, experiment, row)
                        checked += 1
    assert checked, "no record row carries a correctness column"
