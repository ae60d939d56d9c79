"""Bench-vs-baseline comparison: the CI perf-regression gate.

Compares a fresh ``python -m repro.bench --json`` output against a
committed ``BENCH_*.json`` baseline, row by row.  A row is identified by
its configuration fields (experiment/dataset/mode/replicas/...), and two
matched rows are compared metric by metric:

* **lower-better** metrics (``total_ms``, ``per_update_us``, tail
  latencies...) regress when ``fresh > baseline * (1 + threshold)``;
* **higher-better** metrics (``speedup``, ``qps``...) regress when
  ``fresh < baseline / (1 + threshold)``;
* **invariants** are absolute, not relative: ``identical`` must stay
  true and ``incorrect`` / ``bfs_incorrect`` must stay zero in the fresh
  rows — a correctness break fails the gate even when timings improved.

Comparisons that would be meaningless are *skipped*, not failed:

* rows whose **scale fields** (``updates``, ``events``, ``duration_s``,
  ``deletes``, ``clients``) differ — a smoke-profile run against a
  full-profile baseline shares row keys but not workloads;
* rows recorded on a different **host CPU count** (the ``host_cpus``
  stamp the cluster experiment writes) — replica scaling numbers from a
  1-CPU container say nothing about a 8-CPU runner;
* metrics whose baseline value sits under the **noise floor** (10 ms /
  10 us / 100 qps) — a 2 ms phase timing doubling is scheduler jitter,
  not a regression.

Skips are reported, never silent: the rendered report says what was not
compared and why.  ``tools/bench_compare.py`` is the CLI wrapper; exit
code 1 means at least one regression or invariant failure.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "load_bench",
    "compare_rows",
    "compare_bench",
    "render_report",
    "has_failures",
    "LOWER_BETTER",
    "HIGHER_BETTER",
    "SCALE_FIELDS",
    "ID_FIELDS",
]

#: Fields that *identify* a row (configuration, not measurement).
ID_FIELDS = ("experiment", "dataset", "mode", "replicas", "shards")

#: Fields that set the workload scale: rows only compare when these match.
SCALE_FIELDS = ("updates", "events", "deletes", "duration_s", "clients")

#: Metrics where smaller is better (latency/cost).
LOWER_BETTER = (
    "total_ms",
    "per_update_us",
    "per_event_us",
    "p50_us",
    "p95_us",
    "p99_us",
    "attach_ms",
    "propagation_ms",
)

#: Metrics where larger is better (throughput/speedup).
HIGHER_BETTER = (
    "qps",
    "speedup",
    "speedup_vs_single",
    "speedup_vs_fallback",
)

#: Fresh-row invariants checked regardless of scale/host: field -> check.
_INVARIANTS = {
    "identical": lambda v: v is None or v is True,
    "incorrect": lambda v: v is None or v == 0,
    "bfs_incorrect": lambda v: v is None or v == 0,
}

#: Baseline values under these floors are noise, not signal.
_FLOORS = {"_ms": 10.0, "_us": 10.0, "qps": 100.0}


def _floor(metric: str) -> float:
    for suffix, floor in _FLOORS.items():
        if metric.endswith(suffix) or metric == suffix:
            return floor
    return 0.0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_bench(path: str | os.PathLike) -> dict[str, list[dict]]:
    """Load a bench JSON file: ``{experiment: [row, ...]}``.  Top-level
    keys that are not row lists (e.g. the ``caveat`` note or a
    ``_profile`` dump) are metadata, not experiments — dropped here."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: bench JSON must be an object")
    return {
        name: rows for name, rows in data.items() if isinstance(rows, list)
    }


def _row_key(experiment: str, row: dict) -> tuple:
    return (experiment,) + tuple(
        (field, row.get(field)) for field in ID_FIELDS if field in row
    )


def _key_label(key: tuple) -> str:
    experiment, *fields = key
    parts = [experiment] + [
        f"{value}" for field, value in fields if value is not None
    ]
    return "/".join(str(p) for p in parts)


def compare_rows(
    key: tuple,
    baseline: dict,
    fresh: dict,
    *,
    threshold: float = 0.20,
    host_cpus: int | None = None,
) -> list[dict]:
    """Compare one matched row pair; returns finding dicts with
    ``status`` in ``regression`` / ``improved`` / ``ok`` / ``skipped`` /
    ``invariant-failure``."""
    label = _key_label(key)
    findings: list[dict] = []
    for field, check in _INVARIANTS.items():
        if field in fresh and not check(fresh[field]):
            findings.append(
                {
                    "status": "invariant-failure",
                    "row": label,
                    "metric": field,
                    "detail": f"{field}={fresh[field]!r} must stay "
                    + ("true" if field == "identical" else "0"),
                }
            )
    mismatched = [
        field
        for field in SCALE_FIELDS
        if baseline.get(field) != fresh.get(field)
    ]
    if mismatched:
        findings.append(
            {
                "status": "skipped",
                "row": label,
                "metric": ",".join(mismatched),
                "detail": "scale mismatch (different workload profile)",
            }
        )
        return findings
    base_cpus = baseline.get("host_cpus")
    fresh_cpus = fresh.get("host_cpus", host_cpus)
    if base_cpus is not None and fresh_cpus is not None and base_cpus != fresh_cpus:
        findings.append(
            {
                "status": "skipped",
                "row": label,
                "metric": "host_cpus",
                "detail": f"recorded on {base_cpus} cpu(s), "
                f"running on {fresh_cpus}",
            }
        )
        return findings
    for metric in LOWER_BETTER + HIGHER_BETTER:
        base_value = baseline.get(metric)
        fresh_value = fresh.get(metric)
        if not (_is_number(base_value) and _is_number(fresh_value)):
            continue
        if base_value <= 0:
            continue
        if base_value < _floor(metric):
            findings.append(
                {
                    "status": "skipped",
                    "row": label,
                    "metric": metric,
                    "detail": f"baseline {base_value:g} under the "
                    f"{_floor(metric):g} noise floor",
                }
            )
            continue
        lower_better = metric in LOWER_BETTER
        ratio = fresh_value / base_value
        delta_pct = (ratio - 1.0) * 100.0
        regressed = (
            ratio > 1.0 + threshold
            if lower_better
            else ratio < 1.0 / (1.0 + threshold)
        )
        improved = (
            ratio < 1.0 / (1.0 + threshold)
            if lower_better
            else ratio > 1.0 + threshold
        )
        findings.append(
            {
                "status": "regression"
                if regressed
                else ("improved" if improved else "ok"),
                "row": label,
                "metric": metric,
                "baseline": base_value,
                "fresh": fresh_value,
                "delta_pct": round(delta_pct, 1),
            }
        )
    return findings


def compare_bench(
    baseline: dict[str, list[dict]],
    fresh: dict[str, list[dict]],
    *,
    threshold: float = 0.20,
    host_cpus: int | None = None,
) -> list[dict]:
    """Compare two loaded bench dicts; returns the flat finding list.

    Baseline rows with no fresh counterpart surface as ``missing`` (the
    smoke jobs legitimately run subsets — informational, not failing);
    fresh-only rows surface as ``new``.
    """
    if host_cpus is None:
        host_cpus = os.cpu_count()
    findings: list[dict] = []
    for experiment, base_rows in baseline.items():
        fresh_rows = {
            _row_key(experiment, row): row
            for row in fresh.get(experiment, [])
            if isinstance(row, dict)
        }
        seen = set()
        for base_row in base_rows:
            if not isinstance(base_row, dict):
                continue
            key = _row_key(experiment, base_row)
            fresh_row = fresh_rows.get(key)
            if fresh_row is None:
                findings.append(
                    {
                        "status": "missing",
                        "row": _key_label(key),
                        "metric": "",
                        "detail": "row absent from the fresh run",
                    }
                )
                continue
            seen.add(key)
            findings.extend(
                compare_rows(
                    key,
                    base_row,
                    fresh_row,
                    threshold=threshold,
                    host_cpus=host_cpus,
                )
            )
        for key in fresh_rows.keys() - seen:
            findings.append(
                {
                    "status": "new",
                    "row": _key_label(key),
                    "metric": "",
                    "detail": "row absent from the baseline",
                }
            )
    return findings


def has_failures(findings: list[dict]) -> bool:
    return any(
        f["status"] in ("regression", "invariant-failure") for f in findings
    )


def render_report(findings: list[dict], *, verbose: bool = False) -> str:
    """Human-readable gate report.  Without ``verbose``, per-metric ``ok``
    lines collapse into a count; failures and skips always print."""
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding["status"]] = counts.get(finding["status"], 0) + 1
    lines = [
        "bench-compare: "
        + ", ".join(f"{counts.get(s, 0)} {s}" for s in (
            "regression", "invariant-failure", "ok", "improved",
            "skipped", "missing", "new",
        ) if counts.get(s))
    ]
    for finding in findings:
        status = finding["status"]
        if status == "ok" and not verbose:
            continue
        if "delta_pct" in finding:
            sign = "+" if finding["delta_pct"] >= 0 else ""
            lines.append(
                f"  [{status}] {finding['row']} {finding['metric']}: "
                f"{finding['baseline']:g} -> {finding['fresh']:g} "
                f"({sign}{finding['delta_pct']}%)"
            )
        else:
            lines.append(
                f"  [{status}] {finding['row']} {finding['metric']}: "
                f"{finding.get('detail', '')}".rstrip(": ")
            )
    if not findings:
        lines.append("  (nothing to compare)")
    return "\n".join(lines)
