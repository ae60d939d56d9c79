"""Per-layer metrics of a traced run, from the hook's span files and the
client's own timings.  Every metric is defined in ``spec.py``.

Values cover every call the traced system saw (warm-up batch, timed
window and the final correctness reads), averaged per call of the layer
named in the definition; per-process sums are averaged over the processes
that hold an oracle (one server, or every cluster replica).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import defaultdict
from pathlib import Path
from statistics import mean


def load_spans(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("spans-*.json"))]


def _nested_seconds(children: list, parents: list) -> float:
    """Total duration of ``children`` lying inside some ``parents`` interval
    on the same thread."""
    spans: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, tid, start, end, _ in parents:
        spans[tid].append((start, end))
    for intervals in spans.values():
        intervals.sort()
    total = 0.0
    for _, tid, start, end, _ in children:
        intervals = spans.get(tid, ())
        # Calls on one thread nest or follow each other, so the enclosing
        # parent, if any, is the last one that started before the child.
        i = bisect_right(intervals, (start, float("inf"))) - 1
        if i >= 0 and end <= intervals[i][1]:
            total += end - start
    return total


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def per_layer(files: list[dict], client: dict) -> dict[str, float]:
    """``client`` carries: ``reads`` [(trace, rtt_s)], ``batches`` (update
    batches sent), ``update_rtt_s`` (their summed client round trips until
    visible), ``pending_max``, ``boot_s``, ``oracle_bytes``, ``rss_mb``
    (pid -> MB of the untraced run), the two throughputs, ``wal_bytes`` and
    ``events_logged`` (cluster only)."""
    by_name: dict[str, list] = defaultdict(list)
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    procs = []
    for payload in files:
        records = defaultdict(list)
        for rec in payload["records"]:
            records[rec[0]].append(rec)
            by_name[rec[0]].append(rec)
        for name, (calls, seconds, useful) in payload["totals"].items():
            slot = totals[name]
            slot[0] += calls
            slot[1] += seconds
            slot[2] += useful
        procs.append(records)

    def dur(recs):
        return sum(r[3] - r[2] for r in recs)

    def avg_ms(recs):
        return _ms(dur(recs) / len(recs)) if recs else 0.0

    out: dict[str, float] = {}

    # Reads.
    queries = by_name["service.query"]
    n_q = max(1, len(queries))
    bfs_calls, bfs_s, bfs_useful = totals["query.bfs"]
    out["query.bfs_ms"] = _ms(bfs_s / n_q)
    out["query.bfs_useful_frac"] = bfs_useful / bfs_calls if bfs_calls else 0.0
    out["query.label_join_ms"] = _ms(totals["query.label_join"][1] / n_q)
    kernel_calls, kernel_s, _ = totals["query.kernel"]
    out["query.shard_kernel_ms"] = _ms(kernel_s / kernel_calls) if kernel_calls else 0.0
    out["service.query_ms"] = avg_ms(queries)
    per_trace = defaultdict(list)
    for rec in queries:
        if rec[4] and rec[4].get("trace"):
            per_trace[rec[4]["trace"]].append(rec[3] - rec[2])
    hops = [rtt - max(per_trace[t]) for t, rtt in client["reads"] if t in per_trace]
    out["server.read_wire_ms"] = _ms(mean(hops)) if hops else 0.0
    out["router.read_hop_ms"] = out["server.read_wire_ms"]
    skews = [max(d) - min(d) for d in per_trace.values() if len(d) > 1]
    out["router.shard_skew_ms"] = _ms(mean(skews)) if skews else 0.0
    out["read.residual_ms"] = (
        out["service.query_ms"] - out["query.label_join_ms"] - out["query.bfs_ms"]
    )

    # Updates: engine calls, snapshot publish, service apply.
    calls = by_name["engine.call"]
    attach = by_name["engine.attach"]
    captures = by_name["snapshot.capture"]
    n_e = max(1, len(calls))
    events = sum(r[4]["events"] for r in calls)
    find = sum(r[4]["find"] for r in calls)
    repair = sum(r[4]["repair"] for r in calls)
    out["service.events_per_apply"] = events / n_e
    out["engine.find_ms"] = _ms(find / n_e)
    out["engine.repair_ms"] = _ms(repair / n_e)
    out["engine.apply_other_ms"] = _ms(
        (dur(calls) - find - repair - _nested_seconds(attach, calls)) / n_e
    )
    out["engine.affected_per_event"] = (
        sum(r[4]["affected"] for r in calls) / events if events else 0.0
    )
    out["engine.attach_ms"] = avg_ms(attach)
    out["snapshot.capture_ms"] = (
        _ms((dur(captures) - _nested_seconds(attach, captures)) / len(captures))
        if captures else 0.0
    )

    batches = max(1, client["batches"])
    writers = [p for p in procs if p["service.apply"] or p["service.publish"]]
    service_s = mean(
        dur(p["service.apply"]) + dur(p["service.publish"]) for p in writers
    ) if writers else 0.0
    inner_s = mean(
        _nested_seconds(p["engine.call"], p["service.apply"])
        + _nested_seconds(p["snapshot.capture"], p["service.publish"])
        for p in writers
    ) if writers else 0.0
    out["server.update_wire_ms"] = _ms((client["update_rtt_s"] - service_s) / batches)
    out["update.residual_ms"] = _ms((service_s - inner_s) / batches)
    applies = by_name["replica.apply"]
    out["replica.apply_ms"] = avg_ms(applies) if applies else _ms(service_s / batches)
    out["replica.lag_events_max"] = float(client["pending_max"])

    # Cluster write-ahead log.
    out["wal.append_ms"] = avg_ms(by_name["wal.append"])
    out["wal.bytes_per_event"] = (
        client["wal_bytes"] / client["events_logged"] if client.get("events_logged") else 0.0
    )

    # Setup.
    out["setup.build_s"] = dur(by_name["setup.build"])
    out["setup.save_s"] = dur(by_name["setup.save"])
    out["setup.load_s"] = dur(by_name["setup.load"])
    out["setup.boot_s"] = client["boot_s"]
    out["setup.oracle_file_mb"] = client["oracle_bytes"] / 2**20
    out["replica.peak_rss_mb"] = max(client["rss_mb"].values())
    out["trace.overhead_frac"] = 1.0 - client["traced_rate"] / client["untraced_rate"]
    return out
