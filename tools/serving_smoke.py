#!/usr/bin/env python
"""End-to-end serving smoke check (CI gate).

Boots the full stack — oracle build, ``save_oracle`` warm-start file, TCP
server, wire protocol — then:

1. drives a concurrent phase: N client threads run closed query loops
   over TCP while updates stream in through the protocol (measures qps);
2. drains the writer (``snapshot`` op), then re-checks every query pair
   against a local BFS mirror that replayed the same updates — any
   disagreement is an incorrect answer;
3. exercises the observability layer: one traced request must come back
   from the ``spans`` op, and the ``--metrics-port`` HTTP endpoint must
   serve a Prometheus exposition containing the serving histograms
   (``--span-log FILE`` additionally mirrors spans to an NDJSON file the
   CI job uploads as an artifact);
4. checks that ``stats`` and the exposition read one latency store: after
   the last read, ``stats.queries.count`` must equal
   ``repro_query_latency_seconds_count`` and ``p99_ms`` must be set.

Exit code 0 requires **nonzero qps, zero incorrect answers, a live
metrics exposition, and one metrics path**.

Usage:  PYTHONPATH=src python tools/serving_smoke.py [--seconds 3]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import urllib.request
from pathlib import Path
from time import perf_counter

from smoke_common import QueryLoop, bfs_distance

from repro.core.dynamic import DynamicHCL
from repro.graph.generators import barabasi_albert
from repro.obs.profile import dump_if_enabled
from repro.obs.trace import new_trace_id
from repro.serving.client import ServingClient
from repro.serving.server import OracleServer
from repro.utils.rng import ensure_rng
from repro.utils.serialization import save_oracle
from repro.workloads.streams import mixed_stream

#: Metric families the exposition must contain for the scrape to count.
_REQUIRED_METRICS = (
    "repro_query_latency_seconds_bucket",
    "repro_update_latency_seconds_bucket",
    "repro_requests_total",
)


def _sample_value(exposition: str, name: str) -> int | None:
    """The value of the unlabelled sample ``name`` in Prometheus text."""
    for line in exposition.splitlines():
        key, _, value = line.partition(" ")
        if key == name:
            return int(float(value))
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--vertices", type=int, default=400)
    parser.add_argument("--updates", type=int, default=60)
    parser.add_argument("--checks", type=int, default=150)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--span-log", default=None, metavar="FILE",
                        help="mirror spans to this NDJSON file")
    args = parser.parse_args(argv)
    if args.span_log:
        # Must land in the environment before the first span is recorded:
        # the process-wide recorder reads it at first use.
        os.environ["REPRO_SPAN_LOG"] = str(args.span_log)

    graph = barabasi_albert(args.vertices, attach=3, rng=args.seed)
    events = mixed_stream(graph, args.updates, rng=args.seed)
    oracle = DynamicHCL.build(graph, num_landmarks=10)
    vertices = sorted(graph.vertices())

    with tempfile.TemporaryDirectory() as tmp:
        oracle_file = Path(tmp) / "oracle.json.gz"
        save_oracle(oracle, oracle_file)
        server = OracleServer.from_file(oracle_file, port=0, metrics_port=0)
        host, port = server.start_in_thread()
        print(f"serving warm-started oracle on {host}:{port} "
              f"(|V|={len(vertices)}, |E|={graph.num_edges})")
        try:
            deadline = perf_counter() + args.seconds
            loops = [
                QueryLoop(host, port, vertices, args.seed + i, deadline)
                for i in range(args.clients)
            ]
            start = perf_counter()
            for loop in loops:
                loop.start()

            # Stream the updates through the protocol while readers run,
            # mirroring them locally for the later correctness pass.
            mirror = {v: set(ns) for v, ns in graph.adjacency().items()}
            with ServingClient(host, port) as feeder:
                for event in events:
                    u, v = event.edge
                    feeder.update(event.kind, u, v)
                    if event.is_insert:
                        mirror[u].add(v)
                        mirror[v].add(u)
                    else:
                        mirror[u].discard(v)
                        mirror[v].discard(u)
                for loop in loops:
                    loop.join()
                elapsed = perf_counter() - start
                queries = sum(loop.count for loop in loops)
                qps = queries / elapsed

                # Drain + verify against the BFS mirror on the final graph:
                # all checks go out as one query_many frame, then each
                # answer is BFS-checked locally.
                final = feeder.snapshot()
                stats = feeder.stats()
                rng = ensure_rng(args.seed * 7)
                pairs = [
                    (rng.choice(vertices), rng.choice(vertices))
                    for _ in range(args.checks)
                ]
                answers = feeder.query_many(pairs)
                incorrect = sum(
                    1
                    for (u, v), got in zip(pairs, answers)
                    if got != bfs_distance(mirror, u, v)
                )

                # Observability: trace one request end-to-end, then
                # scrape the Prometheus endpoint over HTTP.
                trace = new_trace_id()
                feeder.query(*pairs[0], trace=trace)
                trace_spans = feeder.spans(of=trace)
                # After the last read: the scrape below must agree.
                read_summary = feeder.stats()["queries"]
            mhost, mport = server.metrics_address
            with urllib.request.urlopen(
                f"http://{mhost}:{mport}/", timeout=10
            ) as response:
                exposition = response.read().decode("utf-8")
        finally:
            server.stop_thread()

    print(f"concurrent phase: {queries} queries in {elapsed:.2f}s -> "
          f"{qps:.0f} qps across {args.clients} clients")
    print(f"writer: {stats['events_applied']} applied, "
          f"{stats['events_rejected']} rejected, epoch {final['epoch']}")
    print(f"verification: {args.checks} BFS cross-checks, "
          f"{incorrect} incorrect")
    print(f"observability: {len(trace_spans)} span(s) for trace {trace}, "
          f"{len(exposition)} bytes of Prometheus exposition")

    if queries == 0 or qps <= 0:
        print("FAIL: zero query throughput", file=sys.stderr)
        return 1
    if incorrect:
        print(f"FAIL: {incorrect} incorrect answers", file=sys.stderr)
        return 1
    if stats["events_applied"] == 0:
        print("FAIL: writer applied no updates", file=sys.stderr)
        return 1
    if not trace_spans:
        print("FAIL: traced request produced no spans", file=sys.stderr)
        return 1
    missing = [m for m in _REQUIRED_METRICS if m not in exposition]
    if missing:
        print(f"FAIL: metrics exposition lacks {missing}", file=sys.stderr)
        return 1
    scraped = _sample_value(exposition, "repro_query_latency_seconds_count")
    print(f"metrics path: stats count {read_summary['count']}, scraped "
          f"count {scraped}, p99 {read_summary['p99_ms']} ms")
    if read_summary["count"] != scraped or read_summary["p99_ms"] is None:
        print("FAIL: stats and /metrics disagree on the read latencies",
              file=sys.stderr)
        return 1
    if args.span_log and not Path(args.span_log).stat().st_size:
        print("FAIL: span log is empty", file=sys.stderr)
        return 1
    # Under REPRO_PROFILE=1 the folded stacks land in REPRO_PROFILE_OUT
    # (CI uploads them as an artifact); a no-op otherwise.
    dump_if_enabled()
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
