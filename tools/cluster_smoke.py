#!/usr/bin/env python
"""End-to-end cluster smoke check (CI gate for `repro.cluster`).

Boots the full replicated stack — oracle build, `save_oracle` warm-start
file, :class:`ClusterSupervisor` spawning a WAL-backed router plus N
replica processes — then:

1. drives a concurrent phase: client threads run closed `query_many`
   loops against the router while updates stream in through the protocol
   (measures aggregate qps across the replica fleet);
2. drains every replica to the log head (`snapshot` op), then runs the
   ``--clients`` readers again, concurrently: each checks ``--checks``
   pairs of its own frames — routed with `min_epoch` = head, so every
   replica must be caught up — against a local BFS mirror that replayed
   the same updates (a response delivered to the wrong frame shows up
   as a wrong answer);
3. scrapes the router's ``--metrics-port`` Prometheus endpoint after the
   drain and asserts every per-replica lag gauge reads **zero** (the
   cluster converged), and that one traced request produced spans
   (``--span-log FILE`` mirrors spans to an NDJSON artifact);
4. checks the router's ``aggregate.queries.count`` equals the sum of its
   replicas' ``queries.count`` (both read from the replicas' one latency
   histogram each);
5. checks the supervisor's child processes are exactly its replicas
   (no ``multiprocessing`` resource tracker or other helper);
6. stops the supervisor and asserts a **clean shutdown**: every replica
   process exited 0 after its SIGTERM drain.

Exit code 0 requires **nonzero qps, zero incorrect answers, zero-lag
convergence in the exposition, an exact read-count aggregate, a lean
process tree, and a clean shutdown**.

With ``--shards N`` the supervisor runs N landmark shard groups of
``--replicas`` each; reads scatter-gather across groups, so the BFS
cross-checks exercise the element-wise min reduction end to end.  The
smoke then also asserts every ``repro_shard_lag`` gauge reads zero and
reports per-shard label entries and peak RSS (``--json-out`` writes the
whole result as a bench JSON artifact).

Usage:  PYTHONPATH=src python tools/cluster_smoke.py [--seconds 3]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import urllib.request
from pathlib import Path
from time import perf_counter

from smoke_common import QueryLoop

from repro.cluster import ClusterSupervisor
from repro.core.dynamic import DynamicHCL
from repro.graph.generators import barabasi_albert
from repro.obs.profile import dump_if_enabled
from repro.obs.trace import new_trace_id
from repro.serving.client import ServingClient
from repro.utils.serialization import save_oracle
from repro.workloads.streams import mixed_stream


def child_pids(pid: int) -> set[int]:
    """Live (non-zombie) child pids of ``pid``, read from ``/proc``."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.add(int(entry))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--replicas", type=int, default=2,
                        help="replica processes per shard group")
    parser.add_argument("--shards", type=int, default=1,
                        help="landmark shard groups (1 = unsharded)")
    parser.add_argument("--vertices", type=int, default=400)
    parser.add_argument("--updates", type=int, default=60)
    parser.add_argument("--checks", type=int, default=150,
                        help="BFS-checked pairs per reader after the drain")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--span-log", default=None, metavar="FILE",
                        help="mirror router spans to this NDJSON file")
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="write the smoke result as a bench JSON artifact")
    args = parser.parse_args(argv)
    if args.span_log:
        # Before any span is recorded and before replicas spawn: they
        # inherit the environment, so router and replica spans land in
        # the same NDJSON file (whole-line appends, flushed per span).
        os.environ["REPRO_SPAN_LOG"] = str(args.span_log)

    graph = barabasi_albert(args.vertices, attach=3, rng=args.seed)
    events = mixed_stream(graph, args.updates, rng=args.seed)
    oracle = DynamicHCL.build(graph, num_landmarks=10)
    vertices = sorted(graph.vertices())

    with tempfile.TemporaryDirectory() as tmp:
        oracle_file = Path(tmp) / "oracle.json.gz"
        save_oracle(oracle, oracle_file)
        supervisor = ClusterSupervisor(
            oracle_file,
            cluster_dir=Path(tmp) / "cluster",
            replicas=args.replicas,
            shards=args.shards,
            port=0,
            fsync="batch",
            router_kwargs={"metrics_port": 0},
        )
        host, port = supervisor.start_in_thread()
        total_replicas = args.shards * args.replicas
        children = child_pids(os.getpid())
        replica_pids = {
            worker.process.pid
            for worker in supervisor.workers_by_name.values()
        }
        print(f"cluster router on {host}:{port} with {args.shards} shard "
              f"group(s) x {args.replicas} replicas "
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

            # Stream the updates through the router while readers run,
            # mirroring them locally for the later correctness pass.
            mirror = {v: set(ns) for v, ns in graph.adjacency().items()}
            with ServingClient(host, port) as feeder:
                head = 0
                for event in events:
                    u, v = event.edge
                    response = feeder.update(event.kind, u, v)
                    head = response["epoch"]
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

                # Drain every replica to the head, then verify concurrent
                # reads gated at that epoch against the BFS mirror.
                final = feeder.snapshot()
                stats = feeder.stats()
                checkers = [
                    QueryLoop(host, port, vertices, args.seed * 7 + i,
                              perf_counter() + 60, limit=args.checks,
                              mirror=mirror, min_epoch=head)
                    for i in range(args.clients)
                ]
                for checker in checkers:
                    checker.start()
                for checker in checkers:
                    checker.join()
                checked = sum(checker.count for checker in checkers)
                incorrect = sum(checker.incorrect for checker in checkers)
                failed = [
                    repr(checker.error) for checker in checkers if checker.error
                ]

                # Observability: one traced read through the router, then
                # scrape the router's Prometheus endpoint — every replica
                # has acked the head, so all lag gauges must read zero.
                trace = new_trace_id()
                feeder.query(vertices[0], vertices[-1], min_epoch=head, trace=trace)
                trace_spans = feeder.spans(of=trace)
            mhost, mport = supervisor.router.metrics_address
            with urllib.request.urlopen(
                f"http://{mhost}:{mport}/", timeout=10
            ) as response:
                exposition = response.read().decode("utf-8")
            lag_lines = [
                line for line in exposition.splitlines()
                if line.startswith("repro_replica_lag{")
            ]
            shard_lag_lines = [
                line for line in exposition.splitlines()
                if line.startswith("repro_shard_lag{")
            ]
        finally:
            supervisor.stop_thread()
        exit_codes = {
            name: worker.exitcode
            for name, worker in supervisor.workers_by_name.items()
        }

    lags = {name: entry["lag"] for name, entry in stats["replicas"].items()}
    print(f"concurrent phase: {queries} queries in {elapsed:.2f}s -> "
          f"{qps:.0f} qps across {args.clients} clients / "
          f"{total_replicas} replicas")
    print(f"writer: log head {final['epoch']}, replica lags {lags}, "
          f"aggregate applied {stats['aggregate']['events_applied']}")
    shard_report = {}
    for index, group in sorted((stats.get("shards") or {}).items(), key=lambda kv: int(kv[0])):
        entries = [
            entry.get("service", {}).get("label_entries", 0)
            for entry in stats["replicas"].values()
            if entry.get("shard") == int(index)
        ]
        shard_report[index] = {
            "lag": group.get("lag"),
            "rss_kb_max": group.get("rss_kb_max"),
            "label_entries_max": max(entries or [0]),
        }
        print(f"shard s{index}: lag={group.get('lag')} "
              f"rss_max={group.get('rss_kb_max'):,}KiB "
              f"label_entries={shard_report[index]['label_entries_max']:,}")
    print(f"verification: {checked} BFS cross-checks by {args.clients} "
          f"concurrent readers at min_epoch={head}, {incorrect} incorrect")
    print(f"observability: {len(trace_spans)} router span(s) for trace "
          f"{trace}, {len(exposition)} bytes of exposition, "
          f"lag gauges: {lag_lines}")
    print(f"process tree: children {sorted(children)}, replicas "
          f"{sorted(replica_pids)}")
    print(f"shutdown: replica exit codes {exit_codes}")

    if queries == 0 or qps <= 0:
        print("FAIL: zero query throughput", file=sys.stderr)
        return 1
    if incorrect:
        print(f"FAIL: {incorrect} incorrect answers", file=sys.stderr)
        return 1
    if failed or checked < args.clients * args.checks:
        print(f"FAIL: {checked} of {args.clients * args.checks} checks ran; "
              f"failed reads: {failed}", file=sys.stderr)
        return 1
    if final["epoch"] != args.updates:
        print(f"FAIL: log head {final['epoch']} != {args.updates} updates",
              file=sys.stderr)
        return 1
    if not trace_spans:
        print("FAIL: traced request produced no router spans", file=sys.stderr)
        return 1
    if len(lag_lines) != total_replicas:
        print(f"FAIL: expected {total_replicas} replica lag gauges, "
              f"got {lag_lines}", file=sys.stderr)
        return 1
    if any(not line.rstrip().endswith(" 0") for line in lag_lines):
        print(f"FAIL: nonzero replication lag after drain: {lag_lines}",
              file=sys.stderr)
        return 1
    if args.shards > 1:
        if len(shard_lag_lines) != args.shards:
            print(f"FAIL: expected {args.shards} shard lag gauges, "
                  f"got {shard_lag_lines}", file=sys.stderr)
            return 1
        if any(not line.rstrip().endswith(" 0") for line in shard_lag_lines):
            print(f"FAIL: nonzero shard lag after drain: {shard_lag_lines}",
                  file=sys.stderr)
            return 1
    replica_reads = sum(
        entry["service"]["queries"]["count"]
        for entry in stats["replicas"].values()
        if "service" in entry
    )
    aggregate_reads = stats["aggregate"]["queries"]["count"]
    print(f"metrics path: aggregate reads {aggregate_reads}, "
          f"replica sum {replica_reads}")
    if aggregate_reads != replica_reads:
        print("FAIL: router aggregate disagrees with its replicas' reads",
              file=sys.stderr)
        return 1
    if args.span_log and not Path(args.span_log).stat().st_size:
        print("FAIL: span log is empty", file=sys.stderr)
        return 1
    if children != replica_pids or len(replica_pids) != total_replicas:
        print(f"FAIL: supervisor children {sorted(children)} are not exactly "
              f"its {total_replicas} replicas {sorted(replica_pids)}",
              file=sys.stderr)
        return 1
    if any(code != 0 for code in exit_codes.values()):
        print(f"FAIL: unclean replica shutdown: {exit_codes}", file=sys.stderr)
        return 1
    if args.json_out:
        result = {
            "suite": "cluster_smoke",
            "host_cpus": os.cpu_count(),
            "shards": args.shards,
            "replicas_per_shard": args.replicas,
            "clients": args.clients,
            "vertices": args.vertices,
            "updates": args.updates,
            "checks": checked,
            "seconds": elapsed,
            "queries": queries,
            "qps": round(qps, 1),
            "incorrect": incorrect,
            "log_head": final["epoch"],
            "per_shard": shard_report,
            "exit_codes": exit_codes,
        }
        Path(args.json_out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"bench json -> {args.json_out}")
    # Under REPRO_PROFILE=1 the router-side folded stacks land in
    # REPRO_PROFILE_OUT (CI uploads them as an artifact); no-op otherwise.
    dump_if_enabled()
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
