"""``python -m repro`` — build, persist, query and update oracles from files.

The library-level entry point for users who want the paper's system as a
tool rather than an API (the benchmark harness has its own entry point,
``python -m repro.bench``).  Subcommands:

* ``build``   — construct an oracle from an edge list and save it;
* ``query``   — answer ``u v`` distance queries from a saved oracle;
* ``path``    — print one exact shortest path;
* ``insert``  / ``delete`` — apply updates (IncHL+ / DecHL) and re-save;
* ``stats``   — labelling and highway statistics;
* ``serve``   — warm-start the TCP query service from a saved oracle
  (:mod:`repro.serving`; newline-delimited JSON protocol);
* ``serve-cluster`` — the replicated deployment: N replica processes
  behind a WAL-backed router speaking the same protocol
  (:mod:`repro.cluster`);
* ``top``     — live stats of a running server or cluster, refreshed
  like ``top(1)`` (reads the ``stats`` op; works against both), plus
  metric sparklines and SLO state when the server records history;
* ``profile`` — inspect/control the sampling profiler of a running
  server (``REPRO_PROFILE=1``): per-phase attribution table and
  flamegraph-compatible folded stacks;
* ``lint``    — project-specific static analysis (:mod:`repro.lint`):
  lock discipline, frozen-snapshot immutability, async hygiene, NDJSON
  protocol drift, structured logging, env-knob registry;
* ``knobs``   — list every ``REPRO_*`` tuning knob with defaults and
  current values (:mod:`repro.knobs`).

Both serving commands take ``--metrics-port`` to additionally expose the
Prometheus text metrics of :mod:`repro.obs` over HTTP, ``--history`` to
record metrics history to an NDJSON file (the ``history`` op / ``top``
sparkline source), and ``--slo`` to enable multi-window burn-rate alerting
(``default`` for the built-in rules, or a JSON rules file — see
:mod:`repro.obs.slo` for the format).

Both serving commands shut down gracefully on SIGTERM/SIGINT: in-flight
requests drain, the WAL closes cleanly, replicas exit 0.

All file formats are the library's own: SNAP-style edge lists (``.gz``
transparently) in, ``save_oracle`` files out — ``repro-oracle-v2`` arrays
whatever the suffix (gzip-wrapped when the name ends in ``.gz``), written
atomically, so a failed ``insert``/``delete`` re-save keeps the old file.
Legacy ``repro-oracle-v1`` JSON files still load.

Examples::

    python -m repro build graph.txt -o oracle.json.gz --landmarks 20 --csr
    python -m repro query oracle.json.gz 17 4242
    python -m repro path oracle.json.gz 17 4242
    python -m repro insert oracle.json.gz 17 4242
    python -m repro stats oracle.json.gz
    python -m repro serve oracle.json.gz --port 8355
    python -m repro serve-cluster oracle.json.gz --replicas 2 --port 8360
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError

__all__ = ["main", "format_top", "sparkline"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Dynamic exact-distance oracle (IncHL+/DecHL over a highway "
            "cover labelling) as a command-line tool."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build an oracle from an edge list")
    build.add_argument("edge_list", help="whitespace edge list (.gz ok)")
    build.add_argument("-o", "--out", required=True, help="oracle output path")
    build.add_argument("--landmarks", type=int, default=20, help="|R| (default 20)")
    build.add_argument(
        "--strategy", default="degree",
        choices=("degree", "random", "betweenness", "spread"),
        help="landmark selection strategy",
    )
    build.add_argument(
        "--csr", action="store_true",
        help="use the numpy CSR construction fast path",
    )
    build.add_argument("--seed", type=int, default=2021, help="selection seed")

    query = sub.add_parser("query", help="exact distance between two vertices")
    query.add_argument("oracle", help="saved oracle path")
    query.add_argument("u", type=int)
    query.add_argument("v", type=int)

    path = sub.add_parser("path", help="one exact shortest path")
    path.add_argument("oracle", help="saved oracle path")
    path.add_argument("u", type=int)
    path.add_argument("v", type=int)

    insert = sub.add_parser("insert", help="insert an edge (IncHL+ repair)")
    insert.add_argument("oracle", help="saved oracle path (updated in place)")
    insert.add_argument("u", type=int)
    insert.add_argument("v", type=int)
    insert.add_argument("-o", "--out", default=None,
                        help="write to a different path (default: in place)")

    delete = sub.add_parser("delete", help="delete an edge (DecHL repair)")
    delete.add_argument("oracle", help="saved oracle path (updated in place)")
    delete.add_argument("u", type=int)
    delete.add_argument("v", type=int)
    delete.add_argument("-o", "--out", default=None,
                        help="write to a different path (default: in place)")

    stats = sub.add_parser("stats", help="labelling / highway statistics")
    stats.add_argument("oracle", help="saved oracle path")

    serve = sub.add_parser(
        "serve",
        help="serve queries over TCP while absorbing updates (repro.serving)",
    )
    serve.add_argument("oracle", help="saved oracle path (warm start)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8355,
                       help="bind port (0 = ephemeral)")
    serve.add_argument("--max-batch", type=int, default=128, metavar="K",
                       help="max update events coalesced per writer sweep")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="P",
                       help="also serve Prometheus text metrics over HTTP "
                            "on this port (0 = ephemeral)")
    serve.add_argument("--history", default=None, metavar="PATH",
                       help="record metrics history to this NDJSON file "
                            "(enables the history op / `repro top` charts)")
    serve.add_argument("--history-interval", type=float, default=5.0,
                       metavar="S", help="seconds between history samples "
                                         "(default 5)")
    serve.add_argument("--slo", default=None, metavar="RULES",
                       help="enable burn-rate alerting: 'default' for the "
                            "built-in rules, or a JSON rules file")

    cluster = sub.add_parser(
        "serve-cluster",
        help="replicated serving: N replica processes behind a WAL-backed "
             "router (repro.cluster)",
    )
    cluster.add_argument("oracle", help="saved oracle path (replica warm start)")
    cluster.add_argument("--replicas", type=int, default=2, metavar="N",
                         help="replica worker processes per shard group "
                              "(default 2)")
    cluster.add_argument("--shards", type=int, default=1, metavar="N",
                         help="landmark shard groups; each holds only its "
                              "owned landmarks' label rows and reads "
                              "scatter-gather across groups (default 1)")
    cluster.add_argument("--host", default="127.0.0.1", help="router bind address")
    cluster.add_argument("--port", type=int, default=8360,
                         help="router bind port (0 = ephemeral)")
    cluster.add_argument("--cluster-dir", default=None, metavar="DIR",
                         help="checkpoint + WAL directory "
                              "(default: <oracle>.cluster)")
    cluster.add_argument("--fsync", default="batch",
                         choices=("always", "batch", "never"),
                         help="WAL durability policy (default: batch)")
    cluster.add_argument("--max-batch", type=int, default=128, metavar="K",
                         help="max update events coalesced per replica sweep")
    cluster.add_argument("--compact-every", type=int, default=50_000,
                         metavar="N",
                         help="checkpoint + compact the WAL every N logged "
                              "events (0 disables)")
    cluster.add_argument("--no-restart", action="store_true",
                         help="do not respawn crashed replicas")
    cluster.add_argument("--metrics-port", type=int, default=None, metavar="P",
                         help="also serve router Prometheus text metrics over "
                              "HTTP on this port (0 = ephemeral)")
    cluster.add_argument("--history", default=None, metavar="PATH",
                         help="record router metrics history to this NDJSON "
                              "file (enables the history op / `repro top` "
                              "charts)")
    cluster.add_argument("--history-interval", type=float, default=5.0,
                         metavar="S", help="seconds between history samples "
                                           "(default 5)")
    cluster.add_argument("--slo", default=None, metavar="RULES",
                         help="enable burn-rate alerting: 'default' for the "
                              "built-in router rules, or a JSON rules file")

    top = sub.add_parser(
        "top",
        help="live stats of a running server or cluster (like top(1)), with "
             "metric sparklines + SLO alerts when it records history",
    )
    top.add_argument("--host", default="127.0.0.1", help="server address")
    top.add_argument("--port", type=int, default=8355, help="server port")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="seconds between refreshes (default 2)")
    top.add_argument("--count", type=int, default=None, metavar="N",
                     help="stop after N refreshes (default: until Ctrl-C)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (same as --count 1)")
    top.add_argument("--points", type=int, default=120, metavar="N",
                     help="history points to chart (default 120)")

    profile = sub.add_parser(
        "profile",
        help="sampling profiler of a running server: phase attribution + "
             "folded stacks (server must run with REPRO_PROFILE=1)",
    )
    profile.add_argument("--host", default="127.0.0.1", help="server address")
    profile.add_argument("--port", type=int, default=8355, help="server port")
    profile.add_argument("--action", default="dump",
                         choices=("dump", "start", "stop", "reset"),
                         help="profiler action (default: dump)")
    profile.add_argument("--folded", default=None, metavar="PATH",
                         help="write flamegraph-compatible folded stacks to "
                              "PATH ('-' for stdout)")
    profile.add_argument("--top", type=int, default=5, metavar="N",
                         help="hottest stacks to print inline (default 5)")

    lint = sub.add_parser(
        "lint",
        help="project-specific static analysis (reprolint): lock "
             "discipline, frozen snapshots, async hygiene, protocol "
             "drift, structured logs, env knobs",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or dirs to lint (default: src/repro)")
    lint.add_argument("--root", default=".",
                      help="repo root findings are relative to (default: cwd)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default: text)")
    lint.add_argument("--select", metavar="RULES",
                      help="comma-separated rule ids (default: all)")
    lint.add_argument("--baseline", metavar="PATH",
                      help="baseline file (default: tools/reprolint-baseline"
                           ".json under --root, if present)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--update-baseline", action="store_true",
                      help="write current findings to the baseline and exit 0")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")

    knobs = sub.add_parser(
        "knobs",
        help="list every REPRO_* tuning knob (registry, defaults, "
             "current values)",
    )
    knobs.add_argument("--format", choices=("table", "json", "markdown"),
                       default="table",
                       help="output format (default: table; markdown is the "
                            "README 'Tuning knobs' section)")
    return parser


def _cmd_build(args) -> int:
    from repro.core.dynamic import DynamicHCL
    from repro.graph.io import read_edge_list
    from repro.utils.serialization import save_oracle

    graph = read_edge_list(args.edge_list)
    print(f"loaded |V|={graph.num_vertices:,} |E|={graph.num_edges:,} "
          f"from {args.edge_list}")
    oracle = DynamicHCL.build(
        graph,
        num_landmarks=min(args.landmarks, graph.num_vertices),
        strategy=args.strategy,
        rng=args.seed,
        construction="csr" if args.csr else "python",
    )
    save_oracle(oracle, args.out)
    print(f"built |R|={len(oracle.landmarks)} size(L)={oracle.label_entries:,} "
          f"entries -> {args.out}")
    return 0


def _load(path):
    from repro.utils.serialization import load_oracle

    return load_oracle(path)


def _cmd_query(args) -> int:
    distance = _load(args.oracle).query(args.u, args.v)
    print("unreachable" if distance == float("inf") else int(distance))
    return 0


def _cmd_path(args) -> int:
    path = _load(args.oracle).shortest_path(args.u, args.v)
    if path is None:
        print("unreachable")
    else:
        print(" -> ".join(str(v) for v in path))
    return 0


def _cmd_insert(args) -> int:
    from repro.utils.serialization import save_oracle

    oracle = _load(args.oracle)
    stats = oracle.insert_edge(args.u, args.v)
    out = args.out or args.oracle
    save_oracle(oracle, out)
    print(f"inserted ({args.u}, {args.v}); affected {stats.affected_union} "
          f"vertices; size(L)={oracle.label_entries:,} -> {out}")
    return 0


def _cmd_delete(args) -> int:
    from repro.utils.serialization import save_oracle

    oracle = _load(args.oracle)
    stats = oracle.remove_edge(args.u, args.v)
    out = args.out or args.oracle
    save_oracle(oracle, out)
    print(f"deleted ({args.u}, {args.v}); affected {stats.affected_union} "
          f"vertices; size(L)={oracle.label_entries:,} -> {out}")
    return 0


def _cmd_stats(args) -> int:
    from repro.analysis import highway_stats, label_stats, landmark_entry_counts

    oracle = _load(args.oracle)
    graph = oracle.graph
    labelling = oracle.labelling
    lstats = label_stats(labelling, graph.num_vertices)
    hstats = highway_stats(labelling)
    counts = landmark_entry_counts(labelling)
    print(f"graph      |V|={graph.num_vertices:,} |E|={graph.num_edges:,} "
          f"avg deg={2 * graph.num_edges / max(graph.num_vertices, 1):.2f}")
    print(f"landmarks  |R|={hstats.num_landmarks} "
          f"highway connectivity={hstats.connectivity:.0%} "
          f"mean highway dist={hstats.mean_distance:.2f}")
    print(f"labels     size(L)={lstats.total_entries:,} entries "
          f"({lstats.size_bytes:,} bytes)  l={lstats.mean_label_size:.2f} "
          f"max={lstats.max_label_size}")
    busiest = max(counts, key=counts.get)
    idlest = min(counts, key=counts.get)
    print(f"coverage   busiest landmark {busiest} ({counts[busiest]:,} entries), "
          f"idlest {idlest} ({counts[idlest]:,})")
    return 0


def _resolve_slos(spec: str | None, role: str):
    """``--slo`` value -> rule list: ``None`` stays off, ``default`` is
    the built-in set for the role, anything else is a JSON rules file."""
    if spec is None:
        return None
    from repro.obs.slo import default_slos, load_slos

    if spec == "default":
        return default_slos(role)
    return load_slos(spec)


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serving.server import OracleServer

    server = OracleServer.from_file(
        args.oracle,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        metrics_port=args.metrics_port,
        history_path=args.history,
        history_interval=args.history_interval,
        slos=_resolve_slos(args.slo, "server"),
    )
    oracle = server.service.oracle
    print(f"loaded |V|={oracle.graph.num_vertices:,} "
          f"|E|={oracle.graph.num_edges:,} |R|={len(oracle.landmarks)} "
          f"size(L)={oracle.label_entries:,} from {args.oracle}")

    def _started(srv) -> None:
        host, port = srv.address
        print(f"serving on {host}:{port} "
              f"(newline-delimited JSON; ops: query, query_many, path, "
              f"update, updates, stats, metrics, spans, profile, history, "
              f"alerts, snapshot, ping; SIGTERM/SIGINT drain and stop)")
        if srv.metrics_address is not None:
            mhost, mport = srv.metrics_address
            print(f"metrics on http://{mhost}:{mport}/ (Prometheus text)")

    try:
        # run() serves until SIGTERM/SIGINT, then drains in-flight
        # requests and stops the writer before returning.
        asyncio.run(server.run(on_started=_started))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("interrupted; shutting down")
    return 0


def _cmd_serve_cluster(args) -> int:
    import asyncio

    from repro.cluster.supervisor import ClusterSupervisor

    cluster_dir = args.cluster_dir or f"{args.oracle}.cluster"
    router_kwargs = {}
    if args.metrics_port is not None:
        router_kwargs["metrics_port"] = args.metrics_port
    if args.history is not None:
        router_kwargs["history_path"] = args.history
        router_kwargs["history_interval"] = args.history_interval
    slos = _resolve_slos(args.slo, "router")
    if slos is not None:
        router_kwargs["slos"] = slos
        router_kwargs.setdefault("history_interval", args.history_interval)
    supervisor = ClusterSupervisor(
        args.oracle,
        cluster_dir=cluster_dir,
        replicas=args.replicas,
        shards=args.shards,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        fsync=args.fsync,
        restart=not args.no_restart,
        compact_every=args.compact_every or None,
        router_kwargs=router_kwargs,
    )

    def _started(sup) -> None:
        host, port = sup.address
        topology = (f"{args.shards} shard group(s) x {args.replicas} "
                    f"replica(s)" if args.shards > 1
                    else f"{args.replicas} replica(s)")
        print(f"cluster router on {host}:{port} with {topology}; "
              f"WAL in {cluster_dir} (fsync={args.fsync})")
        if sup.router.metrics_address is not None:
            mhost, mport = sup.router.metrics_address
            print(f"metrics on http://{mhost}:{mport}/ (Prometheus text)")
        for name, worker in sorted(sup.workers_by_name.items()):
            print(f"  replica {name}: pid={worker.process.pid} "
                  f"addr={worker.address}")
        print("same protocol as `serve`; updates return an `epoch` usable "
              "as `min_epoch` for read-your-writes; SIGTERM/SIGINT drain "
              "and stop")

    try:
        asyncio.run(supervisor.run(on_started=_started))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("interrupted; shutting down")
    return 0


def _fmt_summary(summary: dict | None) -> str:
    """One line for a latency summary (queries/updates sub-dict)."""
    if not summary or not summary.get("count"):
        return "n=0"
    parts = [f"n={summary['count']:,}"]
    if summary.get("qps"):
        parts.append(f"qps={summary['qps']:,}")
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        if summary.get(key) is not None:
            parts.append(f"{key[:-3]}={summary[key]:.3g}ms")
    return " ".join(parts)


def _fmt_brief(brief: dict | None, unit: str = "") -> str:
    """One line for a ``_hist_brief`` dict (phases/aff sub-dicts)."""
    if not brief or not brief.get("count"):
        return "n=0"
    parts = [f"n={brief['count']:,}", f"total={brief['total']:,}{unit}"]
    for key in ("p50", "p99"):
        if brief.get(key) is not None:
            parts.append(f"{key}={brief[key]:,}{unit}")
    return " ".join(parts)


def _format_stats(stats: dict) -> str:
    """The stats block of a `repro top` frame, from a ``stats`` response;
    works for both a single ``serve`` node and a ``serve-cluster``
    router."""
    lines: list[str] = []
    if stats.get("role") == "router":
        wal = stats.get("wal", {})
        growth = wal.get("wal_growth_bytes_per_s")
        lines.append(
            f"cluster   log head={stats['log_head']:,} "
            f"base={stats['log_base']:,} "
            f"wal={wal.get('segments', 0)} segs/{wal.get('bytes', 0):,}B "
            f"fsync={stats.get('fsync')}"
            + (f" growth={growth:,.0f}B/s" if growth is not None else "")
        )
        lines.append(
            f"router    reads={stats.get('reads_routed', 0):,} "
            f"writes={stats.get('writes_appended', 0):,} "
            f"fanout_batches={stats.get('fanout_batches', 0):,}"
        )
        router = stats.get("router", {})
        lines.append(f"  reads   {_fmt_summary(router.get('queries'))}")
        lines.append(f"  appends {_fmt_summary(router.get('updates'))}")
        aggregate = stats.get("aggregate", {})
        lines.append(
            f"cluster-wide  applied={aggregate.get('events_applied', 0):,} "
            f"rejected={aggregate.get('events_rejected', 0):,} "
            f"snapshots={aggregate.get('snapshots_published', 0):,}"
        )
        lines.append(f"  queries {_fmt_summary(aggregate.get('queries'))}")
        lines.append(f"  updates {_fmt_summary(aggregate.get('updates'))}")
        for index in sorted(stats.get("shards") or {}, key=int):
            group = stats["shards"][index]
            lag = group.get("lag")
            lines.append(
                f"shard s{index}   healthy={group.get('healthy', 0)}/"
                f"{group.get('replicas', 0)} "
                f"acked={group.get('acked_seq', 0):,} "
                f"lag={'?' if lag is None else f'{lag:,}'} "
                f"rss_max={group.get('rss_kb_max', 0):,}KiB"
            )
        sharded = stats.get("num_shards", 1) > 1
        for name in sorted(stats.get("replicas", {})):
            entry = stats["replicas"][name]
            health = "healthy" if entry.get("healthy") else "UNHEALTHY"
            lag = entry.get("lag")
            lines.append(
                f"replica {name}  "
                + (f"shard=s{entry.get('shard')} " if sharded else "")
                + f"{health} "
                f"acked={entry.get('acked_seq', 0):,} "
                f"lag={'?' if lag is None else f'{lag:,}'}"
            )
            service = entry.get("service")
            if service:
                lines.append(
                    f"  epoch={service.get('epoch', 0):,} "
                    f"pending={service.get('pending', 0):,} "
                    f"queries[{_fmt_summary(service.get('queries'))}]"
                )
        return "\n".join(lines)

    lines.append(
        f"oracle    epoch={stats.get('epoch', 0):,} "
        f"|V|={stats.get('num_vertices', 0):,} "
        f"|E|={stats.get('num_edges', 0):,} "
        f"size(L)={stats.get('label_entries', 0):,}"
    )
    degraded = stats.get("degraded")
    lines.append(
        f"writer    pending={stats.get('pending', 0):,} "
        f"running={stats.get('running')}"
        + (f" DEGRADED: {degraded}" if degraded else "")
    )
    lines.append(
        f"events    applied={stats.get('events_applied', 0):,} "
        f"rejected={stats.get('events_rejected', 0):,} "
        f"batches={stats.get('batches', 0):,} "
        f"snapshots={stats.get('snapshots_published', 0):,}"
    )
    lines.append(f"queries   {_fmt_summary(stats.get('queries'))}")
    lines.append(f"updates   {_fmt_summary(stats.get('updates'))}")
    for name, brief in (stats.get("phases") or {}).items():
        lines.append(f"  {name:<8}{_fmt_brief(brief, 'ms')}")
    aff = stats.get("aff")
    if aff and aff.get("count"):
        lines.append(f"aff/batch {_fmt_brief(aff)}")
    return "\n".join(lines)


#: ANSI clear-screen + cursor-home, the in-place redraw prefix.
_CLEAR = "\x1b[2J\x1b[H"


def _cmd_top(args) -> int:
    import time

    from repro.serving.client import ServingClient

    count = 1 if args.once else args.count
    # Redraw in place only on a terminal watching several frames; piped
    # output and single frames append.
    redraw = count != 1 and sys.stdout.isatty()
    shown = 0
    while True:
        try:
            with ServingClient(args.host, args.port) as client:
                stats = client.stats()
                history = client.history(limit=args.points)
                alerts = client.alerts() if history.get("recording") else None
        except OSError as exc:
            raise ReproError(
                f"cannot reach {args.host}:{args.port}: {exc}"
            ) from exc
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0
        if redraw:
            print(_CLEAR, end="")
        print(f"--- {args.host}:{args.port} "
              f"at {time.strftime('%H:%M:%S')} ---")
        print(format_top(stats, history, alerts))
        shown += 1
        if count is not None and shown >= count:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


_SPARK_CHARS = "▁▂▃▄▅▆▇█"
#: Chart row order; history keys not listed here chart after these,
#: alphabetically.
_CHART_PREFERRED = (
    "qps",
    "query_p50_ms",
    "query_p99_ms",
    "error_rate",
    "pending",
    "max_lag",
    "healthy_replicas",
    "wal_bytes",
    "wal_growth_bytes_per_s",
    "rss_kb",
)


def sparkline(values, width: int = 48) -> str:
    """Unicode sparkline of the last ``width`` values (min-max scaled;
    non-numeric/missing samples render as spaces) — pure and testable.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▅█'
    """
    tail = list(values)[-width:]
    numeric = [
        v
        for v in tail
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if not numeric:
        return " " * len(tail)
    lo, hi = min(numeric), max(numeric)
    span = hi - lo
    chars = []
    for v in tail:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            chars.append(" ")
        elif span == 0:
            chars.append(_SPARK_CHARS[0])
        else:
            index = int((v - lo) / span * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[index])
    return "".join(chars)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:,.4g}"
    return f"{value:,}"


def _history_lines(points: list[dict], alerts: dict | None,
                   width: int) -> list[str]:
    """One sparkline per numeric history key, then the SLO evaluations."""
    lines: list[str] = []
    if not points:
        lines.append("history   (no points yet)")
    else:
        span_s = points[-1].get("ts", 0) - points[0].get("ts", 0)
        lines.append(f"history   n={len(points)} span={span_s:,.0f}s")
        keys = [k for k in _CHART_PREFERRED if any(k in p for p in points)]
        keys += sorted(
            {
                k
                for p in points
                for k, v in p.items()
                if k != "ts"
                and k not in keys
                and isinstance(v, (int, float))
                and not isinstance(v, bool)
            }
        )
        for key in keys:
            series = [p.get(key) for p in points]
            last = next((v for v in reversed(series) if v is not None), None)
            lines.append(
                f"{key:<24}{sparkline(series, width)}"
                + (f"  {_fmt_value(last)}" if last is not None else "")
            )
    evaluations = (alerts or {}).get("evaluations") or []
    for ev in evaluations:
        status = "FIRING" if ev.get("firing") else "ok    "
        lines.append(
            f"slo {status} {ev.get('slo', '?'):<16}"
            f"burn={ev.get('burn', 0):,.2f} "
            f"({ev.get('metric')} {ev.get('direction')} "
            f"{_fmt_value(ev.get('objective'))})"
        )
    if alerts is not None and not evaluations:
        slos = alerts.get("slos") or []
        lines.append(
            f"slo       {len(slos)} rule(s), no evaluations yet"
            if slos
            else "slo       (none configured)"
        )
    return lines


#: The last line of a frame when the server keeps no metrics history.
_NO_HISTORY = ("history   (not recorded; start the server with --history "
               "to chart it)")


def format_top(stats: dict, history: dict | None = None,
               alerts: dict | None = None, width: int = 48) -> str:
    """Render one `repro top` frame — pure (testable) string building.

    The ``stats`` response comes first.  Given the server's ``history``
    op response, the frame goes on with a sparkline per metrics-history
    key and the ``alerts`` SLO evaluations when the server records
    history, or with one line saying it does not.
    """
    lines = [_format_stats(stats)]
    if history is not None:
        if history.get("recording"):
            lines += _history_lines(history.get("points") or [], alerts, width)
        else:
            lines.append(_NO_HISTORY)
    return "\n".join(lines)


def _cmd_profile(args) -> int:
    from repro.serving.client import ServingClient

    want_folded = args.action in ("dump", "stop")
    try:
        with ServingClient(args.host, args.port) as client:
            response = client.profile(action=args.action, folded=want_folded)
    except OSError as exc:
        raise ReproError(
            f"cannot reach {args.host}:{args.port}: {exc}"
        ) from exc
    prof = response["profile"]
    print(f"profiler  running={prof.get('running')} "
          f"enabled={prof.get('enabled')} "
          f"interval={prof.get('interval_ms')}ms "
          f"samples={prof.get('samples', 0):,} "
          f"distinct={prof.get('distinct_stacks', 0):,} "
          f"elapsed={prof.get('elapsed_s', 0):,.1f}s")
    phases = prof.get("phases") or {}
    for phase, entry in sorted(
        phases.items(), key=lambda kv: -kv[1]["samples"]
    ):
        print(f"  {phase:<10}{entry['samples']:>8,}  {entry['pct']:5.1f}%")
    folded = response.get("folded")
    if not folded:
        if want_folded and not prof.get("samples"):
            print("no samples; start the server with REPRO_PROFILE=1 "
                  "(or send action=start) and apply some load")
        return 0
    if args.folded == "-":
        print(folded, end="")
    elif args.folded:
        with open(args.folded, "w", encoding="utf-8") as handle:
            handle.write(folded)
        print(f"folded stacks -> {args.folded}")
    elif args.top > 0:
        print(f"hottest {args.top} stack(s):")
        for line in folded.splitlines()[: args.top]:
            print(f"  {line}")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import main as lint_main

    argv: list[str] = list(args.paths)
    argv += ["--root", args.root, "--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_knobs(args) -> int:
    import json as _json

    from repro import knobs as _knobs

    if args.format == "markdown":
        print(_knobs.render_table())
        return 0
    rows = _knobs.current_values()
    if args.format == "json":
        print(_json.dumps(rows, indent=2, default=str))
        return 0
    width = max(len(r["name"]) for r in rows)
    for row in rows:
        default = "(unset)" if row["default"] is None else repr(row["default"])
        marker = "*" if row["set"] else " "
        print(f"{marker} {row['name']:<{width}}  default={default:<12} "
              f"value={row['value']!r}")
    print("\n(* = set in the environment; see README 'Tuning knobs')")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "query": _cmd_query,
    "path": _cmd_path,
    "insert": _cmd_insert,
    "delete": _cmd_delete,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "serve-cluster": _cmd_serve_cluster,
    "top": _cmd_top,
    "profile": _cmd_profile,
    "lint": _cmd_lint,
    "knobs": _cmd_knobs,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
