"""Repository benchmark: served workloads measured end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload query-web --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``query-web``, ``insert-social``, ``cluster-mixed``
(see ``spec.py`` and ``BENCHMARK.json`` for what each one stresses and
why).  The system under test is started from ``src/`` through the public
CLI (``python -m repro build`` / ``serve`` / ``serve-cluster``) in its own
processes; this process is the only load generator and speaks the NDJSON
protocol to it with at most two connections.

``--trace 0`` sets the system up three times (reporting the median set-up
time), runs the timed window on the last set-up and reports the
end-to-end metrics.  Latency and throughput are scaled to nominal host
speed by ``probe.py`` (the host is shared and its CPUs slow down in
phases); the whole-window figures as measured are printed next to them.  ``--trace 1`` runs one untraced and one traced
set-up + window; the traced one loads ``hook/sitecustomize.py`` into every
server process and reports the per-layer metrics.  Every run checks the
answers against the benchmark's own BFS over a mirror of the graph.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  The exit code is 0 when every check passed,
1 when the system answered wrong or failed requests, and 2 when the
benchmark could not run at all (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import Mirror, dataset, query_pairs, update_stream, wire_events  # noqa: E402
from layers import load_spans, per_layer  # noqa: E402
from spec import CLUSTER_ONLY, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from system import (  # noqa: E402
    BenchError, Connection, Probes, Server, build_oracle, pin, sut_env,
)

SETUPS = 3  # set-ups per untraced run; setup_s is their median
SLICE_S = 1.0
#: Uncontended duration of one probe burst (probe.py) on the reference host.
PROBE_NOMINAL_S = 0.0004
READ_FRAME = {"query-web": 4, "cluster-mixed": 16}
INSERT_BATCH = 32
MIXED_BATCH = 8
WRITER_EVENTS_PER_S = 100.0
VERIFY_PAIRS = 256
VERIFY_FRAME = 16
RSS_EVENTS = 32_000  # insert-social: window events before peak RSS is read


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Traffic:
    """Everything the workload sends, generated from the seed."""

    def __init__(self, workload: str, root: Path, cache: Path, seed: int,
                 seconds: int) -> None:
        spec = WORKLOADS[workload]
        data = dataset(root, cache, spec.dataset)
        cache = data["folder"]
        self.edge_list = data["edge_list"]
        self.base_edges = data["edges"]
        self.landmarks = data["landmarks"]
        self.num_vertices = len(np.unique(self.base_edges))
        self.pairs = query_pairs(
            cache, workload, self.base_edges, seed, 100_000).tolist()
        self.verify = query_pairs(
            cache, f"{workload}-verify", self.base_edges, seed, VERIFY_PAIRS
        ).tolist()
        if workload == "cluster-mixed":
            self.batch = MIXED_BATCH
            batches = math.ceil(seconds * WRITER_EVENTS_PER_S / MIXED_BATCH) + 2
        elif workload == "insert-social":
            # Headroom for a system ~3x faster than the seed code (about
            # 8k events/s here); if the stream runs out the window ends
            # there, and only the slices before it count.
            self.batch = INSERT_BATCH
            batches = 1 + math.ceil(seconds * 25_000 / INSERT_BATCH)
        else:  # query-web: the warm-up batch only
            self.batch = INSERT_BATCH
            batches = 1
        stream = update_stream(
            cache, workload, self.base_edges, seed, self.batch * batches,
            0.8 if workload == "cluster-mixed" else 1.0,
        )
        events = wire_events(stream)
        self.batches = [
            events[i:i + self.batch] for i in range(0, len(events), self.batch)
        ]
        self.rng = random.Random(seed)


# ----------------------------------------------------------------------
# One set-up of the system under test
# ----------------------------------------------------------------------
class Ledger:
    """Client-side outcome of one set-up + window (thread-safe appends)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: ``(completed at, latency s, items)`` per read frame / update batch.
        self.reads: list[tuple[float, float, int]] = []
        self.read_frames: list[tuple[list, list]] = []
        self.visible: list[tuple[float, float, int]] = []
        self.lag: list[float] = []
        self.probes: list[tuple[int, list, list]] = []
        self.sent: list[list] = []  # update batches in send order
        self.traced_reads: list[tuple[str, float]] = []
        self.update_rtt_s = 0.0
        self.pending_max = 0
        self.window_start = 0.0
        self.window_s = 0.0
        #: Host slowdown per one-second slice of the window (1.0 = nominal).
        self.slowdown: list[float] = []

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message)


class Session:
    """Build, boot and warm up the system; drive and check it."""

    def __init__(self, workload: str, traffic: Traffic, root: Path,
                 run_dir: Path, traced: bool) -> None:
        self.workload = workload
        self.traffic = traffic
        self.run_dir = run_dir
        self.traced = traced
        self.trace_dir = run_dir / "trace" if traced else None
        (self.trace_dir or run_dir).mkdir(parents=True)
        self.ledger = Ledger()
        self.cluster = workload == "cluster-mixed"
        self._ids = 0
        self.server: Server | None = None
        self.conns: list[Connection] = []
        #: Peak RSS (MB per server pid) read during or at the end of the window.
        self.rss: dict[int, float] | None = None

        self.oracle = run_dir / "oracle.json"
        try:
            self.setup_s = self._setup(root)
        except BaseException:
            self.close()
            raise
        if self.ledger.failed:
            self.close()
            raise BenchError(f"warm-up batch failed: {self.ledger.errors}")

    def _setup(self, root: Path) -> float:
        """Build and save the oracle, boot the server, make the first
        update batch visible; returns the seconds it took."""
        start = perf_counter()
        env = sut_env(root, self.trace_dir)
        build_oracle(self.traffic.edge_list, self.oracle, self.traffic.landmarks, env)
        if self.cluster:
            args = ["serve-cluster", str(self.oracle), "--shards", "2",
                    "--replicas", "1", "--fsync", "batch", "--compact-every",
                    "0", "--port", "0", "--cluster-dir",
                    str(self.run_dir / "cluster")]
        else:
            args = ["serve", str(self.oracle), "--port", "0"]
        self.server = Server(args, env, self.run_dir)
        self.boot_s = self.server.boot_s
        self.conns = [Connection(self.server.address)]
        if self.cluster:
            self.conns.append(Connection(self.server.address))
        self._write(self.conns[-1], self.traffic.batches[0], due=None)
        return perf_counter() - start

    # -- requests -------------------------------------------------------
    def _call(self, conn: Connection, request: dict, kind: str):
        """One request; failures are counted and return ``None``."""
        ledger = self.ledger
        with ledger.lock:
            ledger.attempted += 1
            self._ids += 1
            ident = f"{kind}{self._ids}"
        if self.traced:
            request["trace"] = ident
        try:
            response, rtt = conn.call(request)
        except (OSError, ValueError) as exc:
            ledger.fail(f"{request['op']}: {type(exc).__name__}: {exc}")
            raise
        if not response.get("ok"):
            ledger.fail(f"{request['op']}: {response.get('error')}")
            return None, rtt
        if self.traced and request["op"] == "query_many":
            with ledger.lock:
                ledger.traced_reads.append((ident, rtt))
        return response, rtt

    def _read(self, conn: Connection, pairs: list, kind: str = "r"):
        response, rtt = self._call(conn, {"op": "query_many", "pairs": pairs}, kind)
        return (response["distances"] if response else None), rtt

    def _write(self, conn: Connection, events: list, due: float | None):
        """Send one update batch and wait until a response proves it
        visible: a ``snapshot`` barrier on one server, a read with
        ``min_epoch`` at the acknowledged epoch on the cluster."""
        ledger = self.ledger
        start = perf_counter()
        with ledger.lock:
            ledger.sent.append(events)
            if due is not None:
                ledger.lag.append(start - due)
        ack, rtt_ack = self._call(conn, {"op": "updates", "events": events}, "w")
        if ack is None:
            return
        with ledger.lock:
            ledger.pending_max = max(ledger.pending_max, int(ack.get("pending", 0)))
        if self.cluster:
            logged = sum(len(batch) for batch in ledger.sent)
            if ack.get("epoch") != logged:
                ledger.fail(f"ack epoch {ack.get('epoch')} != {logged} events sent")
                return
            pairs = [[u, v] for _, u, v in events]
            probe, rtt_vis = self._call(
                conn, {"op": "query_many", "pairs": pairs, "min_epoch": logged}, "p"
            )
            if probe is None:
                return
            with ledger.lock:
                ledger.probes.append((logged, pairs, probe["distances"]))
        else:
            probe, rtt_vis = self._call(conn, {"op": "snapshot"}, "w")
            if probe is None:
                return
        end = perf_counter()
        with ledger.lock:
            ledger.update_rtt_s += rtt_ack + rtt_vis
            ledger.visible.append((end, end - (start if due is None else due), len(events)))

    # -- the timed window -------------------------------------------------
    def drive(self, seconds: float) -> None:
        ledger = self.ledger
        # The warm-up batch is set-up, not window.
        ledger.visible.clear()
        ledger.lag.clear()
        # Single-server workloads: the server gets one CPU to itself and
        # its probe; the load generator takes the rest.  The cluster's
        # processes share every CPU, each with a probe.
        cpus = sorted(os.sched_getaffinity(0))
        own = set(cpus)
        probe_cpus = cpus
        if not self.cluster and len(cpus) > 1:
            probe_cpus = cpus[-1:]
            pin(self.server.processes(), set(probe_cpus))
            os.sched_setaffinity(0, set(cpus[:-1]))
        probes = Probes(probe_cpus, self.run_dir)
        start = ledger.window_start = perf_counter()
        deadline = start + seconds
        threads = []
        if self.workload == "insert-social":
            threads.append(threading.Thread(target=self._closed_writer, args=(deadline,)))
        else:
            threads.append(threading.Thread(
                target=self._reader, args=(deadline, READ_FRAME[self.workload])))
        if self.cluster:
            threads.append(threading.Thread(target=self._open_writer, args=(start, deadline)))
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            ledger.window_s = perf_counter() - start
            os.sched_setaffinity(0, own)
            samples = probes.stop()
        if self.rss is None:
            self.rss = self.server.peak_rss_mb()
        ledger.slowdown = [
            slowdown(samples, start + k * SLICE_S, start + (k + 1) * SLICE_S)
            for k in range(int(seconds // SLICE_S))
        ]

    def _guard(self, loop) -> None:
        try:
            loop()
        except (OSError, ValueError):
            pass  # already counted; a broken connection ends this loop

    def _reader(self, deadline: float, frame: int) -> None:
        pairs = self.traffic.pairs
        conn = self.conns[0]

        def loop():
            i = 0
            while perf_counter() < deadline:
                batch = [pairs[(i + k) % len(pairs)] for k in range(frame)]
                i += frame
                answers, rtt = self._read(conn, batch)
                if answers is None:
                    continue
                with self.ledger.lock:
                    self.ledger.reads.append((perf_counter(), rtt, len(answers)))
                    self.ledger.read_frames.append((batch, answers))

        self._guard(loop)

    def _closed_writer(self, deadline: float) -> None:
        batches = iter(self.traffic.batches[1:])
        conn = self.conns[0]

        def loop():
            sent = 0
            while perf_counter() < deadline:
                events = next(batches, None)
                if events is None:
                    return
                self._write(conn, events, due=None)
                sent += len(events)
                if self.rss is None and sent >= RSS_EVENTS:
                    # The graph grows with every batch, so peak memory at
                    # the deadline would follow throughput (and the host's
                    # speed); take it after a fixed number of events.
                    self.rss = self.server.peak_rss_mb()

        self._guard(loop)

    def _open_writer(self, start: float, deadline: float) -> None:
        period = MIXED_BATCH / WRITER_EVENTS_PER_S
        batches = self.traffic.batches[1:]
        conn = self.conns[1]

        def loop():
            for i, events in enumerate(batches):
                due = start + i * period
                if due >= deadline:
                    return
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                self._write(conn, events, due=due)

        self._guard(loop)

    # -- correctness ----------------------------------------------------
    def check(self) -> None:
        """BFS-check the answers against the mirror graph."""
        ledger = self.ledger
        conn = self.conns[0]
        mirror = Mirror(self.traffic.base_edges)
        # The writer is sequential, so the mirror after a batch is the
        # graph at the epoch its acknowledgement named.
        probes = {epoch: (pairs, answers) for epoch, pairs, answers in ledger.probes}
        epoch = 0
        for batch in ledger.sent:
            mirror.apply(batch)
            epoch += len(batch)
            if epoch in probes:
                pairs, answers = probes[epoch]
                want = [mirror.distance(u, v) for u, v in pairs]
                if want != answers:
                    ledger.fail(f"probe at epoch {epoch}: {answers} != BFS {want}")
        if self.workload == "query-web":
            # Static during the window: check a sample of its answers.
            frames = self.traffic.rng.sample(
                ledger.read_frames,
                min(len(ledger.read_frames), VERIFY_PAIRS // READ_FRAME["query-web"]),
            )
        else:
            # Drain, then read and check a fresh sample.
            self._call(conn, {"op": "snapshot"}, "v")
            frames = []
            verify = self.traffic.verify
            for i in range(0, len(verify), VERIFY_FRAME):
                batch = verify[i:i + VERIFY_FRAME]
                answers, _ = self._read(conn, batch, "v")
                if answers is not None:
                    frames.append((batch, answers))
        pairs = [pair for batch, _ in frames for pair in batch]
        want = mirror.distances(pairs) if pairs else []
        k = 0
        for batch, answers in frames:
            expected = want[k:k + len(batch)]
            k += len(batch)
            if answers != expected:
                ledger.fail(f"read {batch}: {answers} != BFS {expected}")
        stats, _ = self._call(conn, {"op": "stats"}, "v")
        if stats is not None:
            stats = stats["stats"]
            rejected = (stats.get("aggregate") or stats).get("events_rejected", 0)
            if rejected:
                ledger.fail(f"server rejected {rejected} generated events")
            if stats.get("degraded"):
                ledger.fail(f"server degraded: {stats['degraded']}")
        if self.cluster and ledger.lag:
            # An open loop that fell behind measured a backlog, not latency.
            late = float(np.mean(ledger.lag[-max(1, len(ledger.lag) // 4):]))
            if late > 0.5:
                ledger.fail(f"writer fell behind: mean lag {late:.3f}s")

    def wal_bytes(self) -> int:
        wal = self.run_dir / "cluster" / "wal"
        return sum(p.stat().st_size for p in wal.iterdir()) if wal.exists() else 0

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.server is not None:
            self.server.stop()
            self.server = None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float | None:
    return float(np.percentile(values, q)) if values else None


def tail(values: list[float]) -> tuple[str, float | None]:
    """The highest of p99, p95 and p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if len(values) * (100 - q) >= 1000:
            return f"p{q}", percentile(values, q)
    return "p99", None


def slowdown(samples: dict[int, list[tuple[float, float]]], t0: float,
             t1: float) -> float:
    """How many times slower than nominal the probed CPUs ran over
    ``[t0, t1)``: per CPU the median probe burst over its nominal duration,
    averaged over CPUs (a CPU without a sample there uses all of its own)."""
    factors = []
    for bursts in samples.values():
        inside = [b for clock, b in bursts if t0 <= clock < t1]
        inside = inside or [b for _, b in bursts]
        if inside:
            factors.append(float(np.median(inside)) / PROBE_NOMINAL_S)
    return float(np.mean(factors)) if factors else 1.0


def normalised(ops: list[tuple[float, float, int]], start: float,
               slowdown: list[float]) -> dict[str, float | None]:
    """p50 and p90 latency (ms) and items per second of the window, at
    nominal host speed.

    The host is shared, and other tenants slow its CPUs down by up to
    ~1.6x for seconds to minutes at a time (see probe.py).  Each op's
    latency is divided, and each slice's item count multiplied, by the
    slowdown the probe measured on the system's CPU over that second.
    """
    last = max((done for done, _, _ in ops), default=start)
    slowdown = slowdown[:math.ceil((last - start) / SLICE_S)]
    latencies, items = [], 0.0
    for done, latency, count in ops:
        k = int((done - start) // SLICE_S)
        if 0 <= k < len(slowdown):
            latencies.append(latency * 1000.0 / slowdown[k])
            items += count * slowdown[k]
    return {
        "p50": percentile(latencies, 50),
        "p90": percentile(latencies, 90),
        "rate": items / (len(slowdown) * SLICE_S) if slowdown else 0.0,
    }


def end_to_end(workload: str, ledger: Ledger, setups: list[float],
               rss: dict[int, float]) -> tuple[dict, dict]:
    """(JSON metrics, printed per-operation metrics over the whole window)."""
    reads = workload != "insert-social"
    writes = workload != "query-web"
    op = normalised(ledger.reads if reads else ledger.visible,
                    ledger.window_start, ledger.slowdown)
    metrics = {
        "op_p50_ms": op["p50"],
        "op_p90_ms": op["p90"],
        "op_items_per_s": op["rate"],
        "setup_s": float(np.median(setups)),
        "server_peak_rss_mb": sum(rss.values()),
    }
    ms = [lat * 1000.0 for _, lat, _ in ledger.reads]
    vis = [lat * 1000.0 for _, lat, _ in ledger.visible]
    lag = [x * 1000.0 for x in ledger.lag]
    pairs_rate = sum(n for _, _, n in ledger.reads) / ledger.window_s
    events_rate = sum(n for _, _, n in ledger.visible) / ledger.window_s
    (read_q, read_tail), (vis_q, vis_tail), (lag_q, lag_tail) = (
        tail(ms), tail(vis), tail(lag))
    cluster = workload == "cluster-mixed"
    printed = [
        ("read_p50_ms", percentile(ms, 50) if reads else None, "ms"),
        (f"read_{read_q}_ms", read_tail if reads else None, "ms"),
        ("read_pairs_per_s", pairs_rate if reads else None, "pairs/s"),
        ("update_visible_p50_ms", percentile(vis, 50) if writes else None, "ms"),
        (f"update_visible_{vis_q}_ms", vis_tail if writes else None, "ms"),
        ("update_events_per_s", events_rate if writes else None, "events/s"),
        (f"writer_lag_{lag_q}_ms", lag_tail if cluster else None, "ms"),
        ("setup_s", metrics["setup_s"], "s"),
        ("server_peak_rss_mb", metrics["server_peak_rss_mb"], "MB"),
        ("ops_failed_frac", ledger.failed / max(1, ledger.attempted), "ratio"),
    ]
    samples = {
        "read samples": len(ms), "update samples": len(vis),
        "writer samples": len(lag),
    }
    return metrics, {"printed": printed, "samples": samples}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def one_pass(workload, traffic, root, run_dir, seconds, traced, setups):
    """``setups`` set-ups (all but the last torn down straight away), then
    the window and the checks on the last one.  Returns the session, the
    set-up times and the servers' peak RSS."""
    times = []
    for i in range(setups):
        session = Session(workload, traffic, root, run_dir / f"s{i}", traced)
        times.append(session.setup_s)
        if i < setups - 1:
            session.close()
    try:
        session.drive(seconds)
        session.check()
        return session, times, session.rss
    finally:
        session.close()


def check_spec(root: Path) -> None:
    """BENCHMARK.json and spec.py must list the same metrics, units,
    directions and bounds."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        (m["name"], m["unit"], m["better"], m.get("bound"))
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    ours = {(m.name, m.unit, m.better, m.bound) for m in END_TO_END + PER_LAYER}
    names = {w["name"] for w in spec["workloads"]}
    if declared != ours or names != set(WORKLOADS):
        raise BenchError("BENCHMARK.json and perfbench/spec.py disagree")


def report(title: str, rows: list[tuple]) -> None:
    """Print ``(name, value, unit[, note])`` rows."""
    print(f"== {title}")
    for name, value, unit, *note in rows:
        text = "n/a" if value is None else f"{value:.6g}"
        moves = f"  (moves {note[0]})" if note and note[0] else ""
        print(f"  {name:<28} {text:>14} {unit:<8}{moves}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops every process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    try:
        check_spec(root)
    except (OSError, ValueError, KeyError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = root / ".perfbench"
    run_dir = work / f"run-{os.getpid()}"
    spec = WORKLOADS[args.workload]
    try:
        traffic = Traffic(args.workload, root, work / "cache", args.seed, args.seconds)
        print(f"# workload {args.workload}: {spec.why}")
        print(f"# op = {spec.op}; item = {spec.item}")
        print("# env " + json.dumps({
            "host_cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "dataset": spec.dataset,
            "V": traffic.num_vertices, "E": len(traffic.base_edges),
            "R": traffic.landmarks, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
        }))
        if args.trace == 0:
            session, setups, rss = one_pass(
                args.workload, traffic, root, run_dir / "plain", args.seconds,
                False, SETUPS)
            ledgers = [session.ledger]
            metrics, extra = end_to_end(args.workload, session.ledger, setups, rss)
            report("end-to-end (JSON)", [
                (m.name, metrics[m.name], m.unit) for m in END_TO_END])
            report("per-operation metrics (whole window, as measured)",
                   extra["printed"])
            print("  samples: " + ", ".join(
                f"{k} {v}" for k, v in extra["samples"].items()))
        else:
            plain, _, rss = one_pass(
                args.workload, traffic, root, run_dir / "plain", args.seconds,
                False, 1)
            traced, _, _ = one_pass(
                args.workload, traffic, root, run_dir / "traced", args.seconds,
                True, 1)
            ledgers = [plain.ledger, traced.ledger]
            rate = {}
            for name, session in (("plain", plain), ("traced", traced)):
                m, _ = end_to_end(args.workload, session.ledger, [0.0], rss)
                rate[name] = m["op_items_per_s"]
            led = traced.ledger
            layers = per_layer(load_spans(traced.trace_dir), {
                "reads": led.traced_reads,
                "batches": len(led.sent),
                "update_rtt_s": led.update_rtt_s,
                "pending_max": led.pending_max,
                "boot_s": traced.boot_s,
                "oracle_bytes": traced.oracle.stat().st_size,
                "rss_mb": rss,
                "traced_rate": rate["traced"],
                "untraced_rate": rate["plain"],
                "wal_bytes": traced.wal_bytes(),
                "events_logged": sum(len(b) for b in led.sent) if traced.cluster else 0,
            })
            metrics = {m.name: layers[m.name] for m in PER_LAYER}
            report("per-layer (JSON)", [
                (m.name, metrics[m.name], m.unit, m.moves) for m in PER_LAYER])
            if args.workload == "cluster-mixed":
                report("cluster-only layers", [
                    (m.name, layers[m.name], m.unit, m.moves) for m in CLUSTER_ONLY])
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(l.attempted for l in ledgers)
    failed = sum(l.failed for l in ledgers)
    correct = failed == 0
    for ledger in ledgers:
        for error in ledger.errors:
            print(f"FAILED: {error}", file=sys.stderr)
    if not correct:
        print(f"FAILED: {failed} of {attempted} operations failed or were wrong",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit}
            for m in (END_TO_END if args.trace == 0 else PER_LAYER)
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
