"""Start-up trace hook for the benchmark's traced runs.

Python imports ``sitecustomize`` at start-up from the first directory on
``PYTHONPATH`` that holds one.  ``perfbench/run.py --trace 1`` puts this
directory there, and sets ``PERFBENCH_TRACE_DIR``, only for the processes
of the system under test: the ``repro build`` process, the ``repro serve``
process, a ``repro serve-cluster`` router and the replicas it spawns (they
inherit the environment).  Without the variable this module does nothing.

In a traced process it wraps the library's layer entry points, keeps one
record per coarse call (engine batches, snapshot captures, service calls,
WAL appends) and running totals for the per-pair query kernels, and
writes them to ``<dir>/spans-<pid>.json`` when the process exits.  The
program's own source is not changed; ``perfbench/layers.py`` turns the
files into per-layer metrics.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import types
from time import perf_counter

_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

#: ``(name, thread id, start, end, extra)`` per coarse call.
_records: list = []
#: ``name -> [calls, seconds, useful]`` for the per-pair kernels.
_totals: dict = {}
#: Trace id of the request being dispatched on this process's event loop
#: (read requests are answered synchronously right after decoding).
_current = {"trace": None}


def _record(name, start, extra=None):
    _records.append(
        (name, threading.get_ident(), start, perf_counter(), extra)
    )


def _total(name, seconds, useful=0):
    slot = _totals.get(name)
    if slot is None:
        slot = _totals[name] = [0, 0.0, 0]
    slot[0] += 1
    slot[1] += seconds
    slot[2] += useful


def _timed(name, fn, extra=None):
    """Record every call of ``fn``; ``extra(args, kwargs, result)`` adds
    fields to the record."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        _record(name, start, extra(args, kwargs, result) if extra else None)
        return result

    return wrapper


def _timed_async(name, fn):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = perf_counter()
        result = await fn(*args, **kwargs)
        _record(name, start)
        return result

    return wrapper


def _summed(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        _total(name, perf_counter() - start)
        return result

    return wrapper


def _timed_bfs(fn):
    """``bidirectional_bfs``: also count the calls that beat ``d⊤``."""

    @functools.wraps(fn)
    def wrapper(graph, source, target, bound=float("inf"), skip=()):
        start = perf_counter()
        result = fn(graph, source, target, bound=bound, skip=skip)
        _total("query.bfs", perf_counter() - start, int(result < bound))
        return result

    return wrapper


def _rebind(fn, **names):
    """A copy of ``fn`` that resolves ``names`` to the given objects.

    Only the copy sees the wrapped kernels, so other modules that import
    the same functions (the update engine, the reference kernels) are
    neither slowed nor counted.
    """
    scope = dict(fn.__globals__)
    scope.update(names)
    copy = types.FunctionType(
        fn.__code__, scope, fn.__name__, fn.__defaults__, fn.__closure__
    )
    copy.__kwdefaults__ = fn.__kwdefaults__
    return functools.update_wrapper(copy, fn)


def _wrap_classmethod(cls, name, label):
    original = cls.__dict__[name].__func__
    setattr(cls, name, classmethod(_timed(label, original)))


def _engine_fields(events, stats):
    phases = getattr(stats, "phases", None) or {}
    return {
        "events": events,
        "find": phases.get("find", 0.0),
        "repair": phases.get("repair", 0.0),
        "affected": getattr(stats, "affected_union", 0) or 0,
    }


def _batch_fields(args, kwargs, stats):
    """``insert_edges_batch(self, edges)`` / ``apply_events_batch(self, events)``."""
    batch = args[1] if len(args) > 1 else kwargs.get("edges", kwargs.get("events"))
    return _engine_fields(len(batch) if hasattr(batch, "__len__") else 0, stats)


def _single_insert_fields(args, kwargs, stats):
    """``insert_edge(self, u, v)``."""
    return _engine_fields(1, stats)


def _query_fields(args, kwargs, result):
    return {"trace": _current["trace"]}


def _install():
    # Import everything first: modules bind their imports at import time,
    # so patching afterwards reaches exactly the call sites chosen below.
    import repro.cli  # noqa: F401
    import repro.cluster.replica as replica
    import repro.cluster.supervisor  # noqa: F401
    import repro.cluster.wal as wal
    import repro.core.dynamic as dynamic
    import repro.core.inchl_fast as inchl_fast
    import repro.core.query as query
    import repro.core.sharding as sharding
    import repro.serving.server as server
    import repro.serving.service as service
    import repro.serving.snapshot as snapshot
    import repro.utils.serialization as serialization

    # Setup layers.
    _wrap_classmethod(dynamic.DynamicHCL, "build", "setup.build")
    serialization.save_oracle = _timed("setup.save", serialization.save_oracle)
    serialization.load_oracle = _timed("setup.load", serialization.load_oracle)
    serialization.load_oracle_with_meta = _timed(
        "setup.load", serialization.load_oracle_with_meta
    )

    # Update engine and snapshot publish.
    engine = inchl_fast.FastUpdateEngine
    engine.__init__ = _timed("engine.attach", engine.__init__)
    oracle = dynamic.DynamicHCL
    oracle.insert_edge = _timed(
        "engine.call", oracle.insert_edge, _single_insert_fields
    )
    oracle.insert_edges_batch = _timed(
        "engine.call", oracle.insert_edges_batch, _batch_fields
    )
    oracle.apply_events_batch = _timed(
        "engine.call", oracle.apply_events_batch, _batch_fields
    )
    oracle.snapshot = _timed("snapshot.capture", oracle.snapshot)

    # Service: reads, and the writer's apply and publish steps.
    svc = service.OracleService
    svc.query_many = _timed("service.query", svc.query_many, _query_fields)
    svc._apply_chunk = _timed("service.apply", svc._apply_chunk)
    svc._publish = _timed("service.publish", svc._publish)

    decode = server.decode_line

    def decode_line(line):
        request, error = decode(line)
        _current["trace"] = request.get("trace") if request else None
        return request, error

    server.decode_line = decode_line

    # Query kernels: the unsharded batch kernel and the shard kernel.
    bfs = _timed_bfs(query.bidirectional_bfs)
    snapshot.query_distances_many = _rebind(
        query.query_distances_many,
        upper_bound=_summed("query.label_join", query.upper_bound),
        landmark_distance=_summed("query.label_join", query.landmark_distance),
        bidirectional_bfs=bfs,
    )
    snapshot.query_distances_many = _summed(
        "query.kernel", snapshot.query_distances_many
    )
    shard_single = _rebind(
        sharding.shard_query_distance,
        shard_min_distance=_summed("query.label_join", sharding.shard_min_distance),
        bidirectional_bfs=bfs,
    )
    sharding.shard_query_distances_many = _summed(
        "query.kernel",
        _rebind(
            sharding.shard_query_distances_many,
            shard_query_distance=shard_single,
        ),
    )

    # Cluster: WAL appends and replica applies.
    log = wal.UpdateLog
    log.append_events = _timed("wal.append", log.append_events)
    rep = replica.ReplicaServer
    rep._op_apply = _timed_async("replica.apply", rep._op_apply)


def _dump():
    if not _records and not _totals:
        return
    path = os.path.join(_DIR, f"spans-{os.getpid()}.json")
    payload = {
        "pid": os.getpid(),
        "records": _records,
        "totals": _totals,
    }
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


if _DIR:
    _install()
    atexit.register(_dump)
