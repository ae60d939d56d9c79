"""The per-landmark execution engine: fork-based fan-out with serial fallback.

Every bulk operation on a highway cover labelling — construction, batch
find sweeps, decremental rebuilds — decomposes into *independent*
per-landmark units of work over a read-only view of the graph (see
``docs/DESIGN.md`` §6).  :class:`LandmarkEngine` exploits that independence:
it maps a picklable task function over the per-landmark work items on a
``fork``-context process pool, handing each worker the shared read-only
state **by inheritance** (copy-on-write fork memory) rather than by
pickling, so a multi-gigabyte graph snapshot is never serialized.

Degradation is always safe: ``workers=None``/``1``, platforms without
``fork`` (e.g. Windows), or a pool that fails to start all fall back to an
in-process serial loop that produces bit-for-bit the same results — results
are returned in work-item order in both modes.

>>> engine = LandmarkEngine(workers=None)          # serial: any callable works
>>> engine.map(lambda state, item: state * item, 10, [1, 2, 3])
[10, 20, 30]
>>> engine.is_parallel
False

Parallel mode needs a module-level (picklable) task:

>>> engine = LandmarkEngine(workers=2)
>>> engine.map(_scale_task, 10, [1, 2, 3])         # runs on 2 processes
[10, 20, 30]
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

__all__ = [
    "LandmarkEngine",
    "available_parallelism",
    "fork_available",
    "resolve_workers",
]

#: Shared read-only state, published in the parent immediately before the
#: pool forks so that workers inherit it through copy-on-write memory.
_FORK_STATE: Any = None

#: Serializes parallel maps within one process: the publish-then-fork
#: handshake above is a process-wide global, so two threads fanning out at
#: once could fork each other's state.
_FORK_LOCK = threading.Lock()


def available_parallelism() -> int:
    """Number of CPUs usable by *this* process (``workers=0`` resolves here).

    Respects CPU affinity masks (cpusets) where the platform exposes
    them.  CFS-quota limits (``docker run --cpus=N``) are not visible
    through the affinity mask; under such quotas pass an explicit
    ``workers=N`` instead of ``0`` to avoid oversubscription.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method.

    The engine relies on fork's copy-on-write memory to share the graph
    snapshot with workers for free; without it (Windows, some macOS
    configurations) the engine stays serial.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers=`` knob to a concrete positive worker count.

    ``None`` and ``1`` mean serial, ``0`` means "all CPUs", any other
    positive integer is taken literally.

    >>> resolve_workers(None), resolve_workers(4)
    (1, 4)
    >>> resolve_workers(0) == available_parallelism()
    True
    """
    if workers is None:
        return 1
    count = int(workers)
    if count < 0:
        raise ValueError(f"workers must be >= 0, got {workers!r}")
    if count == 0:
        return available_parallelism()
    return count


def _scale_task(state, item):
    """Module-level demo/test task: ``state * item`` (picklable)."""
    return state * item


def _invoke(payload: tuple[Callable[[Any, Any], Any], Any]):
    """Worker-side trampoline: run ``task(inherited_state, item)``."""
    task, item = payload
    return task(_FORK_STATE, item)


class LandmarkEngine:
    """Map per-landmark tasks over a process pool (or inline, serially).

    Parameters
    ----------
    workers:
        ``None``/``1`` — serial; ``0`` — one worker per CPU; ``n > 1`` —
        exactly ``n`` workers.  See :func:`resolve_workers`.

    The engine is stateless between :meth:`map` calls and therefore
    reusable; each parallel ``map`` forks a fresh pool *after* publishing
    the shared state, which is what lets workers read the current graph
    snapshot without any serialization.  The publish-then-fork handshake
    is process-wide, so concurrent parallel maps from different threads
    serialize on an internal lock (serial maps never take it).
    """

    __slots__ = ("workers",)

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)

    @property
    def is_parallel(self) -> bool:
        """Whether :meth:`map` will attempt process fan-out."""
        return self.workers > 1 and fork_available()

    def fans_out(self, num_items: int) -> bool:
        """Whether mapping ``num_items`` work items will use the process
        pool — the one serial-vs-parallel gate both map methods consult."""
        return min(self.workers, num_items) > 1 and fork_available()

    def map(
        self,
        task: Callable[[Any, Any], Any],
        state: Any,
        items: Iterable[Any],
    ) -> list[Any]:
        """``[task(state, item) for item in items]``, possibly on a pool.

        ``task`` must be a module-level function when the engine is
        parallel (workers pickle it by reference); ``state`` is shared
        with workers via fork inheritance and is never pickled; each
        ``item`` and each result is pickled, so keep them compact.
        Results preserve ``items`` order.  Any failure to *run the pool*
        (fork refused, workers killed) falls back to the serial loop; task
        exceptions propagate unchanged in both modes.
        """
        work = list(items)

        def run_serial() -> list[Any]:
            return [task(state, item) for item in work]

        if not self.fans_out(len(work)):
            return run_serial()
        pool_size = min(self.workers, len(work))

        with _FORK_LOCK:
            return self._map_pooled(task, state, work, pool_size, run_serial)

    def _map_pooled(self, task, state, work, pool_size, run_serial):
        """The pool path of :meth:`map`; caller holds ``_FORK_LOCK``."""
        global _FORK_STATE
        _FORK_STATE = state
        try:
            try:
                context = multiprocessing.get_context("fork")
                pool = ProcessPoolExecutor(max_workers=pool_size, mp_context=context)
            except OSError:
                # Pool could not be created (resource limits): degrade to
                # the serial path rather than failing the operation.
                return run_serial()
            # ~4 chunks per worker keeps stragglers bounded while
            # amortizing the per-item pickle round-trip.
            chunksize = max(1, len(work) // (4 * pool_size))
            try:
                try:
                    # Submission is eager and workers fork lazily inside
                    # it, so a fork refusal (EAGAIN, cgroup pid limits)
                    # raises OSError from *this* call; task exceptions
                    # only surface while consuming the result iterator.
                    result_iter = pool.map(
                        _invoke,
                        [(task, item) for item in work],
                        chunksize=chunksize,
                    )
                except (OSError, BrokenProcessPool):
                    return run_serial()
                try:
                    return list(result_iter)
                except BrokenProcessPool:
                    # Workers died mid-run (OOM-killed): rerun serially.
                    # Task exceptions are NOT caught — they re-raise from
                    # the iterator with their original type.
                    return run_serial()
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        finally:
            _FORK_STATE = None

    def map_unordered_merge(
        self,
        task: Callable[[Any, Any], Any],
        state: Any,
        items: Sequence[Any],
        merge: Callable[[Any], None],
    ) -> int:
        """Run :meth:`map` and feed every result through ``merge``.

        Convenience for the "fan out, then fold partial labellings into
        the shared stores" pattern; merging happens in ``items`` order in
        the calling process (repairs commute across landmarks, but a
        deterministic order keeps serial and parallel byte-identical).
        In serial mode each result is merged as soon as it is produced
        (one partial result in flight at a time — the footprint of the
        classic per-landmark loop); parallel mode buffers the pickled
        results before merging, the price of the safe serial fallback.
        Returns the number of merged results.
        """
        work = list(items)
        if not self.fans_out(len(work)):
            for item in work:
                merge(task(state, item))
            return len(work)
        results = self.map(task, state, work)
        for result in results:
            merge(result)
        return len(results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "parallel" if self.is_parallel else "serial"
        return f"LandmarkEngine(workers={self.workers}, mode={mode})"
