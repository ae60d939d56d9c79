"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can catch
one base class.  Errors are raised eagerly on invalid input ("errors should
never pass silently"), with messages that state what was received and what
was expected.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors concerning graph structure or graph inputs."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by an operation does not exist in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class EdgeExistsError(GraphError, ValueError):
    """An edge insertion targets an edge that is already present.

    The paper's problem definition (Section 3) requires ``(a, b) not in E``
    for an edge insertion, so inserting a duplicate edge is a caller error.
    """

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) already exists")
        self.u = u
        self.v = v


class SelfLoopError(GraphError, ValueError):
    """A self-loop was supplied where simple edges are required."""

    def __init__(self, vertex: object) -> None:
        super().__init__(
            f"self-loop ({vertex!r}, {vertex!r}) is not allowed in a simple graph"
        )
        self.vertex = vertex


class SkipSetError(GraphError, ValueError):
    """A snapshot graph was asked to search with a ``skip`` set other than
    its own landmark set, the only set its sparsified rows leave out.

    Search a detached ``graph.copy()`` for any other ``skip``.
    """

    def __init__(self, skip: object, landmarks: frozenset) -> None:
        super().__init__(
            f"a snapshot graph searches G[V \\ R] only for its own "
            f"{len(landmarks)} landmarks, not for a skip set of {len(skip)} "
            f"vertices; search graph.copy() instead"
        )
        self.skip = skip
        self.landmarks = landmarks


class LabellingError(ReproError):
    """Base class for errors concerning distance labellings."""


class NotALandmarkError(LabellingError, KeyError):
    """An operation expected a landmark but was given a plain vertex."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not a landmark")
        self.vertex = vertex


class InvariantViolationError(LabellingError, AssertionError):
    """A labelling invariant (cover property, minimality, ...) is broken.

    Raised by the validation helpers in :mod:`repro.core.validation`; seeing
    this outside tests indicates a bug in construction or maintenance code.
    """


class ConstructionBudgetExceeded(ReproError):
    """An index construction exceeded its time budget.

    The benchmark harness uses this to reproduce the paper's honest failure
    reporting ("IncPLL fails for 7 out of 12 datasets due to very high
    preprocessing time and memory requirements") with a configurable gate
    instead of an out-of-memory crash.
    """

    def __init__(self, what: str, budget_s: float) -> None:
        super().__init__(f"{what} exceeded its construction budget of {budget_s:.1f}s")
        self.what = what
        self.budget_s = budget_s


class WorkloadError(ReproError):
    """Invalid workload specification (updates/queries/datasets)."""


class BenchmarkError(ReproError):
    """Invalid benchmark configuration or a failed experiment run."""


class ServingError(ReproError):
    """Invalid serving-layer state or request (:mod:`repro.serving`)."""


class ClusterError(ServingError):
    """Invalid cluster state: WAL corruption, log gaps, replica spawn or
    catch-up failures (:mod:`repro.cluster`)."""
