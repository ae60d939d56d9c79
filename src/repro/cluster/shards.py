"""Deterministic landmark -> shard assignment for the sharded cluster.

A :class:`ShardPlan` stripes the oracle's landmark list across ``N``
shards by position (``shard_of(k-th landmark) = k % N``): deterministic
for a given landmark order, balanced to within one landmark per shard,
and — because landmark order is part of every ``save_oracle`` file —
derivable from any checkpoint.  The plan is also persisted explicitly in
each shard checkpoint's meta (:meth:`ShardPlan.to_meta`), so a restart
can verify the files on disk describe the partition it is about to
serve rather than silently mixing shards from different deployments.

:func:`make_shard_oracle` is the offline counterpart of what each shard
replica does at warm start: slice the oracle's dense rows to a shard's
owned landmarks and wrap them in a shard-mode
:class:`~repro.core.dynamic.DynamicHCL` whose updates repair only the
owned rows and whose queries are shard-local
(:mod:`repro.core.sharding`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ReproError

__all__ = ["ShardPlan", "make_shard_oracle"]


@dataclass(frozen=True)
class ShardPlan:
    """Landmark partition for an ``N``-shard cluster.

    >>> plan = ShardPlan.for_landmarks([10, 11, 12, 13, 14], 2)
    >>> plan.owned(0), plan.owned(1)
    ([10, 12, 14], [11, 13])
    >>> plan.shard_of(13)
    1
    >>> ShardPlan.from_meta(plan.to_meta()) == plan
    True
    """

    landmarks: tuple[int, ...]
    num_shards: int

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ReproError(f"num_shards must be >= 1, got {self.num_shards}")
        if len(set(self.landmarks)) != len(self.landmarks):
            raise ReproError("shard plan landmarks must be unique")
        if self.num_shards > max(1, len(self.landmarks)):
            raise ReproError(
                f"{self.num_shards} shards for {len(self.landmarks)} "
                f"landmarks would leave empty shards"
            )

    @classmethod
    def for_landmarks(
        cls, landmarks: Sequence[int], num_shards: int
    ) -> "ShardPlan":
        """Stripe ``landmarks`` (selection order) across ``num_shards``."""
        return cls(tuple(int(r) for r in landmarks), int(num_shards))

    def shard_of(self, r: int) -> int:
        """The shard index owning landmark ``r``."""
        try:
            return self.landmarks.index(r) % self.num_shards
        except ValueError:
            raise ReproError(f"{r} is not a landmark of this plan") from None

    def owned(self, index: int) -> list[int]:
        """Landmarks owned by shard ``index``, in selection order."""
        if not 0 <= index < self.num_shards:
            raise ReproError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        return [
            r
            for k, r in enumerate(self.landmarks)
            if k % self.num_shards == index
        ]

    def assignment(self) -> list[list[int]]:
        """Owned landmark lists for every shard, by shard index."""
        return [self.owned(i) for i in range(self.num_shards)]

    def to_meta(self) -> dict:
        """JSON-encodable form for checkpoint meta (``{"shard_plan": ...}``)."""
        return {
            "shard_plan": {
                "num_shards": self.num_shards,
                "landmarks": list(self.landmarks),
                "assignment": self.assignment(),
            }
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "ShardPlan":
        """Rebuild a plan from :meth:`to_meta` output (or a checkpoint's
        meta dict); validates the recorded assignment is the striped one.
        """
        payload = meta.get("shard_plan")
        if not payload:
            raise ReproError("meta carries no shard_plan")
        plan = cls.for_landmarks(payload["landmarks"], payload["num_shards"])
        recorded = [list(map(int, owned)) for owned in payload["assignment"]]
        if recorded != plan.assignment():
            raise ReproError(
                "checkpoint shard assignment does not match the striped "
                "plan for its landmark order"
            )
        return plan


def make_shard_oracle(oracle, plan: ShardPlan, index: int, *, copy_graph: bool = True):
    """Shard ``index``'s oracle: full graph, owned landmark rows only.

    ``oracle`` is an unsharded :class:`~repro.core.dynamic.DynamicHCL`
    (typically just restored from the seed checkpoint), or a shard
    restored from this shard's own checkpoint.  The slice is a pure
    function of the rows, so every shard derived from the same
    checkpoint and replaying the same WAL suffix reaches the same state
    regardless of process or host.  The shard's engine attaches from
    the source engine's rows sliced to the owned landmarks, so a replica
    warm start runs no BFS; its labelling keeps only the owned
    landmarks' entries and the highway cells with an owned endpoint.
    ``copy_graph=False`` reuses the oracle's CSR overlay, its one graph,
    by reference — only safe when the source oracle is discarded (the
    replica warm-start path); in-process multi-shard setups must keep the
    default so each shard mutates its own overlay.
    """
    from repro.core.dynamic import DynamicHCL

    if list(plan.landmarks) != oracle.landmarks:
        raise ReproError(
            "shard plan landmarks do not match the oracle's landmark list"
        )
    owned = plan.owned(index)
    _, dyn, dist, entry = oracle.checkpoint_rows(owned)
    if copy_graph:
        dyn = dyn.copy()
    return DynamicHCL.from_rows(
        oracle.landmarks, (dyn, dist, entry), owned_landmarks=owned
    )
