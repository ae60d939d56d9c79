"""Dict-labelling restriction and reassembly: the oracle of shard slicing.

A landmark shard (:func:`repro.cluster.shards.make_shard_oracle`) keeps
the dense rows of its owned landmarks only.  These two reference
functions say what that must mean for the dict labelling: the shard's
materialized labelling equals :func:`restrict_labelling` of the
unsharded one, and :func:`reassemble_labellings` over all shards gives
the unsharded labelling back.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.highway import Highway
from repro.core.labelling import HighwayCoverLabelling
from repro.core.labels import LabelStore
from repro.exceptions import ReproError
from repro.graph.traversal import INF


def restrict_labelling(
    labelling: HighwayCoverLabelling, owned: Iterable[int]
) -> HighwayCoverLabelling:
    """The shard-local view of ``labelling`` for owned landmarks ``owned``.

    Keeps the *full* landmark list (so highway symmetry, serialization
    order, and ``landmark_set`` semantics are identical to the unsharded
    labelling) but drops every label entry whose landmark is not owned
    and every highway cell with no owned endpoint.  Idempotent: applying
    the same restriction twice is a no-op.
    """
    owned_set = frozenset(owned)
    unknown = owned_set - labelling.landmark_set
    if unknown:
        raise ReproError(f"owned landmarks not in labelling: {sorted(unknown)}")
    highway = Highway(labelling.landmarks)
    for r, row in labelling.highway.as_dict().items():
        for r2, d in row.items():
            if r < r2 and (r in owned_set or r2 in owned_set):
                highway.set_distance(r, r2, d)
    # r < r2 misses nothing: set_distance writes both rows, and the
    # diagonal is seeded by the Highway constructor.
    labels = LabelStore()
    for v, label in labelling.labels.items():
        for r, d in label.items():
            if r in owned_set:
                labels.set_entry(v, r, d)
    return HighwayCoverLabelling(highway, labels)


def reassemble_labellings(
    parts: Sequence[HighwayCoverLabelling],
) -> HighwayCoverLabelling:
    """Union per-shard restricted labellings back into one labelling.

    Inverse of :func:`restrict_labelling` over a disjoint landmark
    partition.  Highway cells with endpoints on two different shards are
    stored by both owners; the union checks they agree — a mismatch
    means the shards diverged and is an error, not something to paper
    over with a min.
    """
    if not parts:
        raise ReproError("reassemble_labellings: no parts")
    landmarks = parts[0].landmarks
    for part in parts[1:]:
        if part.landmarks != landmarks:
            raise ReproError(
                "reassemble_labellings: parts disagree on the landmark list"
            )
    highway = Highway(landmarks)
    for part in parts:
        for r, row in part.highway.as_dict().items():
            for r2, d in row.items():
                if r >= r2:
                    continue
                existing = highway.distance(r, r2)
                if existing != INF and existing != d:
                    raise ReproError(
                        f"reassemble_labellings: shards disagree on "
                        f"highway cell ({r}, {r2}): {existing} != {d}"
                    )
                highway.set_distance(r, r2, d)
    labels = LabelStore()
    for part in parts:
        for v, label in part.labels.items():
            for r, d in label.items():
                existing = labels.entry(v, r)
                if existing is not None and existing != d:
                    raise ReproError(
                        f"reassemble_labellings: shards disagree on "
                        f"label ({v}, {r}): {existing} != {d}"
                    )
                labels.set_entry(v, r, d)
    return HighwayCoverLabelling(highway, labels)
