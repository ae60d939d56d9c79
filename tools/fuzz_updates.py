#!/usr/bin/env python3
"""Stateful fuzz harness for the dynamic oracle and the serving layer.

Generates random op sequences (single insert, batch insert, delete,
delete-of-absent-edge, re-insert-after-delete, mixed insert/delete
batch, landmark promotion) from a seeded RNG, applies them to a
``DynamicHCL`` (the vectorized engine) while mirroring them on a
reference labelling maintained by calling the paper's kernels directly
(IncHL+, batch IncHL+, DecHL, landmark promotion), and cross-checks
after every op:

* oracle labelling == reference labelling (byte-identity);
* the oracle's graph (its engine's CSR) has exactly the reference
  graph's edges;
* sampled distance queries == BFS ground truth on the reference graph;
* the latest snapshot's sparsified rows (derived at capture from the
  previous snapshot's) == rows built from scratch, as sets per column,
  on the oracle and on each shard;
* the labelling equals a from-scratch minimal rebuild at the end.

Every round also replays each edge op on a 2-shard split of the oracle
(``make_shard_oracle``; re-split after a landmark promotion, and only
while the oracle has two landmarks to split) and checks after every op
that each shard's labelling is the restriction of the oracle's and that
its ``highway_updates`` counts the cells of that restriction the op
changed.  It replays the same op sequence through an ``OracleService``
(writer thread, coalesced batches, snapshot publication) too, and
verifies the served answers against BFS.

On failure the harness **shrinks** the op sequence: it repeatedly tries
dropping ops (largest chunks first, ddmin-style) while the failure
reproduces, then prints the minimal failing sequence as a ready-to-paste
repro.  Exit status is non-zero if any round failed.

Usage::

    PYTHONPATH=src python tools/fuzz_updates.py --rounds 20 --seed 7
    PYTHONPATH=src python tools/fuzz_updates.py --replay '<json op list>' --seed 7

CI runs it on every pull request with ``--rounds 40 --seed 2021``
(.github/workflows/ci.yml) and nightly with a fresh seed
(.github/workflows/nightly-fuzz.yml).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.cluster.shards import ShardPlan, make_shard_oracle
from repro.core.batch import apply_edge_insertions_batch, replay_events
from repro.core.construction import build_hcl
from repro.core.dechl import apply_edge_deletion_partial
from repro.core.dynamic import DynamicHCL
from repro.exceptions import ReproError
from repro.graph.traversal import bfs_distances
from repro.landmarks.maintenance import add_landmark
from repro.landmarks.selection import top_degree_landmarks
from repro.serving.service import OracleService
from repro.workloads.streams import UpdateEvent

sys.path.insert(0, ".")  # make tests.proptest importable from the repo root
from tests.proptest.strategies import (  # noqa: E402
    insertion_stream,
    mixed_event_stream,
    random_graph,
)
from tests.shard_labellings import restrict_labelling  # noqa: E402
from tests.sparsified_rows import fresh_row_sets, snapshot_row_sets  # noqa: E402

# An op is a JSON-friendly list: ["insert", u, v] | ["batch", [[u, v], ...]]
# | ["delete", u, v] | ["mixed", [["insert"|"delete", u, v], ...]]
# | ["landmark", v].  A "delete" whose edge is absent when the op runs is
# *intentional*: both sides must reject it cleanly (no state change),
# mirroring what a wire client can send the serving layer.


class FuzzFailure(AssertionError):
    """Raised (with context) when an invariant breaks mid-sequence."""


def generate_ops(graph, rng: random.Random, count: int) -> list:
    """A random applicable op sequence against a simulation of ``graph``."""
    sim = graph.copy()
    ops: list = []
    landmark_budget = 2
    while len(ops) < count:
        roll = rng.random()
        if roll < 0.35:
            stream = insertion_stream(sim, 1, rng)
            if not stream:
                break
            (u, v) = stream[0]
            sim.add_edge(u, v)
            ops.append(["insert", u, v])
        elif roll < 0.55:
            stream = insertion_stream(sim, rng.randint(2, 6), rng)
            if not stream:
                break
            for u, v in stream:
                sim.add_edge(u, v)
            ops.append(["batch", [list(e) for e in stream]])
        elif roll < 0.72:
            if sim.num_edges <= sim.num_vertices:
                continue
            edges = list(sim.edges())
            u, v = edges[rng.randrange(len(edges))]
            sim.remove_edge(u, v)
            ops.append(["delete", u, v])
            if rng.random() < 0.3:
                # Re-insert-after-delete: the engine must rebuild exactly
                # the entries the deletion dropped.
                sim.add_edge(u, v)
                ops.append(["insert", u, v])
        elif roll < 0.78:
            # Delete of a *non-existent* edge: both engines must reject it
            # with no side effects.  The sim is not mutated, so the edge is
            # guaranteed absent at replay time too.
            stream = insertion_stream(sim, 1, rng)
            if not stream:
                break
            ops.append(["delete", stream[0][0], stream[0][1]])
        elif roll < 0.92:
            events = mixed_event_stream(sim, rng.randint(2, 6), rng)
            if not events:
                continue
            for kind, (u, v) in events:
                if kind == "insert":
                    sim.add_edge(u, v)
                else:
                    sim.remove_edge(u, v)
            ops.append(["mixed", [[kind, u, v] for kind, (u, v) in events]])
        else:
            if landmark_budget == 0:
                continue
            landmark_budget -= 1
            vertices = sorted(sim.vertices())
            ops.append(["landmark", vertices[rng.randrange(len(vertices))]])
    return ops


def _applicable(graph, landmarks: set, op) -> bool:
    kind = op[0]
    if kind == "insert":
        _, u, v = op
        return graph.has_vertex(u) and graph.has_vertex(v) and not graph.has_edge(u, v)
    if kind == "batch":
        seen = set()
        for u, v in op[1]:
            key = (u, v) if u < v else (v, u)
            if (
                not graph.has_vertex(u)
                or not graph.has_vertex(v)
                or graph.has_edge(u, v)
                or key in seen
            ):
                return False
            seen.add(key)
        return True
    if kind == "delete":
        # Applicable whenever the endpoints exist: a present edge is
        # deleted, an absent one exercises the clean-rejection path.
        _, u, v = op
        return graph.has_vertex(u) and graph.has_vertex(v)
    if kind == "mixed":
        # Sequentially valid w.r.t. the state its own prefix produces.
        state: dict = {}
        for evkind, u, v in op[1]:
            if not graph.has_vertex(u) or not graph.has_vertex(v) or u == v:
                return False
            key = (u, v) if u < v else (v, u)
            present = state[key] if key in state else graph.has_edge(u, v)
            if evkind == "insert":
                if present:
                    return False
                state[key] = True
            elif evkind == "delete":
                if not present:
                    return False
                state[key] = False
            else:
                return False
        return bool(op[1])
    if kind == "landmark":
        return graph.has_vertex(op[1]) and op[1] not in landmarks
    raise ValueError(f"unknown op {op!r}")


def _split(oracle) -> tuple[ShardPlan | None, list]:
    """A 2-shard split of ``oracle`` (none below two landmarks)."""
    if len(oracle.landmarks) < 2:
        return None, []
    plan = ShardPlan.for_landmarks(oracle.landmarks, 2)
    return plan, [make_shard_oracle(oracle, plan, i) for i in range(2)]


def _highway_cells(labelling) -> dict:
    return {
        (r, w): d
        for r, row in labelling.highway.as_dict().items()
        for w, d in row.items()
        if r < w
    }


def _replay_on_shards(plan, shards, fast, op, step: int) -> None:
    """Apply edge op ``op`` to every shard and check it against ``fast``
    (already updated): restriction equality and ``highway_updates``."""
    kind = op[0]
    for i, shard in enumerate(shards):
        before = _highway_cells(shard.labelling)
        if kind == "insert":
            stats = shard.insert_edge(op[1], op[2])
        elif kind == "batch":
            stats = shard.insert_edges_batch([tuple(e) for e in op[1]])
        elif kind == "delete":
            stats = shard.remove_edge(op[1], op[2])
        else:
            stats = shard.apply_events_batch(
                [(evkind, (u, v)) for evkind, u, v in op[1]]
            )
        after = shard.labelling
        if after != restrict_labelling(fast.labelling, plan.owned(i)):
            raise FuzzFailure(
                f"shard {i} != restriction of the oracle after step {step}: {op}"
            )
        cells = _highway_cells(after)
        changed = sum(
            before.get(key) != cells.get(key) for key in before.keys() | cells.keys()
        )
        if stats.highway_updates != changed:
            raise FuzzFailure(
                f"shard {i} highway_updates {stats.highway_updates} != "
                f"{changed} changed cells after step {step}: {op}"
            )


def _check_sparsified(oracles, step: int, op) -> None:
    """Each oracle's latest snapshot searches the rows a fresh build of
    its frozen overlay gives.  The check reads every snapshot's rows, so
    each capture after the first derives its rows from the last one."""
    for name, oracle in oracles:
        snap = oracle.snapshot()
        if snapshot_row_sets(snap) != fresh_row_sets(snap):
            raise FuzzFailure(
                f"{name}: sparsified rows != a fresh build after step {step}: {op}"
            )


def run_sequence(base_graph, landmarks, ops, rng_seed: int, query_samples: int = 8):
    """Apply ``ops`` on the oracle and the reference; raise FuzzFailure on
    any divergence.  Inapplicable ops (possible after shrinking) are
    skipped."""
    rng = random.Random(rng_seed)
    fast = DynamicHCL.build(base_graph.copy(), landmarks=list(landmarks))
    ref_graph = base_graph.copy()
    ref = build_hcl(ref_graph, list(landmarks))
    plan, shards = _split(fast)
    for step, op in enumerate(ops):
        if not _applicable(ref_graph, set(fast.landmarks), op):
            continue
        kind = op[0]
        # An absent-edge delete changes nothing and is not replayed.
        edge_op = kind != "landmark" and (
            kind != "delete" or ref_graph.has_edge(op[1], op[2])
        )
        if kind == "insert":
            fast.insert_edge(op[1], op[2])
            replay_events(ref_graph, ref, [("insert", (op[1], op[2]))])
        elif kind == "batch":
            edges = [tuple(e) for e in op[1]]
            fast.insert_edges_batch(edges)
            for u, v in edges:
                ref_graph.add_edge(u, v)
            apply_edge_insertions_batch(ref_graph, ref, edges)
        elif kind == "delete":
            if ref_graph.has_edge(op[1], op[2]):
                fast.remove_edge(op[1], op[2])
                replay_events(ref_graph, ref, [("delete", (op[1], op[2]))])
            else:
                # Delete of a non-existent edge: both sides must raise a
                # clean library error, leaving graph + labelling untouched
                # (the oracle raises EdgeNotFoundError from its batch
                # check, DecHL InvariantViolationError).
                for name, graph, delete in (
                    ("oracle", lambda: fast.graph, fast.remove_edge),
                    ("DecHL", lambda: ref_graph,
                     lambda u, v: apply_edge_deletion_partial(ref_graph, ref, u, v)),
                ):
                    edges_before = graph().num_edges
                    try:
                        delete(op[1], op[2])
                    except ReproError:
                        pass
                    else:
                        raise FuzzFailure(
                            f"{name}: absent-edge delete did not raise at "
                            f"step {step}: {op}"
                        )
                    if graph().num_edges != edges_before:
                        raise FuzzFailure(
                            f"{name}: absent-edge delete mutated the graph "
                            f"at step {step}: {op}"
                        )
        elif kind == "mixed":
            events = [(evkind, (u, v)) for evkind, u, v in op[1]]
            fast.apply_events_batch(events)
            replay_events(ref_graph, ref, events)
        elif kind == "landmark":
            fast.add_landmark(op[1])
            add_landmark(ref_graph, ref, op[1])
            plan, shards = _split(fast)
        if fast.labelling != ref:
            raise FuzzFailure(f"oracle != paper kernels after step {step}: {op}")
        if edge_op:
            _replay_on_shards(plan, shards, fast, op, step)
        _check_sparsified(
            [("oracle", fast)] + [(f"shard {i}", s) for i, s in enumerate(shards)],
            step, op,
        )
        if sorted(fast.graph.edges()) != sorted(ref_graph.edges()):
            raise FuzzFailure(
                f"oracle graph != reference graph after step {step}: {op}"
            )
        vertices = sorted(ref_graph.vertices())
        for _ in range(query_samples):
            u, v = rng.sample(vertices, 2)
            expected = bfs_distances(ref_graph, u).get(v, float("inf"))
            got = fast.query(u, v)
            if got != expected:
                raise FuzzFailure(
                    f"query({u}, {v}) = {got} != BFS {expected} after step "
                    f"{step}: {op}"
                )
    rebuilt = build_hcl(ref_graph, fast.landmarks)
    if fast.labelling != rebuilt:
        raise FuzzFailure("final labelling differs from from-scratch rebuild")


def run_service_sequence(base_graph, landmarks, ops, query_samples: int = 12):
    """Replay insert/delete ops through OracleService; verify served answers."""
    oracle = DynamicHCL.build(base_graph.copy(), landmarks=list(landmarks))
    events = []
    for op in ops:
        if op[0] == "insert":
            events.append(UpdateEvent("insert", (op[1], op[2])))
        elif op[0] == "batch":
            events.extend(UpdateEvent("insert", tuple(e)) for e in op[1])
        elif op[0] == "delete":
            # Absent-edge deletes ride along: the service must *reject*
            # them (count only) rather than degrade or desync.
            events.append(UpdateEvent("delete", (op[1], op[2])))
        elif op[0] == "mixed":
            events.extend(
                UpdateEvent(evkind, (u, v)) for evkind, u, v in op[1]
            )
    rng = random.Random(0xC0FFEE)
    with OracleService(oracle) as service:
        for event in events:
            service.submit(event)
        service.flush()
        if service.degraded is not None:
            raise FuzzFailure(f"service degraded: {service.degraded}")
        snap = service.snapshot
        vertices = sorted(oracle.graph.vertices())
        for _ in range(query_samples):
            u, v = rng.sample(vertices, 2)
            expected = bfs_distances(oracle.graph, u).get(v, float("inf"))
            got = service.query(u, v, snapshot=snap)
            if got != expected:
                raise FuzzFailure(
                    f"served query({u}, {v}) = {got} != BFS {expected}"
                )


def shrink(base_graph, landmarks, ops, rng_seed: int) -> list:
    """ddmin-style: drop chunks (halves, then smaller) while it still fails."""

    def fails(candidate) -> bool:
        try:
            run_sequence(base_graph, landmarks, candidate, rng_seed)
        except FuzzFailure:
            return True
        return False

    current = list(ops)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        i = 0
        progressed = False
        while i < len(current):
            candidate = current[:i] + current[i + chunk :]
            if candidate and fails(candidate):
                current = candidate
                progressed = True
            else:
                i += chunk
        if not progressed:
            chunk //= 2
    return current


def fuzz_round(seed: int, ops_per_round: int, check_service: bool) -> bool:
    """One fuzz round; returns True on success, prints a repro on failure."""
    graph, rng = random_graph(seed, n_min=10, n_max=45)
    landmarks = top_degree_landmarks(graph, rng.randint(1, 6))
    ops = generate_ops(graph, rng, ops_per_round)
    try:
        run_sequence(graph, landmarks, ops, rng_seed=seed)
        if check_service:
            run_service_sequence(graph, landmarks, ops)
    except FuzzFailure as failure:
        minimal = shrink(graph, landmarks, ops, rng_seed=seed)
        print(f"FAIL seed={seed}: {failure}", file=sys.stderr)
        print(
            f"  minimal repro ({len(minimal)} of {len(ops)} ops):\n"
            f"  PYTHONPATH=src python tools/fuzz_updates.py "
            f"--seed {seed} --replay '{json.dumps(minimal)}'",
            file=sys.stderr,
        )
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10,
                        help="number of independent fuzz rounds")
    parser.add_argument("--ops", type=int, default=25,
                        help="ops per round before shrinking")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (default: time-derived)")
    parser.add_argument("--no-service", action="store_true",
                        help="skip the OracleService replay check")
    parser.add_argument("--replay", default=None, metavar="JSON",
                        help="replay a shrunk op sequence (with --seed)")
    args = parser.parse_args(argv)

    if args.replay is not None:
        if args.seed is None:
            parser.error("--replay requires --seed")
        graph, rng = random_graph(args.seed, n_min=10, n_max=45)
        landmarks = top_degree_landmarks(graph, rng.randint(1, 6))
        try:
            run_sequence(graph, landmarks, json.loads(args.replay), args.seed)
        except FuzzFailure as failure:
            print(f"reproduced: {failure}", file=sys.stderr)
            return 1
        print("replay passed (failure no longer reproduces)")
        return 0

    base_seed = args.seed if args.seed is not None else int(time.time())
    print(f"fuzzing {args.rounds} rounds x {args.ops} ops, base seed {base_seed}")
    failures = 0
    for i in range(args.rounds):
        seed = base_seed + i * 1009
        if not fuzz_round(seed, args.ops, check_service=not args.no_service):
            failures += 1
        else:
            print(f"  round {i} (seed {seed}): ok")
    if failures:
        print(f"{failures}/{args.rounds} rounds FAILED", file=sys.stderr)
        return 1
    print("all rounds passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
