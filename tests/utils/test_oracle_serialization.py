"""Tests for whole-oracle save/load."""

import errno
import gzip
import io
import json
import os
import stat

import numpy as np
import pytest
from numpy.lib import format as npy

from repro.cluster.shards import ShardPlan, make_shard_oracle
from repro.cluster.wal import write_checkpoint
from repro.core.dynamic import DynamicHCL
from repro.core.validation import check_matches_rebuild
from repro.exceptions import ReproError
from repro.graph.dyncsr import UNREACH, DynCSR
from repro.graph.generators import grid_graph
from repro.utils import serialization
from repro.utils.serialization import (
    load_oracle,
    load_oracle_with_meta,
    read_oracle_meta,
    save_labelling,
    save_oracle,
)

from tests.conftest import non_edges, random_connected_graph


def build_oracle(seed=57):
    graph = random_connected_graph(seed, n_min=12, n_max=20)
    return DynamicHCL.build(graph, num_landmarks=3)


class TestRoundTrip:
    def test_graph_and_labelling_roundtrip(self, tmp_path):
        oracle = build_oracle()
        path = tmp_path / "oracle.json"
        save_oracle(oracle, path)
        restored = load_oracle(path)
        assert restored.labelling == oracle.labelling
        assert sorted(restored.graph.edges()) == sorted(oracle.graph.edges())
        assert sorted(restored.graph.vertices()) == sorted(oracle.graph.vertices())
        assert restored.landmarks == oracle.landmarks

    def test_gzip_roundtrip(self, tmp_path):
        oracle = build_oracle(seed=58)
        path = tmp_path / "oracle.json.gz"
        save_oracle(oracle, path)
        assert load_oracle(path).labelling == oracle.labelling

    def test_restored_oracle_accepts_updates(self, tmp_path):
        oracle = build_oracle(seed=59)
        path = tmp_path / "oracle.json"
        save_oracle(oracle, path)
        restored = load_oracle(path)
        a, b = non_edges(restored.graph)[0]
        restored.insert_edge(a, b)
        check_matches_rebuild(restored.graph.copy(), restored.labelling)
        edge = next(iter(restored.graph.edges()))
        restored.remove_edge(*edge)
        check_matches_rebuild(restored.graph.copy(), restored.labelling)

    def test_isolated_vertices_survive(self, tmp_path):
        from repro.graph.dynamic_graph import DynamicGraph
        from repro.core.construction import build_hcl

        graph = DynamicGraph([0, 1, 2, 9])
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        oracle = DynamicHCL(graph, build_hcl(graph, [0]))
        path = tmp_path / "oracle.json"
        save_oracle(oracle, path)
        restored = load_oracle(path)
        assert restored.graph.has_vertex(9)
        assert restored.graph.degree(9) == 0

    def test_queries_identical_after_restore(self, tmp_path):
        oracle = build_oracle(seed=60)
        path = tmp_path / "oracle.json"
        save_oracle(oracle, path)
        restored = load_oracle(path)
        vertices = sorted(oracle.graph.vertices())
        for u in vertices[:4]:
            for v in vertices[-4:]:
                assert restored.query(u, v) == oracle.query(u, v)


class TestFormatGuard:
    def test_labelling_file_rejected_as_oracle(self, tmp_path):
        oracle = build_oracle(seed=61)
        path = tmp_path / "labelling.json"
        save_labelling(oracle.labelling, path)
        with pytest.raises(ReproError, match="bad magic"):
            load_oracle(path)
        with pytest.raises(ReproError, match="bad magic"):
            read_oracle_meta(path)


# ----------------------------------------------------------------------
# repro-oracle-v2: layout, atomic writes, hostile files, header
# ----------------------------------------------------------------------
MAGIC = b"repro-oracle-v2\n"
RECORDS = ("ids", "indptr", "indices", "dist", "entry")


def grid_oracle():
    oracle = DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 5])
    oracle.insert_edge(0, 15)
    return oracle


def read_parts(path):
    """``(header, {record: array})`` of an uncompressed v2 file."""
    with open(path, "rb") as handle:
        assert handle.readline() == MAGIC
        header = json.loads(handle.readline())
        arrays = {name: npy.read_array(handle) for name in RECORDS}
        assert handle.read() == b""
    return header, arrays


def write_parts(path, header, arrays, magic=MAGIC):
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for name in RECORDS:
            npy.write_array(handle, arrays[name], allow_pickle=True)


class TestLayout:
    def test_oracle_file_is_magic_header_and_npy_records(self, tmp_path):
        oracle = grid_oracle()
        path = tmp_path / "oracle.json"
        save_oracle(oracle, path, meta={"log_seq": 2})
        header, arrays = read_parts(path)
        assert header == {"landmarks": [0, 5], "meta": {"log_seq": 2}, "rows": [0, 5]}
        assert arrays["ids"].tolist() == list(range(16))
        assert [a.dtype.str for a in arrays.values()] == ["<i8", "<i8", "<i4", "<i4", "|b1"]
        assert arrays["dist"][1, 5] == 0 and arrays["dist"][0, 15] == 1
        restored = load_oracle(path)
        assert restored.labelling == oracle.labelling
        assert sorted(restored.graph.edges()) == sorted(oracle.graph.edges())

    def test_gzip_stream_is_canonical(self, tmp_path):
        oracle = grid_oracle()
        a, b = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        save_oracle(oracle, a)
        save_oracle(load_oracle(a), b)
        assert a.read_bytes() == b.read_bytes()
        plain = gzip.decompress(a.read_bytes())
        assert plain.startswith(MAGIC)

    def test_isolated_vertex_saves_unreachable(self, tmp_path):
        oracle = grid_oracle()
        oracle.insert_vertex(99, [])
        path = tmp_path / "oracle.json"
        save_oracle(oracle, path)
        _, arrays = read_parts(path)
        assert arrays["ids"][-1] == 99
        assert (arrays["dist"][:, -1] == UNREACH).all()
        assert not arrays["entry"][:, -1].any()
        restored = load_oracle(path)
        assert restored.graph.degree(99) == 0
        restored.insert_edge(99, 3)
        oracle.insert_edge(99, 3)
        assert restored.labelling == oracle.labelling

    def test_build_save_load_and_shard_run_no_landmark_bfs(self, tmp_path, monkeypatch):
        def no_bfs(self, source_index):
            raise AssertionError("landmark BFS on the build/save/boot path")

        monkeypatch.setattr(DynCSR, "bfs_compact", no_bfs)
        oracle = DynamicHCL.build(grid_graph(5, 5), landmarks=[0, 12, 24],
                                  construction="csr")
        oracle.insert_edge(0, 24)
        path = tmp_path / "oracle.json"
        save_oracle(oracle, path)
        restored = load_oracle(path)
        assert restored.query(0, 24) == 1
        restored.remove_edge(0, 24)
        assert restored.query(0, 24) == 8
        plan = ShardPlan.for_landmarks(restored.landmarks, 2)
        shards = [
            make_shard_oracle(restored, plan, 0),
            make_shard_oracle(restored, plan, 1, copy_graph=False),
        ]
        for shard in shards:
            shard.insert_edge(4, 20)
        # (4 + 20) % 3 == 0: shard 0 holds landmark 0, owns the pair and
        # finds the landmark-free edge; the min over the shards is exact.
        assert shards[0].query(4, 20) == 1
        assert min(shard.query(4, 20) for shard in shards) == 1


class _FullDisk:
    """A file whose device runs out of space after ``room`` bytes."""

    def __init__(self, handle, room):
        self._handle = handle
        self._room = room

    def write(self, data):
        if len(data) > self._room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._room -= len(data)
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


class TestAtomicWrite:
    @pytest.mark.parametrize("name, room", [("oracle.json", 100), ("oracle.json.gz", 12)])
    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch, name, room):
        oracle = grid_oracle()
        path = tmp_path / name
        save_oracle(oracle, path)
        before = path.read_bytes()
        expected = load_oracle(path).labelling
        oracle.insert_edge(3, 12)

        def full_disk_open(*args, **kwargs):
            return _FullDisk(io.open(*args, **kwargs), room)

        monkeypatch.setattr(serialization, "open", full_disk_open, raising=False)
        with pytest.raises(OSError) as excinfo:
            save_oracle(oracle, path)
        monkeypatch.undo()
        assert excinfo.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert load_oracle(path).labelling == expected
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_checkpoint_is_fsynced_before_and_after_the_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(f"fsync-{kind}")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        write_checkpoint(grid_oracle(), tmp_path / "checkpoint.json.gz", log_seq=3)
        assert calls == ["fsync-file", "replace", "fsync-dir"]


def _corrupt(case, header, arrays):
    """Apply one hostile edit to a valid grid file's parts; returns the
    magic line to write."""
    dist, entry, indices = arrays["dist"], arrays["entry"], arrays["indices"]
    if case == "object dtype":
        arrays["ids"] = arrays["ids"].astype(object)
    elif case == "wrong dtype":
        arrays["dist"] = dist.astype(np.int64)
    elif case == "wrong shape":
        arrays["entry"] = entry[:1]
    elif case == "unsorted ids":
        arrays["ids"][[3, 4]] = arrays["ids"][[4, 3]]
    elif case == "out-of-range index":
        indices[-1] = len(arrays["ids"])
    elif case == "asymmetric adjacency":
        # Vertex 0's row [1, 4, 15] becomes [2, 4, 15]: 0 -> 2 has no 2 -> 0.
        assert indices[:3].tolist() == [1, 4, 15]
        indices[0] = 2
    elif case == "row off by one":
        dist[0, 6] += 1  # d(0, 6) = 3, neighbour 2 sits at 2
    elif case == "unsupported finite value":
        # Vertex 12 sits at d(5, 12) = 3 with both neighbours at 2: lower
        # it to 2 and every edge still differs by <= 1, but it has no
        # neighbour at 1.
        assert dist[1, 12] == 3 and dist[1, [8, 13]].tolist() == [2, 2]
        dist[1, 12] = 2
    elif case == "second zero":
        dist[1, 6] = 0
    elif case == "entry in a landmark's column":
        entry[0, 5] = True
    elif case == "rows not landmarks":
        header["rows"] = [0, 7]
    elif case == "bad magic":
        return b"repro-oracle-v9\n"
    return MAGIC


HOSTILE = {
    "bad magic": "bad magic",
    "object dtype": "'ids' unreadable",
    "wrong dtype": "'dist' is not a C-order int32 array",
    "wrong shape": "shapes",
    "unsorted ids": "ids are not sorted",
    "out-of-range index": "out of range",
    "asymmetric adjacency": "not symmetric",
    "row off by one": "more than one across an edge",
    "unsupported finite value": "no neighbour one step closer",
    "second zero": "not zero exactly at",
    "entry in a landmark's column": "landmark's column",
    "rows not landmarks": "not a subset",
}


class TestHostileFiles:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_file_is_refused(self, tmp_path, case):
        good = tmp_path / "good.json"
        save_oracle(grid_oracle(), good)
        header, arrays = read_parts(good)
        bad = tmp_path / "bad.json"
        write_parts(bad, header, arrays, _corrupt(case, header, arrays))
        with pytest.raises(ReproError, match=HOSTILE[case]) as excinfo:
            load_oracle(bad)
        assert str(bad) in str(excinfo.value)

    @pytest.mark.parametrize("name, cut", [
        ("oracle.json", "header"), ("oracle.json", "array"),
        ("oracle.json.gz", "array"),
    ])
    def test_truncated_file_is_refused(self, tmp_path, name, cut):
        good = tmp_path / "good.json"
        save_oracle(grid_oracle(), good)
        data = good.read_bytes()
        if cut == "header":
            keep = data.index(b"\n", len(MAGIC)) + 1  # magic + header only
        else:
            keep = len(data) - 40  # inside the entry record
        truncated = data[:keep]
        bad = tmp_path / name
        bad.write_bytes(gzip.compress(truncated) if name.endswith(".gz") else truncated)
        with pytest.raises(ReproError, match="unreadable"):
            load_oracle(bad)

    def test_oversized_record_shape_is_refused(self, tmp_path):
        path = tmp_path / "oracle.json"
        save_oracle(grid_oracle(), path)
        data = path.read_bytes()
        # The ids record's header claims 10**12 vertices; the header keeps
        # its length by giving up padding.
        claimed = data.replace(b"(16,), }" + b" " * 11, b"(1000000000000,), }", 1)
        assert len(claimed) == len(data) and claimed != data
        path.write_bytes(claimed)
        with pytest.raises(ReproError, match="'ids' unreadable"):
            load_oracle(path)

    def test_trailing_bytes_are_refused(self, tmp_path):
        path = tmp_path / "oracle.json"
        save_oracle(grid_oracle(), path)
        with open(path, "ab") as handle:
            handle.write(b"\0")
        with pytest.raises(ReproError, match="trailing data"):
            load_oracle(path)


class TestHeader:
    def test_read_oracle_meta_reads_v2_header(self, tmp_path):
        path = tmp_path / "oracle.json.gz"
        save_oracle(grid_oracle(), path, meta={"log_seq": 9, "shard_index": 1})
        assert read_oracle_meta(path) == {"log_seq": 9, "shard_index": 1}
