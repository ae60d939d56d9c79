"""Tests for labelling serialization."""

import pytest

from repro.core.construction import build_hcl
from repro.core.validation import check_matches_rebuild
from repro.exceptions import ReproError
from repro.graph.generators import grid_graph, ring_of_cliques
from repro.utils.serialization import load_labelling, save_labelling


class TestRoundTrip:
    def test_plain_json(self, tmp_path):
        g = ring_of_cliques(4, 4)
        gamma = build_hcl(g, [0, 4, 8])
        path = tmp_path / "labelling.json"
        save_labelling(gamma, path)
        loaded = load_labelling(path)
        assert loaded.labels == gamma.labels
        assert loaded.highway == gamma.highway
        assert loaded.landmarks == gamma.landmarks

    def test_gzip(self, tmp_path):
        g = grid_graph(4, 4)
        gamma = build_hcl(g, [0, 15])
        path = tmp_path / "labelling.json.gz"
        save_labelling(gamma, path)
        loaded = load_labelling(path)
        assert loaded.labels == gamma.labels
        assert loaded.highway == gamma.highway

    def test_loaded_labelling_is_usable(self, tmp_path):
        g = grid_graph(4, 4)
        gamma = build_hcl(g, [0, 15])
        path = tmp_path / "l.json"
        save_labelling(gamma, path)
        loaded = load_labelling(path)
        # still valid against the graph it was built from
        check_matches_rebuild(g, loaded)

    def test_unreachable_highway_pairs_roundtrip(self, tmp_path):
        from repro.graph.dynamic_graph import DynamicGraph

        g = DynamicGraph.from_edges([(0, 1), (2, 3)])
        gamma = build_hcl(g, [0, 2])
        path = tmp_path / "l.json"
        save_labelling(gamma, path)
        loaded = load_labelling(path)
        assert loaded.highway.distance(0, 2) == float("inf")

    def test_format_check(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ReproError, match="not a repro-hcl-v1"):
            load_labelling(path)

    def test_maintained_labelling_roundtrips(self, tmp_path):
        from repro.core.dynamic import DynamicHCL

        oracle = DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 15])
        oracle.insert_edges([(0, 15), (3, 12)])
        path = tmp_path / "l.json"
        save_labelling(oracle.labelling, path)
        loaded = load_labelling(path)
        assert loaded.labels == oracle.labelling.labels


class TestStreamedWriter:
    """The streaming writer must emit exactly what ``json.dump`` of the
    materialised payload used to — same bytes, tiny peak memory."""

    def test_output_is_byte_identical_to_json_dump(self, tmp_path):
        import json

        g = ring_of_cliques(4, 4)
        gamma = build_hcl(g, [0, 4, 8])
        path = tmp_path / "labelling.json"
        save_labelling(gamma, path)
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload)
        assert payload["labels"] == [
            [v, r, d]
            for v, label in sorted(gamma.labels.items())
            for r, d in sorted(label.items())
        ]

    def test_small_chunk_streaming_matches_one_shot(self, tmp_path):
        # Force many flush chunks: output must not change with chunk size.
        from repro.utils import serialization

        g = grid_graph(5, 5)
        gamma = build_hcl(g, [0, 24, 12])
        head = {
            "format": "repro-hcl-v1",
            "landmarks": gamma.landmarks,
            "highway": serialization._highway_cells(gamma),
        }
        one_shot = tmp_path / "one.json"
        chunked = tmp_path / "chunked.json"
        with open(one_shot, "w") as handle:
            serialization._write_streamed(
                handle, head, serialization._iter_label_rows(gamma)
            )
        with open(chunked, "w") as handle:
            serialization._write_streamed(
                handle, head, serialization._iter_label_rows(gamma), chunk=3
            )
        assert one_shot.read_text() == chunked.read_text()
        assert load_labelling(chunked).labels == gamma.labels

    def test_empty_labelling_streams_valid_json(self, tmp_path):
        from repro.graph.dynamic_graph import DynamicGraph

        g = DynamicGraph([0])
        gamma = build_hcl(g, [0])  # the lone landmark labels nothing
        path = tmp_path / "empty.json"
        save_labelling(gamma, path)
        loaded = load_labelling(path)
        assert loaded.labels.total_entries == gamma.labels.total_entries
