"""Unit tests for the per-landmark construction sweep kernel."""

from repro.core.highway import Highway
from repro.core.labels import LabelStore
from repro.core.sweeps import LandmarkSweep, landmark_sweep, merge_sweep


class TestSweepKernel:
    def test_path_graph_sweep(self):
        adj = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        sweep = landmark_sweep(adj, 0, frozenset({0, 3}))
        assert sweep.root == 0
        assert sweep.highway_cells == [(3, 3)]
        assert sweep.levels == [(1, [1]), (2, [2])]
        assert sweep.num_entries == 2

    def test_covered_vertex_emits_no_entry(self):
        # 0 - 1 - 2 with landmarks {0, 1}: every shortest 0-path to 2 runs
        # through landmark 1, so 2 gets no 0-entry.
        adj = {0: [1], 1: [0, 2], 2: [1]}
        sweep = landmark_sweep(adj, 0, frozenset({0, 1}))
        assert sweep.highway_cells == [(1, 1)]
        assert sweep.levels == []

    def test_merge_sweep_applies_cells_and_entries(self):
        highway = Highway([0, 3])
        labels = LabelStore()
        merge_sweep(highway, labels, LandmarkSweep(0, [(3, 3)], [(1, [1]), (2, [2])]))
        assert highway.distance(0, 3) == 3
        assert labels.label(1) == {0: 1}
        assert labels.label(2) == {0: 2}
        assert labels.total_entries == 2
