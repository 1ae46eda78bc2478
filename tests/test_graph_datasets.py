"""Tests for repro.graph.datasets (synthetic SNAP stand-ins)."""

import pytest

from repro.graph.datasets import (
    DATASETS,
    TABLE1_ORDER,
    load_dataset,
    small_dataset,
)


class TestRegistry:
    def test_six_datasets_registered(self):
        assert len(DATASETS) == 6
        assert set(TABLE1_ORDER) == set(DATASETS)

    def test_paper_counts(self):
        # node/edge counts printed in the paper's Table 1
        expected = {
            "wiki-vote": (7115, 100762),
            "gen-rel": (5241, 14484),
            "high-energy": (12006, 118489),
            "astro-phy": (18771, 198050),
            "email": (36692, 183831),
            "gnutella": (26518, 65369),
        }
        for name, (nodes, edges) in expected.items():
            spec = DATASETS[name]
            assert spec.num_vertices == nodes
            assert spec.num_edges == edges


class TestGeneration:
    def test_generated_counts_match_spec(self):
        spec = DATASETS["gen-rel"]
        graph = spec.generate(seed=1)
        assert graph.num_vertices == spec.num_vertices
        assert graph.num_edges == spec.num_edges

    def test_generation_deterministic_default_seed(self):
        a = DATASETS["gen-rel"].generate()
        b = DATASETS["gen-rel"].generate()
        assert a.num_edges == b.num_edges
        assert (a.edges_array() == b.edges_array()).all()

    def test_load_by_key_and_display_name(self):
        by_key = load_dataset("gen-rel", seed=2)
        by_display = load_dataset("Gen. Rel.", seed=2)
        assert by_key.num_edges == by_display.num_edges

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("does-not-exist")

    def test_small_dataset_shape(self):
        graph = small_dataset(300, 2000, seed=3)
        assert graph.num_vertices == 300
        assert graph.num_edges == 2000
