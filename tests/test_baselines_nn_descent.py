"""Tests for repro.baselines.nn_descent."""

import pytest

from repro.baselines.brute_force import brute_force_knn
from repro.baselines.nn_descent import NNDescent
from repro.graph.knn_graph import KNNGraph
from repro.similarity.workloads import generate_dense_profiles


@pytest.fixture(scope="module")
def profiles():
    return generate_dense_profiles(150, dim=10, num_communities=5, noise=0.15, seed=17)


@pytest.fixture(scope="module")
def exact(profiles):
    return brute_force_knn(profiles, 8, measure="cosine")


class TestNNDescent:
    def test_high_recall_on_clustered_data(self, profiles, exact):
        result = NNDescent(k=8, measure="cosine", seed=1).run(profiles)
        assert result.graph.recall_against(exact) > 0.85

    def test_cheaper_than_all_ordered_pairs(self, profiles):
        # On tiny populations NN-Descent's candidate sets overlap heavily, so the
        # fair economy claim at this scale is against the n*(n-1) ordered pairs a
        # naive all-pairs pass would score; sampling tightens it further.
        result = NNDescent(k=8, measure="cosine", seed=2, sample_rate=0.5).run(profiles)
        n = profiles.num_users
        assert 0 < result.similarity_evaluations < n * (n - 1)

    def test_converges_and_reports_iterations(self, profiles):
        result = NNDescent(k=8, measure="cosine", seed=3,
                           termination_fraction=0.01).run(profiles)
        assert result.converged
        assert result.iterations == len(result.updates_per_iteration)
        # updates should broadly decrease over iterations
        assert result.updates_per_iteration[-1] < result.updates_per_iteration[0]

    def test_deterministic_given_seed(self, profiles):
        a = NNDescent(k=6, measure="cosine", seed=4).run(profiles)
        b = NNDescent(k=6, measure="cosine", seed=4).run(profiles)
        assert a.graph.edge_difference(b.graph) == 0

    def test_sampling_reduces_evaluations(self, profiles):
        full = NNDescent(k=6, measure="cosine", seed=5, max_iterations=3,
                         termination_fraction=0.0).run(profiles)
        sampled = NNDescent(k=6, measure="cosine", seed=5, sample_rate=0.5,
                            max_iterations=3, termination_fraction=0.0).run(profiles)
        assert sampled.similarity_evaluations < full.similarity_evaluations

    def test_accepts_initial_graph(self, profiles):
        init = KNNGraph.random(profiles.num_users, 6, seed=6)
        result = NNDescent(k=6, measure="cosine", seed=6).run(profiles, initial_graph=init)
        assert result.graph.num_vertices == profiles.num_users

    def test_initial_graph_size_mismatch(self, profiles):
        with pytest.raises(ValueError):
            NNDescent(k=6).run(profiles, initial_graph=KNNGraph.random(10, 3, seed=0))

    def test_rejects_too_few_users(self):
        small = generate_dense_profiles(5, dim=4, seed=7)
        with pytest.raises(ValueError):
            NNDescent(k=5).run(small)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NNDescent(k=0)
        with pytest.raises(ValueError):
            NNDescent(k=2, sample_rate=0.0)
        with pytest.raises(ValueError):
            NNDescent(k=2, sample_rate=1.5)
