"""IVF-Flat approximate nearest-neighbor search."""

import numpy as np
import pytest

from repro.ann import AnnSessionRecModel, IVFFlatIndex, measure_recall, recall_at_k
from repro.models import ModelConfig, create_model
from repro.tensor import Tensor, cost_trace

CONFIG = ModelConfig.for_catalog(20_000, top_k=10)


@pytest.fixture(scope="module")
def model():
    return create_model("gru4rec", CONFIG)


@pytest.fixture(scope="module")
def index(model):
    return IVFFlatIndex(model.item_embedding, nlist=64, nprobe=8, kmeans_iterations=6)


class TestIndexConstruction:
    def test_all_items_in_exactly_one_list(self, index):
        members = np.concatenate(index.lists)
        assert members.shape[0] == index.data.shape[0]
        assert np.unique(members).shape[0] == members.shape[0]

    def test_default_nlist_sqrt(self, model):
        auto = IVFFlatIndex(model.item_embedding, kmeans_iterations=2)
        assert auto.nlist == int(np.sqrt(model.item_embedding.materialized))

    def test_nprobe_clamped(self, model):
        clamped = IVFFlatIndex(
            model.item_embedding, nlist=16, nprobe=100, kmeans_iterations=2
        )
        assert clamped.nprobe == 16

    def test_invalid_nlist(self, model):
        with pytest.raises(ValueError):
            IVFFlatIndex(model.item_embedding, nlist=0)

    def test_probed_fraction(self, index):
        fraction = index.probed_fraction()
        assert fraction == pytest.approx(index.nprobe / index.nlist, rel=1e-6)


class TestSearch:
    def test_full_probe_equals_exact(self, model, index):
        """nprobe == nlist visits everything: results match the exact scan."""
        everything = index.with_nprobe(index.nlist)
        query = Tensor(
            np.random.default_rng(0).random(CONFIG.embedding_dim).astype(np.float32)
        )
        from repro.tensor import functional as F

        exact = F.topk(
            F.linear(query, model.item_embedding.scoring_weight()), 10
        ).numpy()
        approx = everything.search(query, 10).numpy()
        np.testing.assert_array_equal(np.sort(exact), np.sort(approx))

    def test_recall_monotone_in_nprobe(self, model, index):
        rng = np.random.default_rng(1)
        queries = [
            Tensor(rng.random(CONFIG.embedding_dim).astype(np.float32))
            for _ in range(15)
        ]
        from repro.tensor import functional as F

        def mean_recall(nprobe):
            probed = index.with_nprobe(nprobe)
            recalls = []
            for query in queries:
                exact = F.topk(
                    F.linear(query, model.item_embedding.scoring_weight()), 10
                ).numpy()
                approx = probed.search(query, 10).numpy()
                recalls.append(recall_at_k(exact, approx))
            return np.mean(recalls)

        low, mid, high = mean_recall(1), mean_recall(8), mean_recall(32)
        assert low <= mid + 0.05
        assert mid <= high + 0.05
        assert high > 0.8

    def test_cost_scales_with_nprobe(self, index):
        query = Tensor(np.ones(CONFIG.embedding_dim, dtype=np.float32))
        with cost_trace() as narrow:
            index.with_nprobe(1).search(query, 10)
        with cost_trace() as wide:
            index.with_nprobe(32).search(query, 10)
        assert wide.total_param_bytes > 5 * narrow.total_param_bytes

    def test_cost_far_below_exact_scan(self, model, index):
        query = Tensor(np.ones(CONFIG.embedding_dim, dtype=np.float32))
        from repro.tensor import functional as F

        with cost_trace() as exact:
            F.linear(query, model.item_embedding.scoring_weight())
        with cost_trace() as ann:
            index.search(query, 10)
        assert ann.total_param_bytes < 0.4 * exact.total_param_bytes

    def test_invalid_k(self, index):
        with pytest.raises(ValueError):
            index.search(Tensor(np.ones(CONFIG.embedding_dim)), 0)


class TestBuildAndAccounting:
    def test_build_determinism(self, model):
        first = IVFFlatIndex(
            model.item_embedding, nlist=32, nprobe=4, kmeans_iterations=4
        )
        second = IVFFlatIndex(
            model.item_embedding, nlist=32, nprobe=4, kmeans_iterations=4
        )
        np.testing.assert_array_equal(first.centroids, second.centroids)
        for list_a, list_b in zip(first.lists, second.lists):
            np.testing.assert_array_equal(list_a, list_b)

    def test_logical_nlist_clamped_to_materialized_rows(self):
        from repro.tensor.layers import CatalogEmbedding

        virtual = CatalogEmbedding(5_000, 8, materialized_cap=100)
        index = IVFFlatIndex(virtual, nlist=500, nprobe=8, kmeans_iterations=2)
        assert index.logical_nlist == 500
        assert index.nlist == 100  # only 100 rows exist to cluster
        assert index.catalog_scale == pytest.approx(50.0)

    def test_nlist_above_catalog_rejected(self, model):
        with pytest.raises(ValueError):
            IVFFlatIndex(model.item_embedding, nlist=CONFIG.num_items + 1)

    def test_virtualized_full_probe_matches_exact_plus_centroids(self):
        """Above the materialized cap, a full probe's booked traffic must be
        the exact scan's plus the (logical) centroid table — the scale
        handling cannot leak into the totals."""
        config = ModelConfig.for_catalog(100_000, top_k=10)
        big = create_model("gru4rec", config)
        assert big.item_embedding.catalog_scale > 1.0
        index = IVFFlatIndex(
            big.item_embedding, nlist=64, nprobe=64, kmeans_iterations=2
        )
        from repro.tensor import functional as F

        query = Tensor(np.ones(config.embedding_dim, dtype=np.float32))
        with cost_trace() as exact:
            F.linear(query, big.item_embedding.scoring_weight())
        with cost_trace() as full_probe:
            index.search(query, 10)
        centroid_bytes = index.logical_nlist * config.embedding_dim * 4.0
        assert full_probe.total_param_bytes == pytest.approx(
            exact.total_param_bytes + centroid_bytes, rel=1e-6
        )


class TestAnnModel:
    def test_recommend_contract(self, model):
        ann = AnnSessionRecModel(model, nlist=64, nprobe=8)
        recs = ann.recommend([3, 99, 17])
        assert recs.shape == (10,)
        assert np.all((recs >= 0) & (recs < CONFIG.num_items))

    def test_recall_against_exact(self, model):
        ann = AnnSessionRecModel(model, nlist=64, nprobe=32)
        rng = np.random.default_rng(4)
        sessions = [
            rng.integers(0, CONFIG.num_items, size=4).tolist() for _ in range(10)
        ]
        assert ann.recall_against_exact(sessions) > 0.6

    def test_probing_half_the_lists_reaches_recall_0_9(self):
        """IVF probing half its lists keeps recall@20 >= 0.9 against the
        exact scan on a real model (the quality claim of docs/retrieval.md)."""
        source = create_model(
            "gru4rec", ModelConfig.for_catalog(2_000, top_k=20, seed=23)
        )
        ann = AnnSessionRecModel(source, nlist=32, nprobe=16)
        report = measure_recall(ann, num_sessions=48)
        assert (report.k, report.nlist, report.nprobe) == (20, 32, 16)
        assert report.num_sessions == 48
        assert report.recall >= 0.9

    def test_score_bytes_reflect_probing(self, model):
        ann = AnnSessionRecModel(model, nlist=64, nprobe=8)
        assert ann.score_bytes_per_item() < 0.3 * model.score_bytes_per_item()

    def test_fused_scoring_models_rejected(self):
        repeatnet = create_model("repeatnet", CONFIG)
        with pytest.raises(ValueError):
            AnnSessionRecModel(repeatnet)

    def test_recall_at_k_validation(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([]), np.array([1]))
        assert recall_at_k(np.array([1, 2]), np.array([2, 3])) == 0.5
