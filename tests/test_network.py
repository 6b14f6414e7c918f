"""Embedding network: forward pass, analytic gradients, training, model file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.config import DnnSettings
from dnn2lr.data import UNSEEN_ID
from dnn2lr.errors import ConfigError, EncodingError, IngestionError, TrainingError
from dnn2lr.network import (
    OUTPUT_IDENTITY,
    OUTPUT_SIGMOID,
    EmbeddingDnn,
    _batch_gradients,
    load_model,
    save_model,
    stable_sigmoid,
    train,
)


def finite_difference(model, ids, space, h=1e-6):
    """Central differences on the gathered embedding vectors."""
    ids = np.asarray(ids)
    base = model.embed(ids)
    k, n, m = ids.shape[0], model.n_fields, model.embedding_dim

    def score(x):
        z = model.forward_embedded(x)
        if model.output == OUTPUT_SIGMOID and space == "logit":
            # invert the clipped sigmoid to recover the raw score
            z = np.log(z / (1.0 - z))
        return z

    grad = np.zeros((k, n, m))
    for f in range(n):
        for j in range(m):
            up = base.copy()
            down = base.copy()
            up[:, f * m + j] += h
            down[:, f * m + j] -= h
            grad[:, f, j] = (score(up) - score(down)) / (2 * h)
    return grad


class TestSigmoid:
    def test_matches_naive_in_safe_range(self):
        # |z| <= 25 keeps both tails above the 1e-12 output floor
        z = np.linspace(-25, 25, 201)
        naive = 1.0 / (1.0 + np.exp(-z))
        assert np.allclose(stable_sigmoid(z), naive, atol=1e-15)

    def test_extremes_stay_finite_and_clipped(self):
        out = stable_sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] >= 1e-12 and out[1] <= 1.0 - 1e-12


class TestConstruction:
    def test_unseen_rows_zeroed(self):
        model = EmbeddingDnn([6, 9], embedding_dim=3, hidden=(8,), seed=0)
        for start in model.offsets:
            assert np.all(model.table[start + UNSEEN_ID] == 0.0)
            # every other row carries signal
            assert np.any(model.table[start] != 0.0) or np.any(model.table[start + 2] != 0.0)

    def test_shapes(self):
        model = EmbeddingDnn([5, 5, 5], embedding_dim=4, hidden=(16, 8))
        assert model.input_dim == 12
        assert [w.shape for w in model.weights] == [(12, 16), (16, 8), (8, 1)]

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            EmbeddingDnn([5], output="softmax")
        with pytest.raises(ConfigError):
            EmbeddingDnn([1], embedding_dim=2)

    def test_id_range_checked(self):
        model = EmbeddingDnn([4, 4], embedding_dim=2, hidden=(4,))
        with pytest.raises(EncodingError):
            model.forward(np.array([[0, 4]], dtype=np.int32))
        with pytest.raises(EncodingError):
            model.forward(np.array([[-1, 0]], dtype=np.int32))


class TestForward:
    def test_chunking_irrelevant(self):
        rng = np.random.default_rng(0)
        model = EmbeddingDnn([20, 30, 10], embedding_dim=5, hidden=(16, 8), seed=1)
        ids = rng.integers(0, 10, size=(1000, 3)).astype(np.int32)
        assert np.array_equal(model.forward(ids, batch_size=64), model.forward(ids, batch_size=100000))

    def test_sigmoid_output_in_unit_interval(self):
        rng = np.random.default_rng(3)
        model = EmbeddingDnn([10, 10], embedding_dim=4, hidden=(8,), seed=2)
        p = model.forward(rng.integers(0, 10, size=(200, 2)).astype(np.int32))
        assert p.shape == (200,)
        assert np.all((p > 0) & (p < 1))

    def test_unseen_everywhere_is_neutral(self):
        # all-unseen input embeds to the zero vector
        model = EmbeddingDnn([8, 8], embedding_dim=3, hidden=(6,), seed=5)
        ids = np.full((1, 2), UNSEEN_ID, dtype=np.int32)
        assert np.all(model.embed(ids) == 0.0)


class TestGradients:
    def test_probability_space_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            sizes = [int(v) for v in rng.integers(4, 12, size=3)]
            model = EmbeddingDnn(sizes, embedding_dim=4, hidden=(8, 4), seed=trial)
            ids = np.stack([rng.integers(2, v, size=6) for v in sizes], axis=1).astype(np.int32)
            got = model.embedding_gradients(ids, space="probability")
            want = finite_difference(model, ids, "probability")
            denom = max(np.abs(want).max(), 1e-8)
            assert np.abs(got - want).max() / denom <= 1e-4

    def test_logit_space_relation(self):
        # d(prob)/de = p(1-p) d(logit)/de
        rng = np.random.default_rng(8)
        sizes = [9, 9]
        model = EmbeddingDnn(sizes, embedding_dim=3, hidden=(6,), seed=9)
        ids = rng.integers(2, 9, size=(40, 2)).astype(np.int32)
        p = model.forward(ids)
        g_prob = model.embedding_gradients(ids, space="probability")
        g_logit = model.embedding_gradients(ids, space="logit")
        scaled = g_logit * (p * (1 - p))[:, None, None]
        assert np.allclose(g_prob, scaled, atol=1e-12)

    def test_identity_output_ignores_space(self):
        model = EmbeddingDnn([7, 7], embedding_dim=3, hidden=(6,), output=OUTPUT_IDENTITY, seed=4)
        ids = np.random.default_rng(1).integers(2, 7, size=(20, 2)).astype(np.int32)
        a = model.embedding_gradients(ids, space="probability")
        b = model.embedding_gradients(ids, space="logit")
        assert np.array_equal(a, b)

    def test_unknown_space_rejected(self):
        model = EmbeddingDnn([5, 5], embedding_dim=2, hidden=(4,))
        with pytest.raises(ConfigError):
            model.embedding_gradients(np.zeros((1, 2), dtype=np.int32), space="odds")


class TestAdditive:
    def test_no_cross_field_interaction(self):
        # additive nets satisfy f(a,b) + f(a',b') = f(a,b') + f(a',b) on the raw score
        model = EmbeddingDnn.additive([10, 10, 10], embedding_dim=4, output=OUTPUT_IDENTITY, seed=6)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.integers(2, 10, size=3)
            xp = x.copy()
            xp[0] = rng.integers(2, 10)
            mixed1 = x.copy()
            mixed1[1] = 3
            mixed2 = xp.copy()
            mixed2[1] = 3
            ids = np.stack([x, xp, mixed1, mixed2]).astype(np.int32)
            y = model.forward(ids)
            assert abs((y[0] + y[3]) - (y[1] + y[2])) <= 1e-12

    def test_gradient_constant_in_other_fields(self):
        # for an additive identity net, d y / d e_f cannot depend on other fields
        model = EmbeddingDnn.additive([12, 12], embedding_dim=3, output=OUTPUT_IDENTITY, seed=11)
        rng = np.random.default_rng(4)
        a = rng.integers(2, 12, size=(30, 2)).astype(np.int32)
        b = a.copy()
        b[:, 1] = rng.integers(2, 12, size=30)
        ga = model.embedding_gradients(a, space="logit")
        gb = model.embedding_gradients(b, space="logit")
        assert np.allclose(ga[:, 0, :], gb[:, 0, :], atol=1e-12)


def batch_gradients_oracle(model, ids, y):
    """The per-field backward: one np.add.at per field's own table, one array per parameter."""
    y_hat, pre, post = model._forward_cache(model.embed(ids))
    k = ids.shape[0]
    if model.output == OUTPUT_SIGMOID:
        loss = float(-np.mean(y * np.log(y_hat) + (1.0 - y) * np.log(1.0 - y_hat)))
        delta = ((y_hat - y) / k)[:, None]
    else:
        loss = float(np.mean((y_hat - y) * (y_hat - y)))
        delta = (2.0 * (y_hat - y) / k)[:, None]
    layers = len(model.weights)
    grads_w, grads_b = [None] * layers, [None] * layers
    for i in range(layers - 1, -1, -1):
        grads_w[i] = post[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0)
    dx = delta @ model.weights[0].T
    m = model.embedding_dim
    tables = []
    for f, size in enumerate(model.vocab_sizes):
        table = np.zeros((size, m))
        np.add.at(table, ids[:, f], dx[:, f * m : (f + 1) * m])
        tables.append(table)
    return loss, [*tables, *grads_w, *grads_b]


class TestBatchGradients:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 12), min_size=1, max_size=8),
        m=st.integers(1, 6),
        hidden=st.lists(st.integers(1, 16), max_size=2),
        batch=st.integers(1, 64),
        output=st.sampled_from([OUTPUT_SIGMOID, OUTPUT_IDENTITY]),
        seed=st.integers(0, 2**16),
    )
    def test_flat_gradient_equals_per_field_scatter(self, sizes, m, hidden, batch, output, seed):
        rng = np.random.default_rng(seed)
        model = EmbeddingDnn(sizes, embedding_dim=m, hidden=tuple(hidden), output=output, seed=seed)
        ids = np.stack([rng.integers(0, v, size=batch) for v in sizes], axis=1).astype(np.int32)
        y = rng.integers(0, 2, size=batch).astype(np.float64)
        loss, grad = _batch_gradients(model, ids, y)
        want_loss, want = batch_gradients_oracle(model, ids, y)
        assert loss == want_loss
        assert grad.shape == model.theta.shape
        assert np.array_equal(grad, np.concatenate([g.ravel() for g in want]))


class TestTraining:
    def test_learns_separable_pattern(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(2, 6, size=(800, 2)).astype(np.int32)
        y = (ids[:, 0] == 3).astype(np.int8)
        model = EmbeddingDnn([6, 6], embedding_dim=4, hidden=(16,), seed=0)
        history = train(
            model, ids[:600], y[:600], ids[600:], y[600:],
            DnnSettings(epochs=15, batch_size=256), seed=0,
        )
        assert history[-1]["epoch"] <= 15
        assert max(h["valid_metric"] for h in history) > 0.95

    def test_restores_best_epoch(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(2, 5, size=(400, 2)).astype(np.int32)
        y = rng.integers(0, 2, size=400).astype(np.int8)
        model = EmbeddingDnn([5, 5], embedding_dim=3, hidden=(8,), seed=1)
        history = train(
            model, ids[:300], y[:300], ids[300:], y[300:],
            DnnSettings(epochs=12, patience=12, batch_size=256), seed=1,
        )
        from dnn2lr.metrics import auc

        best = max(h["valid_metric"] for h in history)
        now = auc(y[300:], model.forward(ids[300:]))
        assert now == pytest.approx(best, abs=1e-12)

    def test_single_class_validation_rejected(self):
        ids = np.full((40, 2), 3, dtype=np.int32)
        y = np.array([0, 1] * 20, dtype=np.int8)
        model = EmbeddingDnn([5, 5], embedding_dim=2, hidden=(4,))
        with pytest.raises(TrainingError):
            train(model, ids, y, ids[:5], np.ones(5, dtype=np.int8), DnnSettings(epochs=2))

    @pytest.mark.parametrize("hidden", [(0,), (16, -3)])
    def test_hidden_widths_below_one_rejected(self, hidden):
        with pytest.raises(ConfigError, match="hidden"):
            EmbeddingDnn([5, 5], embedding_dim=2, hidden=hidden)

    def test_batch_size_whitelist(self):
        with pytest.raises(ConfigError):
            DnnSettings(batch_size=128).validate()
        DnnSettings(batch_size=512).validate()


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        model = EmbeddingDnn([8, 12, 6], embedding_dim=5, hidden=(10, 4), seed=13)
        path = tmp_path / "net.npz"
        save_model(model, path)
        back = load_model(path)
        ids = rng.integers(0, 6, size=(50, 3)).astype(np.int32)
        assert np.array_equal(model.forward(ids), back.forward(ids))
        assert back.vocab_sizes == model.vocab_sizes
        assert back.hidden == model.hidden
        assert back.output == model.output
        save_model(back, tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()

    def test_identity_flag_survives(self, tmp_path):
        model = EmbeddingDnn([5, 5], embedding_dim=2, hidden=(4,), output=OUTPUT_IDENTITY)
        path = tmp_path / "net.npz"
        save_model(model, path)
        assert load_model(path).output == OUTPUT_IDENTITY

    def test_truncated_file_rejected(self, tmp_path):
        model = EmbeddingDnn([5, 5], embedding_dim=2, hidden=(4,))
        path = tmp_path / "net.npz"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IngestionError):
            load_model(path)

    @pytest.mark.parametrize(
        "name, value",
        [("weights", np.nan), ("embeddings", np.inf), ("dims", 7), ("vocab_sizes", 6),
         ("output", 2)],
    )
    def test_bad_array_rejected(self, tmp_path, name, value):
        model = EmbeddingDnn([5, 5], embedding_dim=2, hidden=(4,))
        path = tmp_path / "net.npz"
        save_model(model, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays[name].flat[0] = value
        np.savez(path, **arrays)
        with pytest.raises(IngestionError):
            load_model(path)
