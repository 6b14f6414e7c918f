"""Embedding network over categorical fields, with input-gradient readout.

All fields share one stacked embedding table of sum(V_f) rows; field f's
value v sits at row offsets[f] + v. A row embeds as the concatenation of its
per-field vectors, which feeds a ReLU multilayer perceptron with either a
sigmoid output (binary classification, cross-entropy loss) or an identity
output (regression, squared-error loss). Every parameter lives in one float64
vector ``theta``: the table, then the weights, then the biases, each a view.

The model exposes d(output)/d(embedding) per sample and field, which is what
the inconsistency analysis consumes. The gradient can be taken on the
probability or on the logit; for identity-output networks the two coincide.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DnnSettings
from .data import UNSEEN_ID, load_arrays, save_arrays
from .errors import ConfigError, EncodingError, IngestionError, TrainingError
from .metrics import auc

GRADIENT_SPACES = ("probability", "logit")

OUTPUT_SIGMOID = "sigmoid"
OUTPUT_IDENTITY = "identity"

_PROB_FLOOR = 1e-12


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) below: never overflows
    total = 1.0 + ez
    out = np.where(z >= 0, 1.0 / total, ez / total)
    return np.clip(out, _PROB_FLOOR, 1.0 - _PROB_FLOOR)


class EmbeddingDnn:
    """Concatenated per-field embeddings feeding a ReLU MLP."""

    def __init__(
        self,
        vocab_sizes: list[int],
        embedding_dim: int = 10,
        hidden: tuple[int, ...] = (400, 100),
        output: str = OUTPUT_SIGMOID,
        seed: int = 0,
    ):
        if output not in (OUTPUT_SIGMOID, OUTPUT_IDENTITY):
            raise ConfigError(f"unknown output mode {output!r}")
        if embedding_dim < 1 or any(v < 2 for v in vocab_sizes) or not vocab_sizes:
            raise ConfigError("need embedding_dim >= 1 and vocab sizes >= 2")
        if any(h < 1 for h in hidden):
            raise ConfigError(f"hidden widths must all be at least 1, got {tuple(hidden)}")
        self.vocab_sizes = [int(v) for v in vocab_sizes]
        self.embedding_dim = int(embedding_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.output = output
        self.offsets = field_offsets(self.vocab_sizes)
        dims = [self.input_dim, *self.hidden, 1]
        self._shapes = [(sum(self.vocab_sizes), self.embedding_dim), *zip(dims, dims[1:]),
                        *((d,) for d in dims[1:])]
        sizes = [math.prod(shape) for shape in self._shapes]
        self.theta = np.zeros(sum(sizes))
        # L2 decays the table and the weights, never the biases.
        self.n_decay = sum(sizes[: len(dims)])
        self.table, self.weights, self.biases = self.unflatten(self.theta)
        rng = np.random.default_rng(seed)
        self.table[...] = rng.uniform(-0.05, 0.05, size=self.table.shape)
        self.table[self.offsets + UNSEEN_ID] = 0.0  # unseen values must contribute nothing
        for w in self.weights:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)

    def unflatten(self, flat: np.ndarray):
        """Views of a theta-shaped vector: (table, [weights per layer], [biases per layer])."""
        cuts = np.cumsum([math.prod(shape) for shape in self._shapes])[:-1]
        views = [part.reshape(shape) for part, shape in zip(np.split(flat, cuts), self._shapes)]
        layers = (len(views) - 1) // 2
        return views[0], views[1 : 1 + layers], views[1 + layers :]

    @classmethod
    def additive(
        cls,
        vocab_sizes: list[int],
        embedding_dim: int = 4,
        field_units: tuple[int, ...] = (8, 4),
        output: str = OUTPUT_SIGMOID,
        seed: int = 0,
    ) -> "EmbeddingDnn":
        """Build a network that is additive across fields by construction.

        Hidden weights are block-diagonal: field f's embedding only reaches
        field f's slice of each hidden layer, and the output layer sums the
        per-field subnetworks. Such a model cannot express any cross-field
        interaction, which makes it the canonical zero-inconsistency case.
        """
        n = len(vocab_sizes)
        hidden = tuple(n * u for u in field_units)
        model = cls(vocab_sizes, embedding_dim, hidden, output=output, seed=seed)
        per_field_in = [embedding_dim, *field_units[:-1]]
        for layer, out_units in enumerate(field_units):
            mask = np.zeros_like(model.weights[layer])
            size_in = per_field_in[layer]
            for f in range(n):
                mask[f * size_in : (f + 1) * size_in, f * out_units : (f + 1) * out_units] = 1.0
            model.weights[layer] *= mask
        return model

    @property
    def n_fields(self) -> int:
        return len(self.vocab_sizes)

    @property
    def input_dim(self) -> int:
        return self.n_fields * self.embedding_dim

    # ------------------------------------------------------------------ #
    # forward passes

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.n_fields:
            raise EncodingError(f"expected an id matrix with {self.n_fields} columns")
        if ids.size:
            bad = (ids.min(axis=0) < 0) | (ids.max(axis=0) >= self.vocab_sizes)
            if bad.any():
                f = int(np.argmax(bad))
                raise EncodingError(f"field {f}: id outside [0, {self.vocab_sizes[f]})")
        return ids.astype(np.int64, copy=False)

    def embed(self, ids: np.ndarray) -> np.ndarray:
        """Concatenate per-field embedding rows: (B, n) ids -> (B, n*m)."""
        ids = self._check_ids(ids)
        return self.table[ids + self.offsets].reshape(ids.shape[0], self.input_dim)

    def forward_embedded(self, x: np.ndarray) -> np.ndarray:
        """Run the MLP head on pre-embedded inputs (used by gradient checks)."""
        return self._forward_cache(x)[0]

    def _forward_cache(self, x: np.ndarray):
        """The MLP head on embedded rows: (output, pre-activations, activations from x on)."""
        a = np.asarray(x, dtype=np.float64)
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            pre.append(z)
            a = np.maximum(z, 0.0) if i < last else z
            post.append(a)
        z_out = pre[-1][:, 0]
        y_hat = stable_sigmoid(z_out) if self.output == OUTPUT_SIGMOID else z_out
        return y_hat, pre, post

    def forward(self, ids: np.ndarray, batch_size: int = 8192) -> np.ndarray:
        """Model output per row: probabilities in (0, 1), or raw regression values."""
        ids = self._check_ids(ids)
        starts = range(0, ids.shape[0], batch_size)
        chunks = [self._forward_cache(self.embed(ids[s : s + batch_size]))[0] for s in starts]
        return np.concatenate([np.empty(0, dtype=np.float64), *chunks])

    # ------------------------------------------------------------------ #
    # gradients

    def embedding_gradients(
        self, ids: np.ndarray, space: str = "probability", batch_size: int = 4096
    ) -> np.ndarray:
        """d(output)/d(embedding) per sample and field: returns (B, n, m).

        space="probability" differentiates the sigmoid output; space="logit"
        stops at the pre-sigmoid score. Identity-output networks return the
        same thing for both.
        """
        if space not in GRADIENT_SPACES:
            raise ConfigError(f"gradient space must be one of {GRADIENT_SPACES}, got {space!r}")
        ids = self._check_ids(ids)
        slope = self.output == OUTPUT_SIGMOID and space == "probability"
        out = np.empty((ids.shape[0], self.input_dim), dtype=np.float64)
        for start in range(0, ids.shape[0], batch_size):
            y_hat, pre, _ = self._forward_cache(self.embed(ids[start : start + batch_size]))
            delta = (y_hat * (1.0 - y_hat) if slope else np.ones_like(y_hat))[:, None]
            out[start : start + batch_size] = _backward(self, delta, pre)
        return out.reshape(*ids.shape, self.embedding_dim)


def field_offsets(vocab_sizes: list[int]) -> np.ndarray:
    """Row of each field's value 0 in a table that stacks the fields' rows."""
    return np.cumsum([0, *vocab_sizes[:-1]])


def sum_rows_into(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """out[r] = the sum of values[i] over rows[i] == r, added in the order of i.

    One bincount per column: it adds in index order, as np.add.at does, so the
    sums are the same to the bit.
    """
    for j in range(out.shape[1]):
        out[:, j] = np.bincount(rows, weights=values[:, j], minlength=out.shape[0])


def _batch_gradients(model: EmbeddingDnn, ids: np.ndarray, y: np.ndarray):
    """Mean data-loss gradient for one minibatch as one theta-shaped vector, plus the mean loss."""
    y_hat, pre, post = model._forward_cache(model.embed(ids))
    k = ids.shape[0]
    if model.output == OUTPUT_SIGMOID:
        loss = float(-np.mean(y * np.log(y_hat) + (1.0 - y) * np.log(1.0 - y_hat)))
        delta = ((y_hat - y) / k)[:, None]  # d(mean BCE)/d(logit)
    else:
        diff = y_hat - y
        loss = float(np.mean(diff * diff))
        delta = (2.0 * diff / k)[:, None]
    grad = np.empty_like(model.theta)
    grad_table, grads_w, grads_b = model.unflatten(grad)
    dx = _backward(model, delta, pre, post, grads_w, grads_b).reshape(-1, model.embedding_dim)
    sum_rows_into(grad_table, (np.asarray(ids) + model.offsets).ravel(), dx)
    return loss, grad


def _backward(model: EmbeddingDnn, delta, pre, post=None, grads_w=None, grads_b=None):
    """Carry delta, d(target)/d(output logit) as (B, 1), down to the embedded rows: (B, n*m).

    ``pre`` and ``post`` come from _forward_cache; each layer's weight and
    bias gradient is written into ``grads_w`` and ``grads_b`` if they are given.
    """
    for i in range(len(model.weights) - 1, -1, -1):
        if grads_w is not None:
            grads_w[i][...] = post[i].T @ delta
            grads_b[i][...] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= pre[i - 1] > 0  # in place: one (B, width) array per layer
    return delta @ model.weights[0].T


def fit_with_early_stopping(
    params, n_rows: int, settings, seed: int, step, validate
) -> list[dict]:
    """The epoch loop every trainer shares; ``params`` are updated in place.

    ``settings`` is a DnnSettings or an LrSettings: its epochs, patience and
    batch_size rule the loop. Each epoch draws one permutation of the
    ``n_rows`` training rows from ``default_rng(seed)`` and calls
    ``step(batch)`` per minibatch; ``step`` updates ``params`` and returns the
    batch's summed loss. ``validate()`` returns (metric, score), higher score
    better. The arrays of the best-scoring epoch are restored into ``params``
    at the end; patience counts consecutive epochs without a better score.
    Returns one history row per epoch: epoch, train_loss, valid_metric.
    """
    rng = np.random.default_rng(seed)
    history: list[dict] = []
    best_score, best, stall = -np.inf, None, 0
    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(n_rows)
        loss_sum = 0.0
        for start in range(0, n_rows, settings.batch_size):
            loss_sum += step(order[start : start + settings.batch_size])
        epoch_loss = loss_sum / n_rows
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        metric, score = validate()
        history.append({"epoch": epoch, "train_loss": epoch_loss, "valid_metric": metric})
        if score > best_score:
            best_score, best, stall = score, [p.copy() for p in params], 0
        else:
            stall += 1
            if stall >= settings.patience:
                break
    if best is not None:
        for p, saved in zip(params, best):
            p[...] = saved
    return history


def train(
    model: EmbeddingDnn,
    train_ids: np.ndarray,
    train_labels: np.ndarray,
    valid_ids: np.ndarray,
    valid_labels: np.ndarray,
    settings: DnnSettings | None = None,
    seed: int = 0,
) -> list[dict]:
    """Adam on ``model.theta`` with minibatches, early stopping on the validation metric.

    The network's shape is ``model``'s own; ``settings`` (validated here,
    DnnSettings() if None) gives the learning rate, L2, batch size, epochs and
    patience, and ``seed`` the minibatch order. Classification tracks
    validation AUC (higher is better); regression tracks validation MSE (lower
    is better). The parameters giving the best metric are kept: after training
    returns, the model holds that snapshot, not the last epoch. Returns
    fit_with_early_stopping's history.
    """
    settings = settings or DnnSettings()
    settings.validate()
    ids = model._check_ids(train_ids)
    y = np.asarray(train_labels, dtype=np.float64).ravel()
    y_valid = np.asarray(valid_labels, dtype=np.float64).ravel()
    if ids.shape[0] != y.size:
        raise TrainingError("train ids and labels disagree in length")
    if model.output == OUTPUT_SIGMOID and len(set(y_valid.tolist())) < 2:
        raise TrainingError("validation split has a single class; AUC is undefined")

    theta, decay = model.theta, model.theta[: model.n_decay]
    m_state, v_state = np.zeros_like(theta), np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    steps = 0

    def step(batch: np.ndarray) -> float:
        nonlocal steps, m_state, v_state, theta
        loss, grad = _batch_gradients(model, ids[batch], y[batch])
        steps += 1
        if settings.l2 > 0.0:
            grad[: model.n_decay] += settings.l2 * decay
        m_state *= beta1
        m_state += (1.0 - beta1) * grad
        v_state *= beta2
        v_state += (1.0 - beta2) * grad * grad
        correct1, correct2 = 1.0 - beta1**steps, 1.0 - beta2**steps
        theta -= settings.learning_rate * (m_state / correct1) / (np.sqrt(v_state / correct2) + eps)
        return loss * batch.size

    def validate() -> tuple[float, float]:
        valid_out = model.forward(valid_ids)
        if model.output == OUTPUT_SIGMOID:
            metric = auc(y_valid, valid_out)
            return metric, metric
        metric = float(np.mean((valid_out - y_valid) ** 2))
        return metric, -metric

    return fit_with_early_stopping([theta], ids.shape[0], settings, seed, step, validate)


# ---------------------------------------------------------------------- #
# model file: one array container of theta's three parts. ``embeddings`` is
# the stacked (sum V_f, m) table; dims = [n*m, hidden..., 1] gives the shapes
# of the flat weights and biases.

_OUTPUT_FLAGS = {OUTPUT_SIGMOID: 0, OUTPUT_IDENTITY: 1}
_MODEL_ARRAYS = dict(
    vocab_sizes=(np.int64, 1), embeddings=(np.float64, 2), dims=(np.int64, 1),
    weights=(np.float64, 1), biases=(np.float64, 1), output=(np.int8, 0),
)


def save_model(model: EmbeddingDnn, path) -> None:
    save_arrays(
        path,
        vocab_sizes=np.array(model.vocab_sizes, dtype=np.int64),
        embeddings=model.table,
        dims=np.array([model.input_dim, *model.hidden, 1], dtype=np.int64),
        weights=model.theta[model.table.size : model.n_decay],
        biases=model.theta[model.n_decay :],
        output=np.int8(_OUTPUT_FLAGS[model.output]),
    )


def load_model(path) -> EmbeddingDnn:
    """Read a model file; its arrays must agree in shape and hold finite floats."""
    arrays = load_arrays(path, _MODEL_ARRAYS)
    sizes, dims = arrays["vocab_sizes"].tolist(), arrays["dims"].tolist()
    table, flat_w, flat_b = arrays["embeddings"], arrays["weights"], arrays["biases"]
    output = {v: k for k, v in _OUTPUT_FLAGS.items()}.get(int(arrays["output"]))
    if not (output and len(dims) >= 2 and min(dims) >= 1 and dims[-1] == 1
            and table.shape[0] == sum(sizes) and dims[0] == len(sizes) * table.shape[1]
            and min(sizes) >= 2 and flat_w.size == sum(a * b for a, b in zip(dims, dims[1:]))
            and flat_b.size == sum(dims[1:])):
        raise IngestionError(f"{path}: model arrays do not describe one network")
    if not all(np.isfinite(a).all() for a in (table, flat_w, flat_b)):
        raise IngestionError(f"{path}: model holds a non-finite parameter")
    model = EmbeddingDnn(sizes, table.shape[1], tuple(dims[1:-1]), output=output, seed=0)
    model.theta[...] = np.concatenate([table.ravel(), flat_w, flat_b])
    return model
