"""Interpretation inconsistency: where the network's local story disagrees
with its average story.

For sample k and field f the local weight vector is the gradient of the model
output with respect to that field's embedding. Averaging those vectors over
every sample sharing the same feature value gives the global weight vector
for that value. A field whose local and global vectors disagree (projected
onto the sample's own embedding) is being used non-additively, so it is a
candidate constituent for a cross feature.

The headline quantity is the inconsistency matrix D of shape (K, n), the
squared difference of the two interpretation scalars:

    D[k, f] = ( (w_local - w_global) . e )^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .network import EmbeddingDnn, field_offsets, sum_rows_into


@dataclass
class InconsistencyResult:
    """Per-sample inconsistency."""

    d: np.ndarray  # (K, n) inconsistency values


def global_weight_table(
    local: np.ndarray, ids: np.ndarray, vocab_sizes: list[int]
) -> np.ndarray:
    """Mean local weight vector per feature value: (sum V_f, m).

    The fields' rows are stacked as in the network's embedding table: field
    f's value v sits at row ``field_offsets(vocab_sizes)[f] + v``. Values that
    never occur in ``ids`` keep a zero row; they are never looked up by
    expand_global, so the zeros are inert placeholders.
    """
    m = local.shape[2]
    rows = (np.asarray(ids) + field_offsets(vocab_sizes)).ravel()
    sums = np.empty((sum(vocab_sizes), m), dtype=np.float64)
    sum_rows_into(sums, rows, local.reshape(-1, m))
    counts = np.bincount(rows, minlength=sums.shape[0]).astype(np.float64)
    seen = counts > 0
    sums[seen] /= counts[seen, None]
    return sums


def expand_global(table: np.ndarray, ids: np.ndarray, vocab_sizes: list[int]) -> np.ndarray:
    """Look the per-value means back up per sample: (K, n, m)."""
    return table[np.asarray(ids) + field_offsets(vocab_sizes)]


def inconsistency_values(local: np.ndarray, global_rows: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Combine local weights, per-sample global weights, and embeddings into D."""
    return np.einsum("kfm,kfm->kf", local - global_rows, emb) ** 2


def compute_inconsistency(
    model: EmbeddingDnn, ids: np.ndarray, space: str = "probability"
) -> InconsistencyResult:
    """Full pipeline step: gradients, per-value means, then D over ``ids``.

    ``ids`` should be the validation split; the averages that define the
    global weights are taken over exactly the rows passed in.
    """
    ids = np.asarray(ids)
    local = model.embedding_gradients(ids, space=space)
    table = global_weight_table(local, ids, model.vocab_sizes)
    global_rows = expand_global(table, ids, model.vocab_sizes)
    m = model.embedding_dim
    emb = model.embed(ids).reshape(ids.shape[0], model.n_fields, m)
    d = inconsistency_values(local, global_rows, emb)
    return InconsistencyResult(d=d)


def feasible_matrix(d: np.ndarray, eta: float) -> np.ndarray:
    """Boolean mask of the ceil(eta * N) largest entries of D, ties included.

    The cut value is the m-th largest entry of the flattened matrix; every
    entry >= cut is marked, so tied entries at the threshold are all kept.
    """
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"eta must lie strictly between 0 and 1, got {eta}")
    d = np.asarray(d, dtype=np.float64)
    total = d.size
    if total == 0:
        raise ConfigError("empty inconsistency matrix")
    # The 1e-9 nudge keeps ceil() honest when eta * N is an exact integer
    # that float arithmetic lands a hair above (0.05 * 80000 -> 4000.0000...05).
    count = max(1, math.ceil(eta * total - 1e-9))
    flat = d.ravel()
    cut = np.partition(flat, total - count)[total - count]
    return d >= cut
