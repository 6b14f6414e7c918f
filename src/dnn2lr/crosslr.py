"""Sparse logistic regression over original fields plus cross features.

The model is a flat sum of lookups: one weight per (field, value), one weight
per (cross field, value combination), plus a bias. Training happens in two
phases. Phase 1 fits the original-field weights and the bias. Phase 2 fits
cross-feature weights with phase 1's parameters frozen bit-for-bit, so adding
candidates can only ever add terms on top of the plain scorecard.

Cross-feature values are keyed by one mixed-radix integer built from the
constituent ids (see CrossKeys). Each cross keeps a sorted key array and a
weight array. Training and scoring both lay the tables end to end in one flat
vector with a trailing 0.0 slot, which a combination never seen in training
reads, so it contributes exactly 0.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .candidates import MAX_ORDER, MIN_ORDER
from .config import LrSettings
from .errors import ConfigError, EncodingError, TrainingError
from .metrics import auc
from .network import field_offsets, fit_with_early_stopping, stable_sigmoid

_INT64_MAX = int(np.iinfo(np.int64).max)


def _normalize_fields(candidate) -> tuple[int, ...]:
    return tuple(sorted(int(f) for f in getattr(candidate, "fields", candidate)))


class CrossKeys:
    """Mixed-radix keys of the value combinations of a list of crosses.

    A cross (f0, f1, ...) keys a row as ``(id_f0 * V_f1 + id_f1) * V_f2 + ...``
    over the vocabulary sizes V: the first member is the most significant
    digit, so key order is the order of ``np.unique(axis=0)`` rows and of
    sorted id tuples. Column j of ``encode`` is shifted by the spans of
    crosses 0..j-1, so one sorted array can hold every cross's keys. Keys are
    int64 unless the total span would overflow it; then they are exact Python
    ints (object dtype) and never wrap.
    """

    def __init__(self, crosses: list[tuple[int, ...]], sizes: list[int]):
        spans = [math.prod(int(sizes[f]) for f in c) for c in crosses]
        self.span = sum(spans)  # every key is below it
        self.dtype = np.dtype(np.int64 if self.span <= _INT64_MAX else object)
        self.offsets = np.array([0, *itertools.accumulate(spans)][: len(crosses)], self.dtype)
        width = max(map(len, crosses), default=0)
        self.members = np.zeros((len(crosses), width), dtype=np.intp)
        self.steps = np.zeros((len(crosses), width), dtype=self.dtype)
        for j, cross in enumerate(crosses):
            radices = [int(sizes[f]) for f in cross]
            self.members[j, : len(cross)] = cross
            self.steps[j, : len(cross)] = [math.prod(radices[m + 1 :]) for m in range(len(cross))]

    def encode(self, ids: np.ndarray) -> np.ndarray:
        """(K, C) keys of each row's combination in each cross, offsets included."""
        return (ids[:, self.members] * self.steps).sum(axis=2) + self.offsets


def split_keys(keys: np.ndarray, radices: list[int]) -> np.ndarray:
    """Member ids of one cross's keys: the inverse of ``CrossKeys.encode``."""
    out = np.empty((len(keys), len(radices)), dtype=np.int64)
    for m in reversed(range(len(radices))):
        out[:, m] = keys % radices[m]
        keys = keys // radices[m]
    return out


def _find(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in a sorted table ending in a key larger than all, else -1."""
    pos = np.searchsorted(table, keys)
    return np.where(table[pos] == keys, pos, -1)


class CompiledScorer:
    """Read-only flat form of a model's lookup-sum, shared by every scorer.

    A row's logit is ``bias + (field weights in field order + cross weights
    in the compiled order)``, added term by term from the left whatever the
    number of rows. One offset field table and one sorted key array keep the
    number of numpy calls fixed however many fields and crosses there are.
    """

    def __init__(self, model: "SparseLrModel", crosses: list[tuple[int, ...]]):
        self.bias = model.bias
        self._field_offsets = field_offsets(model.vocab_sizes)
        self._field_table = np.concatenate(model.field_weights)
        which = [model.cross_index(f) for f in crosses]
        self._keys = CrossKeys([model.cross_fields[j] for j in which], model.vocab_sizes)
        self._table = np.concatenate([
            *(model.cross_keys[j].astype(self._keys.dtype) + offset
              for j, offset in zip(which, self._keys.offsets.tolist())),
            np.array([self._keys.span], dtype=self._keys.dtype),
        ])
        # Absent combinations find -1, which reads the final 0.0.
        self._weights = np.concatenate([*(model.cross_weights[j] for j in which), [0.0]])

    def cross_terms(self, ids: np.ndarray) -> np.ndarray:
        """(K, C) weight of each row's combination per cross; absent scores 0.0."""
        return self._weights[_find(self._table, self._keys.encode(ids))]

    def logits(self, ids: np.ndarray) -> np.ndarray:
        field_terms = self._field_table[ids + self._field_offsets]
        terms = np.concatenate([field_terms, self.cross_terms(ids)], axis=1)
        return self.bias + np.add.accumulate(terms, axis=1, out=terms)[:, -1]


class SparseLrModel:
    """Lookup-sum logistic model: original fields, cross fields, bias.

    Cross j keeps its sorted ``CrossKeys`` keys in ``cross_keys[j]`` and one
    weight per key in ``cross_weights[j]``.
    """

    def __init__(self, vocab_sizes: list[int]):
        if not vocab_sizes or any(v < 2 for v in vocab_sizes):
            raise ConfigError("vocab sizes must all be at least 2")
        self.vocab_sizes = [int(v) for v in vocab_sizes]
        self.field_weights = [np.zeros(v, dtype=np.float64) for v in self.vocab_sizes]
        self.bias = 0.0
        self.cross_fields: list[tuple[int, ...]] = []
        self.cross_keys: list[np.ndarray] = []
        self.cross_weights: list[np.ndarray] = []

    @property
    def n_fields(self) -> int:
        return len(self.vocab_sizes)

    def _check_ids(self, ids) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.n_fields:
            raise ConfigError(f"expected an id matrix with {self.n_fields} columns")
        if ids.size and (ids.min() < 0 or (ids >= self.vocab_sizes).any()):
            raise EncodingError("id matrix holds ids outside the vocabulary")
        return ids

    def cross_index(self, fields: tuple[int, ...]) -> int:
        fields = _normalize_fields(fields)
        try:
            return self.cross_fields.index(fields)
        except ValueError:
            raise ConfigError(f"model has no cross field {fields}") from None

    def compile(self, active: list[tuple[int, ...]] | None = None) -> CompiledScorer:
        """Snapshot for scoring: every cross in attach order, or ``active``'s."""
        return CompiledScorer(self, self.cross_fields if active is None else active)

    def logits(self, ids, active: list[tuple[int, ...]] | None = None) -> np.ndarray:
        """bias + (originals + active cross columns in the given order)."""
        return self.compile(active).logits(self._check_ids(ids))

    def predict(self, ids, active: list[tuple[int, ...]] | None = None) -> np.ndarray:
        return stable_sigmoid(self.logits(ids, active=active))

    def attach_cross(self, fields: tuple[int, ...], combos, weights) -> None:
        """Add a cross from one row of member ids per entry, members ascending."""
        fields = tuple(int(f) for f in fields)
        weights = np.asarray(weights, dtype=np.float64).ravel()
        radices = [self.vocab_sizes[f] for f in fields if 0 <= f < self.n_fields]
        ok = sorted(set(fields)) == list(fields) and len(radices) == len(fields)
        if not ok or not MIN_ORDER <= len(fields) <= MAX_ORDER:
            raise ConfigError(f"cross field {fields}: need 2 to 4 ascending fields of the model")
        if fields in self.cross_fields:
            raise ConfigError(f"cross field {fields} attached twice")
        combos = np.asarray(combos, dtype=np.int64).reshape(weights.size, len(fields))
        if combos.size and (combos.min() < 0 or (combos >= radices).any()):
            raise ConfigError(f"cross field {fields}: ids outside the vocabulary")
        keys = CrossKeys([tuple(range(len(fields)))], radices).encode(combos)[:, 0]
        order = np.argsort(keys, kind="stable")
        if np.any(keys[order][1:] == keys[order][:-1]):
            raise ConfigError(f"cross field {fields}: a value combination appears twice")
        self.cross_fields.append(fields)
        self.cross_keys.append(keys[order])
        self.cross_weights.append(weights[order])


def _fit_tables(
    tables, codes, valid_codes, base, valid_base, labels, valid_labels, settings, seed, bias
):
    """Minibatch SGD on lookup tables over a fixed base logit; both phases use it.

    Row k's logit is ``base[k] + tables[0][codes[k, 0]] + ... + tables[T-1][codes[k, T-1]]``
    added from the left, plus ``bias[0]`` unless ``bias`` is None (a one-element
    array is fitted too); a valid code of -1 adds 0.0. The tables train as one
    flat vector in CompiledScorer's layout (end to end, then a 0.0 slot that -1
    reads): a step is one gather, one accumulate along rows and one bincount.
    The bits are those of a gather and a bincount per table: the accumulate adds
    in table order, each bin belongs to one table and sums its rows in row
    order, and the 0.0 slot gets no gradient, so L2 keeps it 0.0. ``settings``
    (an LrSettings, validated here) and ``seed`` drive fit_with_early_stopping,
    scored by validation AUC; the best epoch's weights are written back into
    ``tables`` and ``bias``. Returns the history.
    """
    settings.validate()
    y = np.asarray(labels, dtype=np.float64).ravel()
    y_valid = np.asarray(valid_labels, dtype=np.float64).ravel()
    if len(set(y_valid.tolist())) < 2:
        raise TrainingError("validation split has a single class; AUC is undefined")
    bounds = np.cumsum([0, *(w.size for w in tables)])
    flat = np.concatenate([*tables, [0.0]])
    codes = codes + bounds[:-1]
    valid_codes = np.where(valid_codes >= 0, valid_codes + bounds[:-1], -1)

    def lookup_sum(row_base: np.ndarray, row_codes: np.ndarray) -> np.ndarray:
        terms = np.column_stack([row_base, flat[row_codes]])
        logit = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        return logit if bias is None else logit + bias

    def step(batch: np.ndarray) -> float:
        batch_codes = codes[batch]
        p = stable_sigmoid(lookup_sum(base[batch], batch_codes))
        yb = y[batch]
        residual = (p - yb) / batch.size
        grad = np.bincount(batch_codes.ravel(), weights=np.repeat(residual, len(tables)),
                           minlength=flat.size)
        flat[:] -= settings.learning_rate * (grad + settings.l2 * flat)
        if bias is not None:
            bias[0] -= settings.learning_rate * float(residual.sum())
        return -float(np.sum(yb * np.log(p) + (1.0 - yb) * np.log(1.0 - p)))

    def validate() -> tuple[float, float]:
        valid_auc = auc(y_valid, stable_sigmoid(lookup_sum(valid_base, valid_codes)))
        return valid_auc, valid_auc

    params = [flat] if bias is None else [flat, bias]
    history = fit_with_early_stopping(params, y.size, settings, seed, step, validate)
    for w, part in zip(tables, np.split(flat, bounds[1:])):
        w[...] = part
    return history


def train_phase1(
    model: SparseLrModel,
    train_ids: np.ndarray,
    train_labels: np.ndarray,
    valid_ids: np.ndarray,
    valid_labels: np.ndarray,
    settings: LrSettings | None = None,
    seed: int = 0,
) -> list[dict]:
    """Fit original-field weights and the bias: one table per field, zero base."""
    ids = model._check_ids(train_ids)
    valid = model._check_ids(valid_ids)
    bias = np.array([model.bias])
    history = _fit_tables(
        model.field_weights, ids, valid, np.zeros(len(ids)), np.zeros(len(valid)),
        train_labels, valid_labels, settings or LrSettings(), seed, bias,
    )
    model.bias = float(bias[0])
    return history


def train_phase2(
    model: SparseLrModel,
    train_ids: np.ndarray,
    train_labels: np.ndarray,
    valid_ids: np.ndarray,
    valid_labels: np.ndarray,
    candidates,
    settings: LrSettings | None = None,
    seed: int = 0,
) -> list[dict]:
    """Fit one weight table per candidate cross field, everything else frozen.

    The original-field weights and the bias are read, never written: their
    contribution enters as a fixed base logit. Cross weights start at zero,
    so an untrained candidate contributes nothing. Early stopping tracks the
    validation AUC of the full model (base plus all candidate columns).
    """
    ids = model._check_ids(train_ids)
    valid = model._check_ids(valid_ids)
    fields_list = [_normalize_fields(c) for c in candidates]
    if len(set(fields_list)) != len(fields_list):
        raise ConfigError("duplicate candidate cross fields")
    codes = np.empty((len(ids), len(fields_list)), dtype=np.intp)
    valid_codes = np.empty((len(valid), len(fields_list)), dtype=np.intp)
    uniqs = []
    for j, fields in enumerate(fields_list):
        keys = CrossKeys([fields], model.vocab_sizes)
        uniq, inverse = np.unique(keys.encode(ids)[:, 0], return_inverse=True)
        uniqs.append(uniq)
        codes[:, j] = inverse.ravel()
        valid_codes[:, j] = _find(np.append(uniq, keys.span), keys.encode(valid)[:, 0])
    weights = [np.zeros(uniq.size) for uniq in uniqs]
    history = _fit_tables(
        weights, codes, valid_codes, model.logits(ids, active=[]), model.logits(valid, active=[]),
        train_labels, valid_labels, settings or LrSettings(), seed, None,
    )
    for fields, uniq, w in zip(fields_list, uniqs, weights):
        model.attach_cross(fields, split_keys(uniq, [model.vocab_sizes[f] for f in fields]), w)
    return history
