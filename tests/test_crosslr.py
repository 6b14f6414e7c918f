"""Two-phase sparse logistic regression over id lookups."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.crosslr import (
    CrossKeys,
    SparseLrModel,
    _find,
    _normalize_fields,
    split_keys,
    train_phase1,
    train_phase2,
)
from dnn2lr.config import LrSettings
from dnn2lr.errors import ConfigError, EncodingError, TrainingError
from dnn2lr.metrics import auc
from dnn2lr.network import fit_with_early_stopping, stable_sigmoid


def make_xor_data(seed, k=1200, noise=0.05):
    """Two binary-ish fields whose XOR drives the label; a third is noise."""
    rng = np.random.default_rng(seed)
    ids = np.stack(
        [rng.integers(2, 4, size=k), rng.integers(2, 4, size=k), rng.integers(2, 6, size=k)],
        axis=1,
    ).astype(np.int32)
    y = ((ids[:, 0] == 2) ^ (ids[:, 1] == 2)).astype(np.int8)
    flip = rng.random(k) < noise
    y[flip] = 1 - y[flip]
    cut = int(0.75 * k)
    return ids[:cut], y[:cut], ids[cut:], y[cut:]


def id_rows(radices, max_rows=40):
    """Rows of member ids, each id below its radix; extremes drawn often."""
    digit = [st.one_of(st.just(0), st.just(r - 1), st.integers(0, r - 1)) for r in radices]
    return st.lists(st.tuples(*digit), min_size=1, max_size=max_rows)


class TestCrossKeys:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.integers(2, 6), min_size=2, max_size=4).flatmap(
        lambda radices: st.tuples(st.just(radices), id_rows(radices))))
    def test_key_order_is_unique_row_order(self, case):
        radices, rows = case
        sub = np.array(rows, dtype=np.int32)
        keys = CrossKeys([tuple(range(len(radices)))], radices).encode(sub)[:, 0]
        assert keys.dtype == np.int64
        uniq_keys, key_codes = np.unique(keys, return_inverse=True)
        uniq_rows, row_codes = np.unique(sub, axis=0, return_inverse=True)
        assert np.array_equal(split_keys(uniq_keys, radices), uniq_rows)
        assert np.array_equal(key_codes.ravel(), row_codes.ravel())

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(st.integers(2**16, 10**6), min_size=4, max_size=4).flatmap(
        lambda radices: st.tuples(st.just(radices), id_rows(radices, max_rows=12))))
    def test_overflow_guard_keeps_keys_exact(self, case):
        radices, rows = case
        assert math.prod(radices) > np.iinfo(np.int64).max  # an int64 product would wrap
        keys = CrossKeys([(0, 1, 2, 3)], radices).encode(np.array(rows, dtype=np.int64))[:, 0]
        want = [((a * radices[1] + b) * radices[2] + c) * radices[3] + d for a, b, c, d in rows]
        assert keys.tolist() == want
        assert len(set(want)) == len(set(rows))
        assert [tuple(r) for r in split_keys(keys, radices).tolist()] == rows
        # the scorer finds every entry through the same keys
        model = SparseLrModel(radices)
        table = {row: float(i) for i, row in enumerate(sorted(set(rows)))}
        model.attach_cross((0, 1, 2, 3), list(table), list(table.values()))
        probe = np.array(rows + [(1, 1, 1, 1)], dtype=np.int64)
        got = model.compile().cross_terms(probe)[:, 0].tolist()
        assert got == [table.get(tuple(row), 0.0) for row in probe.tolist()]

    def test_crosses_share_one_key_space(self):
        keys = CrossKeys([(0, 1), (1, 2)], [3, 4, 5])
        ids = np.array([[2, 3, 4], [0, 0, 0]])
        assert keys.encode(ids).tolist() == [[2 * 4 + 3, 12 + 3 * 5 + 4], [0, 12]]


class TestModelAlgebra:
    def test_logits_are_lookup_sums(self):
        model = SparseLrModel([4, 5])
        model.field_weights[0][:] = [0.0, 0.1, 0.2, 0.3]
        model.field_weights[1][:] = [0.0, -0.1, -0.2, -0.3, -0.4]
        model.bias = 1.5
        ids = np.array([[3, 4], [0, 0]], dtype=np.int32)
        got = model.logits(ids)
        assert np.allclose(got, [1.5 + 0.3 - 0.4, 1.5], atol=1e-15)

    def test_cross_terms_unseen_combo_is_zero(self):
        model = SparseLrModel([4, 4, 4])
        model.attach_cross((0, 2), [[2, 3]], [0.7])
        ids = np.array([[2, 0, 3], [2, 0, 2]], dtype=np.int32)
        assert model.compile().cross_terms(ids).tolist() == [[0.7], [0.0]]

    def test_active_subset_controls_score(self):
        model = SparseLrModel([4, 4])
        model.attach_cross((0, 1), [[2, 2]], [1.0])
        ids = np.array([[2, 2]], dtype=np.int32)
        assert model.logits(ids, active=[]).tolist() == [0.0]
        assert model.logits(ids, active=[(0, 1)]).tolist() == [1.0]

    def test_duplicate_attach_rejected(self):
        model = SparseLrModel([4, 4])
        model.attach_cross((0, 1), [], [])
        with pytest.raises(ConfigError):
            model.attach_cross((0, 1), [], [])

    def test_bad_cross_tables_rejected(self):
        model = SparseLrModel([4, 4, 4])
        for fields, combos in [((0, 0), [[2, 2]]), ((1, 0), [[2, 2]]), ((0, 3), [[2, 2]]),
                               ((0, 1), [[2, 4]]), ((0, 1), [[2, 2], [2, 2]])]:
            with pytest.raises(ConfigError):
                model.attach_cross(fields, combos, [0.5] * len(combos))
        assert model.cross_fields == []

    def test_out_of_vocabulary_ids_rejected(self):
        model = SparseLrModel([3, 3])
        with pytest.raises(EncodingError):
            model.logits(np.array([[0, 3]], dtype=np.int32))

    def test_unknown_cross_lookup_rejected(self):
        model = SparseLrModel([4, 4])
        with pytest.raises(ConfigError):
            model.cross_index((0, 1))

    def test_column_count_checked(self):
        model = SparseLrModel([3, 3])
        with pytest.raises(ConfigError):
            model.logits(np.zeros((2, 3), dtype=np.int32))


class TestPhase1:
    def test_learns_marginal_signal(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(2, 6, size=(1000, 2)).astype(np.int32)
        y = (ids[:, 0] >= 4).astype(np.int8)
        model = SparseLrModel([6, 6])
        history = train_phase1(
            model, ids[:750], y[:750], ids[750:], y[750:], LrSettings(epochs=20), seed=0
        )
        assert history[-1]["valid_metric"] > 0.99
        assert auc(y[750:], stable_sigmoid(model.logits(ids[750:]))) > 0.99

    def test_xor_is_invisible_to_phase1(self):
        tr_ids, tr_y, va_ids, va_y = make_xor_data(seed=1)
        model = SparseLrModel([6, 6, 6])
        train_phase1(model, tr_ids, tr_y, va_ids, va_y, LrSettings(epochs=15), seed=1)
        assert auc(va_y, stable_sigmoid(model.logits(va_ids))) < 0.6

    def test_single_class_valid_rejected(self):
        ids = np.zeros((20, 2), dtype=np.int32)
        model = SparseLrModel([3, 3])
        with pytest.raises(TrainingError):
            train_phase1(model, ids, np.ones(20), ids[:4], np.ones(4), LrSettings(epochs=1))

    def test_restores_best_epoch(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 4, size=(400, 2)).astype(np.int32)
        y = rng.integers(0, 2, size=400).astype(np.int8)
        model = SparseLrModel([4, 4])
        history = train_phase1(
            model, ids[:300], y[:300], ids[300:], y[300:],
            LrSettings(epochs=10, patience=10), seed=3,
        )
        best = max(h["valid_metric"] for h in history)
        final = auc(y[300:], stable_sigmoid(model.logits(ids[300:])))
        assert final == pytest.approx(best, abs=1e-12)


class TestPhase2:
    def test_cross_feature_solves_xor(self):
        tr_ids, tr_y, va_ids, va_y = make_xor_data(seed=5)
        model = SparseLrModel([6, 6, 6])
        train_phase1(model, tr_ids, tr_y, va_ids, va_y, LrSettings(epochs=15), seed=5)
        before = auc(va_y, stable_sigmoid(model.logits(va_ids)))
        train_phase2(
            model, tr_ids, tr_y, va_ids, va_y, [(0, 1)], LrSettings(epochs=25), seed=5
        )
        after = auc(va_y, stable_sigmoid(model.logits(va_ids)))
        # 5% label noise caps the reachable AUC; 0.9 is far above chance
        assert after > 0.9
        assert after > before + 0.3

    def test_phase1_weights_frozen_bit_for_bit(self):
        tr_ids, tr_y, va_ids, va_y = make_xor_data(seed=7)
        model = SparseLrModel([6, 6, 6])
        train_phase1(model, tr_ids, tr_y, va_ids, va_y, LrSettings(epochs=10), seed=7)
        saved_weights = [w.copy() for w in model.field_weights]
        saved_bias = model.bias
        train_phase2(
            model, tr_ids, tr_y, va_ids, va_y, [(0, 1), (1, 2)], LrSettings(epochs=10), seed=7
        )
        assert model.bias == saved_bias
        for w, s in zip(model.field_weights, saved_weights):
            assert np.array_equal(w, s)

    def test_unseen_validation_combo_contributes_zero(self):
        # train rows only ever show (2,2); a valid row (3,3) must score base-only
        ids_tr = np.tile([[2, 2]], (64, 1)).astype(np.int32)
        ids_tr[::2, 1] = 2
        y_tr = np.array([0, 1] * 32, dtype=np.int8)
        ids_va = np.array([[3, 3], [2, 2], [2, 3]], dtype=np.int32)
        y_va = np.array([0, 1, 0], dtype=np.int8)
        model = SparseLrModel([4, 4])
        train_phase2(model, ids_tr, y_tr, ids_va, y_va, [(0, 1)], LrSettings(epochs=3))
        logits = model.logits(ids_va)
        assert logits[0] == model.bias  # untouched base
        assert logits[2] == model.bias

    def test_duplicate_candidates_rejected(self):
        ids = np.zeros((10, 2), dtype=np.int32)
        y = np.array([0, 1] * 5)
        model = SparseLrModel([3, 3])
        with pytest.raises(ConfigError):
            train_phase2(model, ids, y, ids, y, [(0, 1), (1, 0)], LrSettings(epochs=1))

    def test_candidate_objects_accepted(self):
        from dnn2lr.candidates import CrossFieldCandidate

        tr_ids, tr_y, va_ids, va_y = make_xor_data(seed=9, k=400)
        model = SparseLrModel([6, 6, 6])
        cand = CrossFieldCandidate(fields=(1, 0), count=3)
        train_phase2(model, tr_ids, tr_y, va_ids, va_y, [cand], LrSettings(epochs=5), seed=9)
        assert model.cross_fields == [(0, 1)]



def per_table_fit(weights, codes, valid_codes, base, valid_base, labels, valid_labels,
                  settings, seed, bias):
    """The trainer as one gather and one bincount per table: the flat trainer's oracle."""
    y = np.asarray(labels, dtype=np.float64).ravel()
    y_valid = np.asarray(valid_labels, dtype=np.float64).ravel()

    def step(batch):
        logit = base[batch]
        for w, c in zip(weights, codes):
            logit += w[c[batch]]
        p = stable_sigmoid(logit if bias is None else logit + bias)
        yb = y[batch]
        residual = (p - yb) / batch.size
        for w, c in zip(weights, codes):
            grad = np.bincount(c[batch], weights=residual, minlength=w.size)
            w -= settings.learning_rate * (grad + settings.l2 * w)
        if bias is not None:
            bias[0] -= settings.learning_rate * float(residual.sum())
        return -float(np.sum(yb * np.log(p) + (1.0 - yb) * np.log(1.0 - p)))

    def validate():
        valid_logit = valid_base.copy()
        for w, c in zip(weights, valid_codes):
            valid_logit += np.where(c >= 0, w[c], 0.0)
        valid_logit = valid_logit if bias is None else valid_logit + bias
        valid_auc = auc(y_valid, stable_sigmoid(valid_logit))
        return valid_auc, valid_auc

    params = [*weights] if bias is None else [*weights, bias]
    return fit_with_early_stopping(params, y.size, settings, seed, step, validate)


def per_table_phase1(model, ids, labels, valid, valid_labels, settings, seed):
    bias = np.array([model.bias])
    history = per_table_fit(model.field_weights, list(ids.T), list(valid.T), np.zeros(len(ids)),
                            np.zeros(len(valid)), labels, valid_labels, settings, seed, bias)
    model.bias = float(bias[0])
    return history


def per_table_phase2(model, ids, labels, valid, valid_labels, candidates, settings, seed):
    fields_list = [_normalize_fields(c) for c in candidates]
    uniqs, codes, valid_codes = [], [], []
    for fields in fields_list:
        keys = CrossKeys([fields], model.vocab_sizes)
        uniq, inverse = np.unique(keys.encode(ids)[:, 0], return_inverse=True)
        uniqs.append(uniq)
        codes.append(inverse.ravel())
        valid_codes.append(_find(np.append(uniq, keys.span), keys.encode(valid)[:, 0]))
    weights = [np.zeros(uniq.size) for uniq in uniqs]
    history = per_table_fit(weights, codes, valid_codes, model.logits(ids, active=[]),
                            model.logits(valid, active=[]), labels, valid_labels, settings, seed,
                            None)
    for fields, uniq, w in zip(fields_list, uniqs, weights):
        model.attach_cross(fields, split_keys(uniq, [model.vocab_sizes[f] for f in fields]), w)
    return history


@st.composite
def two_phase_cases(draw):
    """Split ids, labels, candidates of order 2 to 4 and optimizer settings.

    Field 0's largest id may appear only in the validation rows, so every
    cross over field 0 can have no valid combination seen in train.
    """
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=5))
    k, kv = draw(st.integers(2, 40)), draw(st.integers(2, 20))
    ids = np.array([[draw(st.integers(0, v - 1)) for v in sizes] for _ in range(k + kv)])
    if draw(st.booleans()):
        ids[:k, 0] = np.minimum(ids[:k, 0], sizes[0] - 2)
        ids[k:, 0] = sizes[0] - 1
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=k + kv, max_size=k + kv)))
    y[k], y[k + 1] = 0, 1  # the validation AUC needs both classes
    crosses = st.lists(st.integers(0, len(sizes) - 1), min_size=2, max_size=4, unique=True)
    picks = [tuple(sorted(draw(crosses))) for _ in range(draw(st.integers(0, 6)))]
    candidates = list(dict.fromkeys(picks))
    settings = LrSettings(
        learning_rate=draw(st.sampled_from([0.05, 0.5, 2.0])),
        l2=draw(st.sampled_from([0.0, 0.001, 0.3])),
        batch_size=draw(st.integers(1, k + 3)),
        epochs=draw(st.integers(1, 4)),
        patience=draw(st.integers(1, 3)),
    )
    start = [np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, -1.5, 3.0]),
                                    min_size=v, max_size=v))) for v in sizes]
    bias = draw(st.sampled_from([0.0, -0.7, 1.3]))
    return sizes, ids[:k], y[:k], ids[k:], y[k:], candidates, settings, start, bias


@settings(derandomize=True, max_examples=150, deadline=None)
@given(two_phase_cases(), st.integers(0, 3))
def test_flat_trainer_matches_per_table_oracle(case, seed):
    sizes, ids, y, valid, y_valid, candidates, lr, start, bias = case
    models = [SparseLrModel(sizes) for _ in range(2)]
    for model in models:
        model.field_weights = [w.copy() for w in start]
        model.bias = bias
    got = [train_phase1(models[0], ids, y, valid, y_valid, lr, seed),
           train_phase2(models[0], ids, y, valid, y_valid, candidates, lr, seed)]
    want = [per_table_phase1(models[1], ids, y, valid, y_valid, lr, seed),
            per_table_phase2(models[1], ids, y, valid, y_valid, candidates, lr, seed)]
    assert got == want
    new, old = models
    assert new.bias == old.bias
    assert all(map(np.array_equal, new.field_weights, old.field_weights))
    assert new.cross_fields == old.cross_fields
    assert all(map(np.array_equal, new.cross_keys, old.cross_keys))
    assert all(map(np.array_equal, new.cross_weights, old.cross_weights))
