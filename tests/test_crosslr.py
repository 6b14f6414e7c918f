"""Two-phase sparse logistic regression over id lookups."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.crosslr import (
    CrossKeys,
    SparseLrModel,
    split_keys,
    train_phase1,
    train_phase2,
)
from dnn2lr.config import LrSettings
from dnn2lr.errors import ConfigError, EncodingError, TrainingError
from dnn2lr.metrics import auc
from dnn2lr.network import stable_sigmoid


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

    def test_predict_is_sigmoid_of_logits(self):
        model = SparseLrModel([3, 3])
        model.bias = 0.4
        ids = np.array([[0, 0], [1, 2]], dtype=np.int32)
        assert np.allclose(model.predict(ids), stable_sigmoid(model.logits(ids)), atol=0)

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
        assert auc(y[750:], model.predict(ids[750:])) > 0.99

    def test_xor_is_invisible_to_phase1(self):
        tr_ids, tr_y, va_ids, va_y = make_xor_data(seed=1)
        model = SparseLrModel([6, 6, 6])
        train_phase1(model, tr_ids, tr_y, va_ids, va_y, LrSettings(epochs=15), seed=1)
        assert auc(va_y, model.predict(va_ids)) < 0.6

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
        assert auc(y[300:], model.predict(ids[300:])) == pytest.approx(best, abs=1e-12)


class TestPhase2:
    def test_cross_feature_solves_xor(self):
        tr_ids, tr_y, va_ids, va_y = make_xor_data(seed=5)
        model = SparseLrModel([6, 6, 6])
        train_phase1(model, tr_ids, tr_y, va_ids, va_y, LrSettings(epochs=15), seed=5)
        before = auc(va_y, model.predict(va_ids))
        train_phase2(
            model, tr_ids, tr_y, va_ids, va_y, [(0, 1)], LrSettings(epochs=25), seed=5
        )
        after = auc(va_y, model.predict(va_ids))
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

