"""The forward beam search over precomputed logit columns; width 1 is greedy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.crosslr import SparseLrModel
from dnn2lr.errors import ConfigError
from dnn2lr.metrics import auc
from dnn2lr.network import stable_sigmoid
from dnn2lr.search import beam_select, precompute_logit_columns


def sigmoid_ref(z):
    """Two-branch sigmoid; same tie structure as the scorers under test."""
    z = np.asarray(z, dtype=np.float64)
    out = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    return out


def auc_pairwise(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (pos.size * neg.size)


def greedy_oracle(base, columns, labels, max_selected=None):
    """Loop re-derivation: strict improvement, ties to the lower index.

    Scores through a sigmoid like the implementation does: the map is
    monotone but can collapse last-ulp logit differences into ties, so the
    oracle has to rank the same transformed values.
    """
    labels = np.asarray(labels)
    logit = base.copy()
    current = auc_pairwise(labels, sigmoid_ref(logit))
    picked = []
    remaining = list(range(columns.shape[1]))
    while remaining and (max_selected is None or len(picked) < max_selected):
        best_j, best_auc = -1, -np.inf
        for j in remaining:
            score = auc_pairwise(labels, sigmoid_ref(logit + columns[:, j]))
            if score > best_auc:
                best_j, best_auc = j, score
        if best_auc <= current:
            break
        logit = logit + columns[:, best_j]
        current = best_auc
        picked.append(best_j)
        remaining.remove(best_j)
    return picked, current


def random_instance(rng):
    k = int(rng.integers(10, 50))
    n_cand = int(rng.integers(1, 8))
    y = rng.integers(0, 2, size=k)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    base = np.round(rng.normal(0, 0.5, size=k), 1)
    cols = np.round(rng.normal(0, 1, size=(k, n_cand)), 1)
    return base, cols, y


# Hand-checked instance where a width-3 beam strictly beats greedy.
FIXTURE_Y = np.array([1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0])
FIXTURE_COLS = np.array(
    [
        [-0.6, -0.8, 0.7, 1.6],
        [0.3, -1.2, -1.0, 1.6],
        [0.2, -1.7, -0.1, -1.2],
        [-0.6, -0.5, -0.7, 0.6],
        [-0.1, -0.6, 0.4, 0.8],
        [-1.6, -0.3, -1.0, -0.2],
        [-1.3, 0.0, -0.0, -0.3],
        [-1.0, -0.4, -1.1, -1.4],
        [0.2, -1.1, 1.2, 0.7],
        [-2.0, 0.3, -1.1, 0.0],
        [0.0, -2.0, -0.2, -0.3],
        [1.0, -1.2, 0.7, -1.1],
    ]
)


class TestGreedy:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            base, cols, y = random_instance(rng)
            got = beam_select(base, cols, y, width=1)
            picked, final = greedy_oracle(base, cols, y)
            assert got.selected == picked
            assert got.auc == pytest.approx(final, abs=1e-12)

    def test_strict_improvement_stops(self):
        # one useless duplicate of the base signal: never selected
        y = np.array([1, 1, 0, 0])
        base = np.array([2.0, 1.0, -1.0, -2.0])
        cols = np.zeros((4, 1))
        res = beam_select(base, cols, y, width=1)
        assert res.selected == []
        assert res.auc == res.base_auc == 1.0

    def test_tie_takes_lower_index(self):
        y = np.array([1, 0, 1, 0])
        base = np.zeros(4)
        col = np.array([1.0, -1.0, 1.0, -1.0])
        cols = np.column_stack([col, col])
        res = beam_select(base, cols, y, width=1)
        assert res.selected == [0]

    def test_max_selected_honored(self):
        rng = np.random.default_rng(1)
        base, cols, y = random_instance(rng)
        res = beam_select(base, cols, y, width=1, max_selected=1)
        assert len(res.selected) <= 1

    def test_threads_do_not_change_answer(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            base, cols, y = random_instance(rng)
            a = beam_select(base, cols, y, width=1, threads=1)
            b = beam_select(base, cols, y, width=1, threads=4)
            assert a.selected == b.selected
            assert a.auc == b.auc

    def test_steps_record_trajectory(self):
        res = beam_select(np.zeros(12), FIXTURE_COLS, FIXTURE_Y, width=1)
        assert [s.candidate for s in res.steps] == res.selected
        assert res.steps[-1].auc == res.auc

    def test_bad_threads(self):
        with pytest.raises(ConfigError):
            beam_select(np.zeros(2), np.zeros((2, 1)), np.array([0, 1]), threads=0)


class TestBeam:
    def test_wider_beam_never_worse(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            base, cols, y = random_instance(rng)
            g = beam_select(base, cols, y, width=1)
            b = beam_select(base, cols, y, width=3)
            assert b.auc >= g.auc - 1e-15

    def test_beam_beats_greedy_on_fixture(self):
        base = np.zeros(12)
        g = beam_select(base, FIXTURE_COLS, FIXTURE_Y, width=1)
        b = beam_select(base, FIXTURE_COLS, FIXTURE_Y, width=3)
        assert g.selected == [3]
        assert g.auc == pytest.approx(0.8194444444444444, abs=1e-15)
        assert b.selected == [2, 3, 1]
        assert b.auc == pytest.approx(0.8611111111111112, abs=1e-15)

    def test_steps_replay_path(self):
        b = beam_select(np.zeros(12), FIXTURE_COLS, FIXTURE_Y, width=3)
        assert [s.candidate for s in b.steps] == b.selected
        assert b.steps[-1].auc == pytest.approx(b.auc, abs=1e-15)
        # step AUCs strictly increase along the winning path
        seq = [b.base_auc] + [s.auc for s in b.steps]
        assert all(a < c for a, c in zip(seq, seq[1:]))

    def test_bad_width(self):
        with pytest.raises(ConfigError):
            beam_select(np.zeros(2), np.zeros((2, 1)), np.array([0, 1]), width=0)


@st.composite
def search_instances(draw):
    """K <= 40 rows and C <= 7 columns of 1-decimal values (so AUC ties occur)."""
    k = draw(st.integers(2, 40))
    n_cand = draw(st.integers(1, 7))
    tenths = st.integers(-15, 15).map(lambda v: v / 10)
    base = np.array(draw(st.lists(tenths, min_size=k, max_size=k)))
    cols = np.array(draw(st.lists(tenths, min_size=k * n_cand, max_size=k * n_cand)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    if y.min() == y.max():
        y[0] = 1 - y[0]  # both classes
    max_selected = draw(st.none() | st.integers(0, n_cand))
    return base, cols.reshape(k, n_cand), y, max_selected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(search_instances())
def test_search_properties(instance):
    base, cols, y, max_selected = instance
    greedy = beam_select(base, cols, y, width=1, max_selected=max_selected)
    picked, final = greedy_oracle(base, cols, y, max_selected)
    assert greedy.selected == picked
    assert greedy.auc == pytest.approx(final, abs=1e-12)
    for width in (1, 2, 3):
        res = beam_select(base, cols, y, width=width, max_selected=max_selected)
        assert res.selected == [s.candidate for s in res.steps]
        assert len(res.steps) <= (cols.shape[1] if max_selected is None else max_selected)
        # every step's AUC is the score of base plus the path's columns in order
        assert res.base_auc == auc(y, stable_sigmoid(base))
        logit, previous = base.copy(), res.base_auc
        for step in res.steps:
            logit = logit + cols[:, step.candidate]
            assert step.auc == auc(y, stable_sigmoid(logit))
            assert step.auc > previous
            previous = step.auc
        assert res.auc == previous
        assert beam_select(base, cols, y, width=width, max_selected=max_selected, threads=2) == res


class TestPrecompute:
    def test_columns_match_model_scores(self):
        model = SparseLrModel([5, 5, 5])
        model.field_weights[0][:] = np.linspace(-1, 1, 5)
        model.bias = 0.25
        model.attach_cross((0, 1), [[2, 2], [3, 4]], [0.5, -0.5])
        model.attach_cross((1, 2), [[4, 4]], [1.0])
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 5, size=(40, 3)).astype(np.int32)
        base, cols = precompute_logit_columns(model, ids)
        assert cols.shape == (40, 2)
        assert np.allclose(base + cols.sum(axis=1), model.logits(ids), atol=1e-15)
        assert np.allclose(base, model.logits(ids, active=[]), atol=1e-15)

    def test_no_cross_fields_gives_empty_block(self):
        model = SparseLrModel([4, 4])
        ids = np.zeros((7, 2), dtype=np.int32)
        base, cols = precompute_logit_columns(model, ids)
        assert cols.shape == (7, 0)
        assert np.allclose(base, model.bias)
