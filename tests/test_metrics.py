"""AUC and KS against brute-force oracles and hand-computed cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.errors import UndefinedMetricError
from dnn2lr.metrics import auc, ks


def auc_pairwise(labels, scores):
    """O(K^2) definition: P(random positive outranks random negative)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def ks_exhaustive(labels, scores):
    """Max CDF gap checked at every distinct score."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    best = 0.0
    for t in np.unique(scores):
        gap = abs(np.mean(pos <= t) - np.mean(neg <= t))
        best = max(best, float(gap))
    return best


class TestHandCases:
    def test_perfect_ranking(self):
        assert auc([1, 1, 0, 0], [4.0, 3.0, 2.0, 1.0]) == 1.0
        assert ks([1, 1, 0, 0], [4.0, 3.0, 2.0, 1.0]) == 1.0

    def test_inverted_ranking(self):
        assert auc([0, 0, 1, 1], [4.0, 3.0, 2.0, 1.0]) == 0.0

    def test_three_quarters(self):
        # pairs: (.9,.8)+ (.9,.1)+ (.7,.8)- (.7,.1)+  ->  3/4
        assert auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == 0.75
        assert ks([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == 0.5

    def test_constant_scores(self):
        y = [1, 0, 1, 0, 1]
        s = [0.3] * 5
        assert auc(y, s) == 0.5
        assert ks(y, s) == 0.0

    def test_all_ties_half_credit(self):
        assert auc([1, 0], [2.0, 2.0]) == 0.5


class TestContracts:
    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            auc([1, 1, 1], [0.1, 0.2, 0.3])
        with pytest.raises(UndefinedMetricError):
            ks([0, 0], [0.1, 0.2])

    def test_empty_raises(self):
        with pytest.raises(UndefinedMetricError):
            auc([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            auc([1, 0], [0.5])

    def test_non_binary_labels(self):
        with pytest.raises(ValueError):
            auc([1, 2, 0], [0.1, 0.2, 0.3])


@st.composite
def labelled_one_decimal_scores(draw):
    """Labels holding both classes, and scores on a 0.1 grid so that ties are common."""
    k = draw(st.integers(2, 60))
    labels = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k).filter(
        lambda y: 0 < sum(y) < len(y)))
    scores = draw(st.lists(st.integers(-15, 15).map(lambda v: v / 10), min_size=k, max_size=k))
    return np.array(labels), np.array(scores)


class TestProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(labelled_one_decimal_scores())
    def test_auc_matches_pair_count(self, case):
        labels, scores = case
        assert abs(auc(labels, scores) - auc_pairwise(labels, scores)) <= 1e-12

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(labelled_one_decimal_scores())
    def test_ks_matches_threshold_scan(self, case):
        labels, scores = case
        assert abs(ks(labels, scores) - ks_exhaustive(labels, scores)) <= 1e-12

    def test_matches_oracles_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            k = int(rng.integers(2, 120))
            y = rng.integers(0, 2, size=k)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # quantized scores force tie blocks
            s = np.round(rng.normal(0, 1, size=k), 1)
            assert abs(auc(y, s) - auc_pairwise(y, s)) <= 1e-12
            assert abs(ks(y, s) - ks_exhaustive(y, s)) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=80)
        y[0], y[1] = 0, 1
        s = rng.normal(0, 2, size=80)
        assert auc(y, s) == pytest.approx(auc(y, np.exp(s)), abs=1e-12)
        assert ks(y, s) == pytest.approx(ks(y, 3.0 * s + 7.0), abs=1e-12)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, size=60)
        y[0], y[1] = 0, 1
        s = rng.normal(size=60)
        assert auc(1 - y, s) == pytest.approx(1.0 - auc(y, s), abs=1e-12)
        assert ks(1 - y, s) == pytest.approx(ks(y, s), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(2, 60))
            y = rng.integers(0, 2, size=k)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = np.round(rng.normal(size=k), 2)
            a = auc(y, s)
            d = ks(y, s)
            assert 0.0 <= a <= 1.0
            assert 0.0 <= d <= 1.0
