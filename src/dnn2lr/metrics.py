"""Ranking metrics for binary classifiers: AUC and the KS statistic.

Both are functions of the score ordering only. AUC uses the rank-sum
formulation with average ranks for ties, which equals the probability that a
random positive outranks a random negative (ties count one half). KS is the
largest gap between the cumulative score distributions of the two classes,
evaluated at the distinct score boundaries.

Both read the sorted scores one block of tied scores at a time, so any sort
gives the same bits and one unstable sort suffices. Every member of a block
gets the block's mean rank, so the order inside a block cannot matter. The AUC
rank sum adds (block mean rank x positives in the block): multiples of one
half below 2**53, exact in any order. KS reads its cumulative class counts
only at block ends, where they are exact integers. NaN is the one exception:
it sorts last, but every NaN is a block of its own, so the answer depends on
the order among NaNs; a score vector holding NaN is sorted again stably,
which is the order these metrics have always used.
"""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError


def _check_inputs(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels, dtype=np.float64).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.shape != s.shape:
        raise ValueError(f"labels and scores disagree in length: {y.size} vs {s.size}")
    if y.size == 0:
        raise UndefinedMetricError("no samples")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.size:
        raise UndefinedMetricError("metric undefined: only one class present")
    return y, s


def _tie_blocks(y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of tied scores in ascending order: start, end (exclusive), positives."""
    order = np.argsort(s)
    if np.isnan(s[order[-1]]):  # NaN sorts last; each one is its own block
        order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    new_block = np.empty(s.size, dtype=bool)
    new_block[0] = True
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=new_block[1:])
    starts = np.flatnonzero(new_block)
    ends = np.append(starts[1:], s.size)
    return starts, ends, np.add.reduceat(y[order], starts)


def auc(labels, scores) -> float:
    """Area under the ROC curve via the rank-sum identity, O(K log K)."""
    y, s = _check_inputs(labels, scores)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    starts, ends, positives = _tie_blocks(y, s)
    # Mean of the integer ranks start+1 .. end is (start + end + 1) / 2.
    rank_sum = ((starts + ends + 1) / 2.0 * positives).sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def ks(labels, scores) -> float:
    """Kolmogorov-Smirnov separation: max |F_pos(t) - F_neg(t)| over thresholds."""
    y, s = _check_inputs(labels, scores)
    n_pos = y.sum()
    n_neg = y.size - n_pos
    # Within a tie block the empirical CDFs jump together at the block end.
    _, ends, positives = _tie_blocks(y, s)
    cum_pos = np.cumsum(positives)
    return float(np.abs(cum_pos / n_pos - (ends - cum_pos) / n_neg).max())
