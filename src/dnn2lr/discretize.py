"""Equal-frequency binning of numerical fields.

A numerical column is turned into categorical bin labels "b0", "b1", ... by
cut points fitted on the training split. The bin index of a value v is the
number of cut points strictly below v, so a value sitting exactly on a cut
falls in the lower bin. Missing values stay missing and become their own
category downstream.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .data import MISSING
from .errors import DiscretizationError, IngestionError, UndefinedMetricError
from .metrics import auc

GRANULARITIES = (10, 100, 1000)


@dataclass(frozen=True)
class BinEdges:
    """Fitted cut points for one field at one granularity."""

    field: int
    granularity: int
    cuts: tuple[float, ...]

    def __post_init__(self):
        cuts = self.cuts
        if any(map(math.isnan, cuts)) or any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise DiscretizationError(f"field {self.field}: cuts must be increasing numbers")

    def n_bins(self) -> int:
        return len(self.cuts) + 1


def parse_number(cell: str, field_name: str = "") -> float:
    """One raw cell as a float; an empty cell is NaN."""
    text = cell.strip()
    if text == MISSING:
        return math.nan
    try:
        return float(text)
    except ValueError:
        label = field_name or "numerical field"
        raise IngestionError(f"{label}: cannot parse {cell!r} as a number") from None


def fit_equal_frequency(values: np.ndarray, granularity: int, field: int = 0) -> BinEdges:
    """Fit up to granularity-1 cut points at the empirical quantiles i/g.

    Duplicate quantiles collapse, so heavily repeated values produce fewer,
    wider bins instead of empty ones. A column with fewer than two distinct
    observed values gets no cuts at all (single bin).
    """
    if granularity < 2:
        raise DiscretizationError(f"granularity must be >= 2, got {granularity}")
    values = np.asarray(values, dtype=np.float64)
    observed = values[~np.isnan(values)]
    if observed.size == 0:
        raise DiscretizationError(f"field {field}: all values missing, cannot bin")
    if np.unique(observed).size < 2:
        return BinEdges(field=field, granularity=granularity, cuts=())
    probs = np.arange(1, granularity) / granularity
    cuts = np.unique(np.quantile(observed, probs))
    return BinEdges(field=field, granularity=granularity, cuts=tuple(float(c) for c in cuts))


def bin_index(edges: BinEdges, values: np.ndarray) -> np.ndarray:
    """Bin index per value: the count of cuts strictly below it. NaN -> -1."""
    values = np.asarray(values, dtype=np.float64)
    cuts = np.asarray(edges.cuts, dtype=np.float64)
    idx = np.searchsorted(cuts, values, side="left").astype(np.int64)
    idx[np.isnan(values)] = -1
    return idx


def bin_of(edges: BinEdges, value: float) -> int:
    """bin_index of one value, without numpy: bisect_left counts the cuts below it.

    ExportedModel.encode bins each distinct cell of a batch with it: whole columns
    through bin_index encode a holdout faster but a single row about three times slower.
    """
    return -1 if math.isnan(value) else bisect.bisect_left(edges.cuts, value)


def bin_labels(edges: BinEdges) -> list[str]:
    """Category label of each bin, in bin-index order."""
    return [f"b{i}" for i in range(edges.n_bins())]


def apply_edges(edges: BinEdges, values: np.ndarray) -> list[str]:
    """Render values as bin labels; NaN renders as the missing marker."""
    labels = bin_labels(edges) + [MISSING]  # bin -1 is the last
    return list(map(labels.__getitem__, bin_index(edges, values).tolist()))


def _single_field_valid_auc(
    train_codes: np.ndarray,
    train_labels: np.ndarray,
    valid_codes: np.ndarray,
    valid_labels: np.ndarray,
    n_codes: int,
) -> float:
    # One weight per bin plus a bias, fitted by full-batch gradient descent.
    # Deterministic on purpose: zero init, fixed step count, no shuffling.
    # A row's probability depends only on its bin, so exp runs once per bin, and
    # with labels 0/1 its residual p - y is cell 2 * bin + y of a (bin, label)
    # table. The sums still run over rows, in row order.
    if not np.isin(train_labels, (0, 1)).all():
        raise DiscretizationError("training labels must be 0 or 1")
    w = np.zeros(n_codes)
    b = 0.0
    cells = 2 * np.asarray(train_codes) + np.asarray(train_labels, dtype=np.intp)
    k = cells.size
    table = np.empty((n_codes, 2))
    for _ in range(300):
        p = 1.0 / (1.0 + np.exp(-(w + b)))
        table[:, 0], table[:, 1] = p, p - 1.0
        residual = table.ravel()[cells]
        grad_w = np.bincount(train_codes, weights=residual, minlength=n_codes) / k
        w -= 0.5 * (grad_w + 1e-6 * w)
        b -= 0.5 * float(residual.mean())
    scores = w[valid_codes] + b
    try:
        return auc(valid_labels, scores)
    except UndefinedMetricError:
        return 0.5


def select_granularity(
    train_values: np.ndarray,
    train_labels: np.ndarray,
    valid_values: np.ndarray,
    valid_labels: np.ndarray,
    field: int = 0,
    candidates: tuple[int, ...] = GRANULARITIES,
) -> tuple[int, BinEdges]:
    """Pick the granularity whose binned single-field model scores best.

    For each candidate g the column is binned, a one-field logistic model is
    fitted on the training split, and validation AUC decides. Labels are 0/1.
    Ties go to the smallest granularity (candidates are scanned in increasing
    order and only a strictly better AUC replaces the incumbent).
    """
    best: tuple[int, BinEdges] | None = None
    best_auc = -np.inf
    for g in sorted(candidates):
        edges = fit_equal_frequency(train_values, g, field=field)
        # Missing values get their own trailing code.
        missing_code = edges.n_bins()
        tr = bin_index(edges, train_values)
        va = bin_index(edges, valid_values)
        tr = np.where(tr < 0, missing_code, tr)
        va = np.where(va < 0, missing_code, va)
        score = _single_field_valid_auc(tr, train_labels, va, valid_labels, missing_code + 1)
        if score > best_auc:
            best = (g, edges)
            best_auc = score
    assert best is not None
    return best
