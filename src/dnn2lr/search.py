"""Validation-driven forward selection of cross features: one beam search.

Because the model is a flat sum of lookups, every candidate's contribution to
every validation sample can be materialized once as a logit column. Scoring a
candidate set is then just adding columns, so the search needs no refitting
inside its loop.

There is one search, beam_select. Each step grows every kept set by one
candidate that strictly improves its validation AUC and keeps the ``width``
best sets; the answer is the best set ever seen. At width 1 this is the
classic greedy recipe: start from the plain scorecard, add the candidate with
the best resulting AUC, stop as soon as no candidate strictly improves it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .crosslr import SparseLrModel
from .errors import ConfigError
from .metrics import auc
from .network import stable_sigmoid

_PRECOMPUTE_ROWS = 1024  # rows of cross terms computed at once


@dataclass
class SearchStep:
    """One accepted step: which column, and the AUC after adding it."""

    candidate: int
    auc: float


@dataclass
class SearchResult:
    """Outcome of a selection run over candidate logit columns."""

    auc: float  # validation AUC of the final set
    base_auc: float  # validation AUC with no cross features
    steps: list[SearchStep] = field(default_factory=list)

    @property
    def selected(self) -> list[int]:
        """Candidate indices in selection order."""
        return [step.candidate for step in self.steps]


def precompute_logit_columns(
    model: SparseLrModel, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Base logit (originals plus bias) and one column per attached cross field.

    Returns (base, columns) with columns shaped (K, n_candidates); a candidate
    whose combinations never appear in ``ids`` yields an all-zero column. The
    columns are stored column-major, so each candidate's K values lie
    contiguous (beam_select reads them as rows of ``columns.T``), and are
    filled ``_PRECOMPUTE_ROWS`` rows at a time, so the cross-key temporaries
    stay bounded however many rows there are.
    """
    base = model.logits(ids, active=[])
    ids, scorer = np.asarray(ids), model.compile()
    columns = np.empty((len(ids), len(model.cross_fields)), order="F")
    for start in range(0, len(ids), _PRECOMPUTE_ROWS):
        rows = slice(start, start + _PRECOMPUTE_ROWS)
        columns[rows] = scorer.cross_terms(ids[rows])
    return base, columns


def _scored_auc(labels: np.ndarray, logits: np.ndarray) -> float:
    return auc(labels, stable_sigmoid(logits))


def _candidate_aucs(
    labels: np.ndarray,
    logit: np.ndarray,
    rows: np.ndarray,
    pool: ThreadPoolExecutor | None,
    todo: list[int],
) -> list[float]:
    if pool is None:
        return [_scored_auc(labels, logit + rows[j]) for j in todo]
    return list(pool.map(lambda j: _scored_auc(labels, logit + rows[j]), todo))


@dataclass
class _BeamState:
    steps: tuple[SearchStep, ...]
    logit: np.ndarray  # base plus the steps' columns, added in step order
    auc: float


def beam_select(
    base: np.ndarray,
    columns: np.ndarray,
    labels: np.ndarray,
    width: int = 1,
    max_selected: int | None = None,
    threads: int = 1,
) -> SearchResult:
    """Forward beam search with strict-improvement stopping.

    Each step expands every kept set by one candidate, requires a strict AUC
    improvement over the parent, deduplicates sets that differ only in order,
    and keeps the ``width`` best children: higher AUC first, then the
    smaller sorted index tuple. The answer is the best set ever seen, the
    smaller one on equal AUC. At width 1 ties go to the lower candidate
    index, which is greedy forward selection. A step's AUC is the score of
    base plus the path's columns, added in step order.
    """
    if width < 1:
        raise ConfigError("beam width must be at least 1")
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    labels = np.asarray(labels, dtype=np.float64).ravel()
    rows = np.ascontiguousarray(columns.T)  # a view for precompute_logit_columns' layout
    n_cand = rows.shape[0]
    limit = n_cand if max_selected is None else min(max_selected, n_cand)
    base_logit = base.astype(np.float64, copy=True)
    base_auc = _scored_auc(labels, base_logit)
    frontier = [_BeamState(steps=(), logit=base_logit, auc=base_auc)]
    best = frontier[0]
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for _ in range(limit):
            # sorted index tuple -> (parent, candidate, AUC); the first path to a set wins
            children: dict[tuple[int, ...], tuple[_BeamState, int, float]] = {}
            for state in frontier:
                path = [s.candidate for s in state.steps]
                todo = [j for j in range(n_cand) if j not in path]
                scores = _candidate_aucs(labels, state.logit, rows, pool, todo)
                for j, score in zip(todo, scores):
                    if score > state.auc:  # a child must strictly beat its parent
                        children.setdefault(tuple(sorted((*path, j))), (state, j, score))
            if not children:
                break
            kept = sorted(children.items(), key=lambda item: (-item[1][2], item[0]))[:width]
            frontier = [
                _BeamState(
                    steps=(*parent.steps, SearchStep(candidate=j, auc=score)),
                    logit=parent.logit + rows[j],
                    auc=score,
                )
                for _, (parent, j, score) in kept
            ]
            if frontier[0].auc > best.auc:  # best is shorter than every new set
                best = frontier[0]
        return SearchResult(auc=best.auc, base_auc=base_auc, steps=list(best.steps))
    finally:
        if pool is not None:
            pool.shutdown()
