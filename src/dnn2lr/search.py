"""Validation-driven forward selection of cross features.

Because the model is a flat sum of lookups, every candidate's contribution to
every validation sample can be materialized once as a logit column. Scoring a
candidate set is then just adding columns, which makes greedy selection (and
its beam generalization) cheap: no refitting inside the loop.

Greedy follows the classic recipe: start from the plain scorecard, repeatedly
add the candidate with the best resulting validation AUC, stop as soon as the
best candidate no longer strictly improves. Beam search keeps the best
``width`` sets per step instead of one and returns the best set ever seen.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .crosslr import SparseLrModel
from .errors import ConfigError
from .metrics import auc
from .network import stable_sigmoid


@dataclass
class SearchStep:
    """One accepted greedy step: which column, and the AUC after adding it."""

    candidate: int
    auc: float


@dataclass
class SearchResult:
    """Outcome of a selection run over candidate logit columns."""

    selected: list[int]  # candidate indices in selection order
    auc: float  # validation AUC of the final set
    base_auc: float  # validation AUC with no cross features
    steps: list[SearchStep] = field(default_factory=list)


def precompute_logit_columns(
    model: SparseLrModel, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Base logit (originals plus bias) and one column per attached cross field.

    Returns (base, columns) with columns shaped (K, n_candidates); a candidate
    whose combinations never appear in ``ids`` yields an all-zero column.
    """
    return model.logits(ids, active=[]), model.compile().cross_terms(np.asarray(ids))


def _scored_auc(labels: np.ndarray, logits: np.ndarray) -> float:
    return auc(labels, stable_sigmoid(logits))


def _candidate_aucs(
    labels: np.ndarray,
    logit: np.ndarray,
    columns: np.ndarray,
    pool: ThreadPoolExecutor | None,
    todo: list[int],
) -> list[float]:
    if pool is None:
        return [_scored_auc(labels, logit + columns[:, j]) for j in todo]
    return list(pool.map(lambda j: _scored_auc(labels, logit + columns[:, j]), todo))


def greedy_select(
    base: np.ndarray,
    columns: np.ndarray,
    labels: np.ndarray,
    max_selected: int | None = None,
    threads: int = 1,
) -> SearchResult:
    """Forward selection with strict-improvement stopping.

    Ties between candidates go to the lower index. The running logit is
    updated incrementally (base plus accepted columns in selection order), so
    the final scores equal a from-scratch predict over the same ordered set.
    """
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n_cand = columns.shape[1]
    limit = n_cand if max_selected is None else min(max_selected, n_cand)
    logit = base.astype(np.float64, copy=True)
    current = _scored_auc(labels, logit)
    result = SearchResult(selected=[], auc=current, base_auc=current)
    remaining = list(range(n_cand))
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        while remaining and len(result.selected) < limit:
            scores = _candidate_aucs(labels, logit, columns, pool, remaining)
            best_j = -1
            best_auc = -np.inf
            for j, score in zip(remaining, scores):
                if score > best_auc:  # strict: ties keep the earlier (lower) index
                    best_auc = score
                    best_j = j
            if best_auc <= current:
                break
            logit += columns[:, best_j]
            current = best_auc
            remaining.remove(best_j)
            result.selected.append(best_j)
            result.steps.append(SearchStep(candidate=best_j, auc=best_auc))
        result.auc = current
        return result
    finally:
        if pool is not None:
            pool.shutdown()


@dataclass
class _BeamState:
    path: tuple[int, ...]
    logit: np.ndarray
    auc: float

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.path))


def beam_select(
    base: np.ndarray,
    columns: np.ndarray,
    labels: np.ndarray,
    width: int = 3,
    max_selected: int | None = None,
    threads: int = 1,
) -> SearchResult:
    """Beam-search generalization of greedy_select.

    Each step expands every kept set by one candidate, requires a strict AUC
    improvement over the parent, deduplicates sets that differ only in order,
    and keeps the ``width`` best children. The answer is the best set ever
    seen. Ranking ties prefer smaller sets, then lexicographically smaller
    sorted index tuples; width=1 reproduces greedy_select exactly.
    """
    if width < 1:
        raise ConfigError("beam width must be at least 1")
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    labels = np.asarray(labels, dtype=np.float64).ravel()
    n_cand = columns.shape[1]
    limit = n_cand if max_selected is None else min(max_selected, n_cand)
    base_logit = base.astype(np.float64, copy=True)
    base_auc = _scored_auc(labels, base_logit)
    start = _BeamState(path=(), logit=base_logit, auc=base_auc)
    frontier = [start]
    best = start
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for _ in range(limit):
            children: dict[tuple[int, ...], _BeamState] = {}
            for state in frontier:
                todo = [j for j in range(n_cand) if j not in state.path]
                scores = _candidate_aucs(labels, state.logit, columns, pool, todo)
                for j, score in zip(todo, scores):
                    if score <= state.auc:
                        continue  # a child must strictly beat its parent
                    key = tuple(sorted((*state.path, j)))
                    if key in children:
                        continue  # same set reached in a different order
                    children[key] = _BeamState(
                        path=(*state.path, j), logit=state.logit + columns[:, j], auc=score
                    )
            if not children:
                break
            ranked = sorted(children.values(), key=lambda s: (-s.auc, s.key()))
            frontier = ranked[:width]
            for state in frontier:
                if (state.auc, -len(state.path)) > (best.auc, -len(best.path)) or (
                    state.auc == best.auc
                    and len(state.path) == len(best.path)
                    and state.key() < best.key()
                ):
                    best = state
        # Replay the winning path so the step log carries real AUC values.
        steps = []
        replay = base_logit.copy()
        for j in best.path:
            replay += columns[:, j]
            steps.append(SearchStep(candidate=j, auc=_scored_auc(labels, replay)))
        return SearchResult(
            selected=list(best.path), auc=best.auc, base_auc=base_auc, steps=steps
        )
    finally:
        if pool is not None:
            pool.shutdown()
