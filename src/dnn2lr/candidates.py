"""Candidate cross fields: counting co-occurring high-inconsistency fields.

Each validation sample contributes every subset (order 2 to 4) of its feasible
fields; subsets are counted across samples and the most frequent ones become
the candidate set handed to the logistic phase. This collapses the raw
combinatorial space (choose(n, 2..4)) to a shortlist whose size is ruled by
epsilon, conventionally a small multiple of n.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import text_lines
from .errors import ConfigError, IngestionError

MIN_ORDER = 2
MAX_ORDER = 4
DEFAULT_FIELD_CAP = 20


@dataclass(frozen=True)
class CrossFieldCandidate:
    """An unordered tuple of original field indices plus its sample count."""

    fields: tuple[int, ...]
    count: int

    @property
    def order(self) -> int:
        return len(self.fields)


def candidate_space_size(n_fields: int, order: int) -> int:
    """Number of possible cross fields of one order: choose(n, order)."""
    if order < MIN_ORDER or order > MAX_ORDER:
        raise ConfigError(f"order must be between {MIN_ORDER} and {MAX_ORDER}, got {order}")
    return math.comb(n_fields, order)


def enumerate_candidates(
    feasible: np.ndarray, inconsistency: np.ndarray, field_cap: int = DEFAULT_FIELD_CAP
) -> Counter:
    """Count field subsets of order 2 to 4 over per-sample feasible sets.

    feasible is the (K, n) boolean matrix and inconsistency the D it was taken
    from: a sample with more than ``field_cap`` feasible fields keeps its
    highest-d ones (ties broken toward the lower field index). Samples with
    fewer than two feasible fields contribute nothing.
    """
    feasible, inconsistency = np.asarray(feasible, dtype=bool), np.asarray(inconsistency)
    if feasible.ndim != 2:
        raise ConfigError("feasible matrix must be 2-dimensional")
    if inconsistency.shape != feasible.shape:
        raise ConfigError("inconsistency matrix must match the feasible matrix shape")
    counts: Counter = Counter()
    for k in range(feasible.shape[0]):
        fields = np.flatnonzero(feasible[k])
        if fields.size > field_cap:
            # Stable sort on -d keeps ascending field order among ties.
            keep = np.argsort(-inconsistency[k, fields], kind="stable")[:field_cap]
            fields = np.sort(fields[keep])
        members = [int(f) for f in fields]
        for order in range(MIN_ORDER, min(MAX_ORDER, len(members)) + 1):
            counts.update(combinations(members, order))
    return counts


def top_epsilon(counts: Counter, epsilon: int) -> list[CrossFieldCandidate]:
    """Keep the epsilon most frequent subsets.

    Ordering: higher count first, then lower order, then lexicographic field
    tuple. If fewer than epsilon subsets were ever counted, a warning is
    emitted and the full list is returned.
    """
    if epsilon < 1:
        raise ConfigError(f"epsilon must be at least 1, got {epsilon}")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], len(item[0]), item[0]))
    if len(ranked) < epsilon:
        warnings.warn(
            f"only {len(ranked)} candidate cross fields exist, fewer than epsilon={epsilon}",
            stacklevel=2,
        )
    return [CrossFieldCandidate(fields=f, count=c) for f, c in ranked[:epsilon]]


def save_candidates(path, candidates: list[CrossFieldCandidate]) -> None:
    """One TSV line per candidate: comma-joined field indices, then the count."""
    write_cross_lines(path, [(cand.fields, cand.count) for cand in candidates])


def write_cross_lines(path, rows) -> None:
    """Write (fields, number) pairs as read_cross_lines reads them: ``fields<TAB>repr(number)``."""
    with open(path, "w", encoding="utf-8") as handle:
        for fields, value in rows:
            handle.write(",".join(str(f) for f in fields) + f"\t{value!r}\n")


def read_cross_lines(path, n_fields: int, number=int) -> list[tuple[tuple[int, ...], object]]:
    """The ``fields<TAB>number`` lines of a cross file, as (fields, number(cell)) pairs.

    The fields cell is comma-joined integers naming 2 to 4 distinct fields
    below n_fields. Any other line raises an IngestionError naming the path
    and the line number.
    """
    out = []
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestionError(f"{path}: line {lineno}: expected 2 columns")
        try:
            fields, value = tuple(int(f) for f in parts[0].split(",")), number(parts[1])
        except ValueError:
            raise IngestionError(f"{path}: line {lineno}: unreadable cell") from None
        if not MIN_ORDER <= len(fields) <= MAX_ORDER:
            raise IngestionError(f"{path}: line {lineno}: bad candidate order")
        if len(set(fields)) != len(fields) or not all(0 <= f < n_fields for f in fields):
            raise IngestionError(
                f"{path}: line {lineno}: fields must be distinct and in 0..{n_fields - 1}"
            )
        out.append((fields, value))
    return out


def load_candidates(path, n_fields: int) -> list[CrossFieldCandidate]:
    """Read a candidates file whose crosses must name distinct fields below n_fields."""
    return [CrossFieldCandidate(fields=f, count=c) for f, c in read_cross_lines(path, n_fields)]
