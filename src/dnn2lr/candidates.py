"""Candidate cross fields: counting co-occurring high-inconsistency fields.

Each validation sample contributes every subset (order 2 to 4) of its feasible
fields; subsets are counted across samples and the most frequent ones become
the candidate set handed to the logistic phase. This collapses the raw
combinatorial space (choose(n, 2..4)) to a shortlist whose size is ruled by
epsilon, conventionally a small multiple of n.

Subsets are counted as int64 keys, never as Python tuples. A subset of order
r over n fields reads its fields as radix-n digits, first field most
significant, plus the number of keys of lower orders (0 for pairs, n**2 for
triples, n**2 + n**3 for quadruples); so key order is (order, fields) order,
the order in which top_epsilon breaks count ties. Rows are grouped by their
number s of kept fields, and one ``combinations(range(s), r)`` position
array forms every subset of a group. Each order is counted in chunks: ranges
of first fields holding about ``_CHUNK_CODES`` subsets each, counted with
``np.unique``. The chunks are disjoint ascending key ranges, so their counts
laid end to end are the sorted result, with no merge, and memory stays near
the size of the result however many subsets the rows yield.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .data import text_lines
from .errors import ConfigError, IngestionError

MIN_ORDER = 2
MAX_ORDER = 4
DEFAULT_FIELD_CAP = 20
_CHUNK_CODES = 1 << 20  # subset keys formed and counted at once


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


def _key_bases(n_fields: int) -> list[int]:
    """Key of the first subset of each order 2..4, then the end of the key space."""
    bases = [0, *accumulate(n_fields**r for r in range(MIN_ORDER, MAX_ORDER + 1))]
    if bases[-1] > np.iinfo(np.int64).max:
        raise ConfigError(f"{n_fields} fields are too many to key subsets as int64")
    return bases


class SubsetCounts(Mapping):
    """Read-only counts of field subsets: field tuple -> number of samples.

    ``keys`` holds the subsets' int64 keys (see the module docstring) in
    ascending order and ``counts`` their counts. It equals a Counter of the
    same tuples; ``values()`` lists the counts in key order.
    """

    def __init__(self, n_fields: int, keys: np.ndarray, counts: np.ndarray):
        self.n_fields, self.bases = n_fields, _key_bases(n_fields)
        self.keys, self.counts = keys, counts

    @classmethod
    def of(cls, counts: Mapping) -> "SubsetCounts":
        """The same counts from any mapping of 2- to 4-tuples of field indices."""
        if isinstance(counts, SubsetCounts):
            return counts
        if any(not MIN_ORDER <= len(f) <= MAX_ORDER or min(f) < 0 for f in counts):
            raise ConfigError(f"counts must be keyed by {MIN_ORDER} to {MAX_ORDER} field indices")
        n_fields = 1 + max((max(f) for f in counts), default=0)
        bases = _key_bases(n_fields)
        keys = np.array([_key(bases, n_fields, f) for f in counts], dtype=np.int64)
        order = np.argsort(keys)
        return cls(n_fields, keys[order], np.array(list(counts.values()), dtype=np.int64)[order])

    def decode(self, keys: np.ndarray) -> list[tuple[int, ...]]:
        """Field tuple of each key, in the order given."""
        order = np.searchsorted(self.bases, keys, side="right") - 1 + MIN_ORDER
        rest = keys - np.asarray(self.bases, dtype=np.int64)[order - MIN_ORDER]
        digits = np.empty((keys.size, MAX_ORDER), dtype=np.int64)
        for m in reversed(range(MAX_ORDER)):
            rest, digits[:, m] = np.divmod(rest, self.n_fields)
        return [tuple(d[MAX_ORDER - r:]) for d, r in zip(digits.tolist(), order.tolist())]

    def __len__(self) -> int:
        return self.keys.size

    def __iter__(self):
        return iter(self.decode(self.keys))

    def __getitem__(self, fields):
        valid = isinstance(fields, tuple) and MIN_ORDER <= len(fields) <= MAX_ORDER
        if valid and all(0 <= f < self.n_fields for f in fields):
            key = _key(self.bases, self.n_fields, fields)
            at = int(np.searchsorted(self.keys, key))
            if at < self.keys.size and self.keys[at] == key:
                return int(self.counts[at])
        raise KeyError(fields)

    def values(self) -> list[int]:
        return self.counts.tolist()


def _key(bases: list[int], n_fields: int, fields: tuple[int, ...]) -> int:
    key = 0
    for f in fields:
        key = key * n_fields + int(f)
    return bases[len(fields) - MIN_ORDER] + key


def _chunks(per_field: np.ndarray) -> list[tuple[int, int]]:
    """Ranges [lo, hi) of first fields of at most _CHUNK_CODES subsets, or of one field."""
    bounds, held = [0], 0
    for f, count in enumerate(per_field.tolist()):
        if held and held + count > _CHUNK_CODES:
            bounds.append(f)
            held = 0
        held += count
    return list(zip(bounds, [*bounds[1:], per_field.size]))


def _subset_codes(fields: np.ndarray, combos: np.ndarray, lo: int, hi: int, n: int) -> np.ndarray:
    """Radix-n codes of the subsets of each row of ``fields`` whose first field is in [lo, hi).

    ``combos`` holds the position tuples, one column each, in lexicographic
    order, so a row's subsets with their first field in range are one
    contiguous run of columns.
    """
    size = fields.shape[1]
    first = np.searchsorted(combos[0], np.arange(size + 1))
    start, stop = first[(fields < lo).sum(axis=1)], first[(fields < hi).sum(axis=1)]
    lengths = stop - start
    row_at = np.repeat(np.arange(0, fields.size, size), lengths)
    combo = np.arange(lengths.sum()) + np.repeat(start - np.cumsum(lengths) + lengths, lengths)
    flat = fields.ravel()
    codes = flat[row_at + combos[0][combo]]
    for positions in combos[1:]:
        codes *= n
        codes += flat[row_at + positions[combo]]
    return codes


def enumerate_candidates(
    feasible: np.ndarray, inconsistency: np.ndarray, field_cap: int = DEFAULT_FIELD_CAP
) -> SubsetCounts:
    """Count field subsets of order 2 to 4 over per-sample feasible sets.

    feasible is the (K, n) boolean matrix and inconsistency the D it was taken
    from: a sample with more than ``field_cap`` feasible fields keeps its
    highest-d ones (ties broken toward the lower field index). Samples with
    fewer than two feasible fields contribute nothing. The result equals a
    Counter of ascending field tuples.
    """
    feasible, inconsistency = np.asarray(feasible, dtype=bool), np.asarray(inconsistency)
    if feasible.ndim != 2:
        raise ConfigError("feasible matrix must be 2-dimensional")
    if inconsistency.shape != feasible.shape:
        raise ConfigError("inconsistency matrix must match the feasible matrix shape")
    if field_cap < 0:
        raise ConfigError(f"field cap must be non-negative, got {field_cap}")
    n = feasible.shape[1]
    bases = _key_bases(n)
    kept = feasible.copy()
    over = np.flatnonzero(feasible.sum(axis=1) > field_cap)
    if over.size:
        # Feasible fields first, then higher d, ties toward the lower field index.
        rank = np.lexsort((-inconsistency[over], ~feasible[over]))[:, :field_cap]
        capped = np.zeros((over.size, n), dtype=bool)
        np.put_along_axis(capped, rank, True, axis=1)
        kept[over] = capped
    sizes = kept.sum(axis=1)
    groups = [  # the kept fields of the rows with s of them, ascending in each row
        np.nonzero(kept[sizes == s])[1].reshape(-1, s)
        for s in np.unique(sizes[sizes >= MIN_ORDER]).tolist()
    ]
    keys, counts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for order in range(MIN_ORDER, MAX_ORDER + 1):
        tables = [
            (fields, np.array(list(combinations(range(fields.shape[1]), order))).T.copy())
            for fields in groups
            if fields.shape[1] >= order
        ]
        # Subsets per first field: a row's field at position i leads comb(s - 1 - i, order - 1).
        per_field = np.zeros(n, dtype=np.int64)
        for fields, _ in tables:
            s = fields.shape[1]
            for i in range(s - order + 1):
                leads = math.comb(s - 1 - i, order - 1)
                per_field += np.bincount(fields[:, i], minlength=n) * leads
        for lo, hi in _chunks(per_field) if tables else ():
            codes = np.concatenate([_subset_codes(f, c, lo, hi, n) for f, c in tables])
            chunk_keys, chunk_counts = np.unique(codes, return_counts=True)
            keys.append(chunk_keys + bases[order - MIN_ORDER])
            counts.append(chunk_counts)
    keys = np.concatenate(keys)  # each list goes as soon as its array exists
    counts = np.concatenate(counts)
    return SubsetCounts(n, keys, counts)


def top_epsilon(counts: Mapping, epsilon: int) -> list[CrossFieldCandidate]:
    """Keep the epsilon most frequent subsets of ``counts`` (field tuple -> count).

    Ordering: higher count first, then lower order, then lexicographic field
    tuple. If fewer than epsilon subsets were ever counted, a warning is
    emitted and the full list is returned. Only the subsets counted at least
    as often as the epsilon-th largest count are ranked: a stable sort on
    descending count over keys already in (order, fields) order.
    """
    if epsilon < 1:
        raise ConfigError(f"epsilon must be at least 1, got {epsilon}")
    counts = SubsetCounts.of(counts)
    total = len(counts)
    if total < epsilon:
        warnings.warn(
            f"only {total} candidate cross fields exist, fewer than epsilon={epsilon}",
            stacklevel=2,
        )
    pick = np.arange(total)
    if total > epsilon:
        cut = np.partition(counts.counts, total - epsilon)[total - epsilon]  # epsilon-th largest
        pick = np.flatnonzero(counts.counts >= cut)
    pick = pick[np.argsort(-counts.counts[pick], kind="stable")][:epsilon]
    ranked = zip(counts.decode(counts.keys[pick]), counts.counts[pick].tolist())
    return [CrossFieldCandidate(fields=f, count=c) for f, c in ranked]


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
