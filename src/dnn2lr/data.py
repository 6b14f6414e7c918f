"""Tabular data handling: schemas, CSV ingestion, splits, and the id vocabulary.

All features are ultimately categorical. Numerical fields get binned elsewhere
(see discretize.py); by the time rows reach the vocabulary every cell is a
string category, with the empty string standing for a missing value.
"""

from __future__ import annotations

import csv
import re
import tokenize
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EncodingError, IngestionError, LabelError

# Reserved feature ids, identical for every field.
MISSING = ""
MISSING_ID = 0
UNSEEN_ID = 1
NUM_RESERVED_IDS = 2

NUMERICAL = "numerical"
CATEGORICAL = "categorical"
FIELD_KINDS = (NUMERICAL, CATEGORICAL)


@dataclass(frozen=True)
class FieldSchema:
    """One input column: a name, its position, and whether it needs binning."""

    name: str
    index: int
    kind: str

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ConfigError(f"field {self.name!r}: unknown kind {self.kind!r}")


def check_schema(fields: list[FieldSchema]) -> None:
    """Validate that field indices are 0..n-1 and names are unique."""
    if not fields:
        raise ConfigError("schema declares no fields")
    names = [f.name for f in fields]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate field names in schema")
    if sorted(f.index for f in fields) != list(range(len(fields))):
        raise ConfigError("field indices must be a permutation of 0..n-1")


@dataclass
class RawTable:
    """Rows of raw string cells plus binary labels, in schema field order."""

    fields: list[FieldSchema]
    rows: list[list[str]]
    labels: list[int]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, index: int) -> list[str]:
        return [row[index] for row in self.rows]


@dataclass
class Dataset:
    """Encoded table: one int id per cell, aligned with a Vocabulary."""

    ids: np.ndarray  # (K, n) int32
    labels: np.ndarray  # (K,) int8, values 0/1

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def text_lines(path, error: type = IngestionError, newline: str | None = None):
    """Yield the lines of a UTF-8 text file; any other bytes raise ``error`` naming the path."""
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            yield from handle
        except UnicodeDecodeError:
            raise error(f"{path}: not UTF-8 text") from None


def load_csv(path, fields: list[FieldSchema], label: str) -> RawTable:
    """Read a CSV file into a RawTable.

    The header must contain every schema field plus the label column; extra
    columns are ignored. Empty cells mean "missing". Labels must be the
    literal strings "0" or "1".
    """
    check_schema(fields)
    ordered = sorted(fields, key=lambda f: f.index)
    reader = csv.reader(text_lines(path, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path}: empty file") from None
    positions = {}
    for name in [f.name for f in ordered] + [label]:
        if name not in header:
            kind = "label" if name == label else "field"
            raise IngestionError(f"{path}: header missing {kind} column {name!r}")
        positions[name] = header.index(name)
    label_pos = positions[label]
    field_pos = [positions[f.name] for f in ordered]
    rows: list[list[str]] = []
    labels: list[int] = []
    for lineno, cells in enumerate(reader, start=2):
        if len(cells) != len(header):
            raise IngestionError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        raw = cells[label_pos].strip()
        if raw not in ("0", "1"):
            raise LabelError(f"{path}: line {lineno}: label must be 0 or 1, got {raw!r}")
        labels.append(int(raw))
        rows.append([cells[p] for p in field_pos])
    return RawTable(fields=list(ordered), rows=rows, labels=labels)


def save_csv(path, table: RawTable, label: str = "y") -> None:
    """Write a RawTable back out, fields in schema order then the label."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in table.fields] + [label])
        for row, y in zip(table.rows, table.labels):
            writer.writerow(list(row) + [y])


def split_table(
    table: RawTable, fractions: tuple[float, float, float], seed: int
) -> tuple[RawTable, RawTable, RawTable]:
    """Shuffle rows once and cut them into train/valid/test parts.

    Fractions must be positive and sum to 1 (within 1e-9). Boundaries are
    round(K * f1) and round(K * (f1 + f2)), so the three parts are disjoint
    and exhaustive by construction.
    """
    f1, f2, f3 = fractions
    if min(f1, f2, f3) <= 0 or abs(f1 + f2 + f3 - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must be positive and sum to 1, got {fractions}")
    k = len(table)
    if k < 3:
        raise IngestionError(f"need at least 3 rows to split, got {k}")
    order = np.random.default_rng(seed).permutation(k)
    i1 = int(round(k * f1))
    i2 = int(round(k * (f1 + f2)))
    i1 = max(1, min(i1, k - 2))
    i2 = max(i1 + 1, min(i2, k - 1))
    parts = (order[:i1], order[i1:i2], order[i2:])
    return tuple(
        RawTable(
            fields=table.fields,
            rows=[table.rows[i] for i in idx],
            labels=[table.labels[i] for i in idx],
        )
        for idx in parts
    )


class Vocabulary:
    """Per-field mapping from raw category string to a dense integer id.

    Ids 0 and 1 are reserved in every field: 0 encodes a missing value and 1
    encodes a value never seen when the vocabulary was built. Learned values
    get ids 2, 3, ... in first-seen order over the building rows, which makes
    construction reproducible for a fixed row order.
    """

    def __init__(self, field_names: list[str]):
        self.field_names = list(field_names)
        self._to_id: list[dict[str, int]] = [{MISSING: MISSING_ID} for _ in field_names]
        self._to_value: list[list[str]] = [[] for _ in field_names]

    @classmethod
    def build(cls, field_names: list[str], rows: list[list[str]]) -> "Vocabulary":
        vocab = cls(field_names)
        n = len(field_names)
        for row in rows:
            for f in range(n):
                if row[f] not in vocab._to_id[f]:
                    vocab.add(f, row[f])
        return vocab

    def add(self, f: int, value: str) -> int:
        """Give a value not yet in field f the next learned id."""
        if value in self._to_id[f]:
            raise EncodingError(f"field {self.field_names[f]!r}: value {value!r} added twice")
        fid = NUM_RESERVED_IDS + len(self._to_value[f])
        self._to_id[f][value] = fid
        self._to_value[f].append(value)
        return fid

    @property
    def n_fields(self) -> int:
        return len(self.field_names)

    def size(self, f: int) -> int:
        """Id-space size for field f, reserved ids included."""
        return NUM_RESERVED_IDS + len(self._to_value[f])

    def sizes(self) -> list[int]:
        return [self.size(f) for f in range(self.n_fields)]

    def encode_value(self, f: int, value: str) -> int:
        return self._to_id[f].get(value, UNSEEN_ID)

    def decode(self, f: int, fid: int) -> str:
        """Inverse of encode_value for real ids; missing decodes to ""."""
        if fid == MISSING_ID:
            return MISSING
        if fid == UNSEEN_ID:
            raise EncodingError(f"field {self.field_names[f]!r}: id 1 has no raw value")
        idx = fid - NUM_RESERVED_IDS
        if not 0 <= idx < len(self._to_value[f]):
            raise EncodingError(f"field {self.field_names[f]!r}: id {fid} out of range")
        return self._to_value[f][idx]

    def encode_rows(self, rows: list[list[str]]) -> np.ndarray:
        flat = (t.get(v, UNSEEN_ID) for row in rows for t, v in zip(self._to_id, row))
        ids = np.fromiter(flat, dtype=np.int32, count=len(rows) * self.n_fields)
        return ids.reshape(len(rows), self.n_fields)

    def encode_table(self, table: RawTable) -> Dataset:
        return Dataset(
            ids=self.encode_rows(table.rows), labels=np.asarray(table.labels, dtype=np.int8)
        )


# Escapes for values stored in tab-separated artifacts. Bin labels are always
# plain, but raw categories can contain anything.
_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"), ("|", "\\|"), (",", "\\,")]
_UNESCAPES = {coded[1]: plain for plain, coded in _ESCAPES}


def escape(value: str) -> str:
    for plain, coded in _ESCAPES:
        value = value.replace(plain, coded)
    return value


def unescape(value: str) -> str:
    """Inverse of escape; a backslash before any other character stays as it is."""
    return re.sub(r"\\(.)", lambda m: _UNESCAPES.get(m.group(1), m.group(0)), value, flags=re.S)


# Every machine-read artifact is one .npz container of named arrays.
def save_arrays(path, **arrays) -> None:
    """Write named arrays into one .npz container; equal arrays give equal bytes."""
    np.savez(path, **arrays)


def load_arrays(path, spec: dict[str, tuple[type, int]]) -> dict[str, np.ndarray]:
    """Read a save_arrays container holding exactly spec's names, as (dtype, ndim).

    Every failure is an IngestionError naming the path.
    """
    try:
        # np.load leaves a file it opened itself open when the container is damaged
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    # zipfile's and numpy's errors, those of a decompressor or of the npy header
    # tokenizer that a damaged byte can call up, and TypeError for a bare .npy
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, RuntimeError, zlib.error,
            tokenize.TokenError, TypeError) as err:
        raise IngestionError(f"{path}: unreadable array container: {err}") from None
    if sorted(arrays) != sorted(spec):
        raise IngestionError(f"{path}: holds arrays {sorted(arrays)}, expected {sorted(spec)}")
    for name, (dtype, ndim) in spec.items():
        if arrays[name].dtype != dtype or arrays[name].ndim != ndim:
            raise IngestionError(f"{path}: array {name!r} is not {ndim}-d {np.dtype(dtype)}")
    return arrays
