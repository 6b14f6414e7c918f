"""Tabular data handling: schemas, CSV ingestion, splits, and the id vocabulary.

All features are ultimately categorical. Numerical fields get binned elsewhere
(see discretize.py); by the time rows reach the vocabulary every cell is a
string category, with the empty string standing for a missing value.

One checked parser, ``csv_records``, reads every CSV. ``load_csv`` collects
its rows as strings; ``code_records`` turns them into codes one block of
rows at a time, so set-up never holds the raw table as Python strings.
"""

from __future__ import annotations

import csv
import re
import tokenize
import zipfile
import zlib
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, islice, repeat
from operator import itemgetter

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
    lines: Sequence[int] = ()  # each row's first line in the file it was read from

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class CodedTable:
    """Rows as codes: row r's cell in field f is ``values[f][codes[r, f]]``."""

    codes: np.ndarray  # (K, n) int32
    values: list[list[str]]  # per field, the cells its codes stand for
    labels: np.ndarray  # (K,) int8, values 0/1
    lines: Sequence[int] = ()  # each row's first line in the file it was read from

    def first_seen(self, f: int) -> list[str]:
        """Field f's distinct cells in the order the rows first show them."""
        column = self.codes[:, f]
        _, first = np.unique(column, return_index=True)
        ordered = column[np.sort(first)].tolist()
        return list(dict.fromkeys(map(self.values[f].__getitem__, ordered)))

    def take(self, *parts: np.ndarray) -> list["CodedTable"]:
        """One table per array of row indices, renumbered together by first sight.

        The tables share their values: each field's distinct cells in the
        order the parts' rows, taken in turn, first show them.
        """
        codes = self.codes[np.concatenate(parts)]
        values = []
        for f, column in enumerate(codes.T):
            seen, first = np.unique(column, return_index=True)
            kept = seen[np.argsort(first)]
            renumber = np.zeros(len(self.values[f]), dtype=np.int32)
            renumber[kept] = np.arange(kept.size, dtype=np.int32)
            codes[:, f] = renumber[column]
            values.append(list(map(self.values[f].__getitem__, kept.tolist())))
        cuts = np.cumsum([part.size for part in parts])[:-1]
        return [
            CodedTable(codes=piece, values=values, labels=self.labels[part])
            for piece, part in zip(np.split(codes, cuts), parts)
        ]

    def rows(self) -> list[tuple[str, ...]]:
        """Each row's cells, decoded by code."""
        columns = [np.array(v, dtype=object)[c] for v, c in zip(self.values, self.codes.T)]
        return list(zip(*columns))


_CODING_BLOCK = 1024  # raw rows held at once: few live strings, all in cache


def code_records(records, n_fields: int) -> CodedTable:
    """Code csv_records' records a block of rows at a time, one column at a time.

    Each field's values are its distinct cells in first-seen order, so a
    cell's code is its rank in that order.
    """
    # A missing key gets the next code: one lookup per cell codes by first sight.
    indexes = [defaultdict(count().__next__) for _ in range(n_fields)]
    blocks, labels, lines = [np.empty((0, n_fields), dtype=np.int32)], array("b"), array("q")
    while block := list(islice(records, _CODING_BLOCK)):
        rows, block_labels, block_lines = zip(*block)
        labels.extend(block_labels)
        lines.extend(block_lines)
        codes = np.empty((len(block), n_fields), dtype=np.int32)
        for f, column in enumerate(zip(*rows)):
            codes[:, f] = np.fromiter(map(indexes[f].__getitem__, column), np.int32, len(block))
        blocks.append(codes)
    return CodedTable(
        codes=np.concatenate(blocks), values=[list(index) for index in indexes],
        labels=np.array(labels, dtype=np.int8), lines=lines,
    )


@dataclass
class Dataset:
    """Encoded table: one int id per cell, aligned with a Vocabulary."""

    ids: np.ndarray  # (K, n) int32
    labels: np.ndarray  # (K,) int8, values 0/1

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def text_lines(path, error: type = IngestionError):
    """Yield the lines of a UTF-8 text file; any other bytes raise ``error`` naming the path."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield from handle
        except UnicodeDecodeError:
            raise error(f"{path}: not UTF-8 text") from None


def csv_records(path, fields: list[FieldSchema], label: str):
    """Yield each record of a CSV file: its cells in schema order, its label, its first line.

    The header must contain every schema field plus the label column; extra
    columns are ignored. Empty cells mean "missing". Labels must be the
    literal strings "0" or "1". Every check fails before its record is
    yielded; a line is the file's own, as a quoted cell can span lines.
    """
    check_schema(fields)
    ordered = sorted(fields, key=lambda f: f.index)
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty file")
            for name in [f.name for f in ordered] + [label]:
                if name not in header:
                    kind = "label" if name == label else "field"
                    raise IngestionError(f"{path}: header missing {kind} column {name!r}")
            pick = itemgetter(*[header.index(f.name) for f in ordered], header.index(label))
            lineno = reader.line_num + 1
            for cells in reader:
                if len(cells) != len(header):
                    raise IngestionError(
                        f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
                    )
                *row, raw = pick(cells)
                raw = raw.strip()
                if raw not in ("0", "1"):
                    raise LabelError(f"{path}: line {lineno}: label must be 0 or 1, got {raw!r}")
                yield row, int(raw), lineno
                lineno = reader.line_num + 1
        except UnicodeDecodeError:
            raise IngestionError(f"{path}: not UTF-8 text") from None


def load_csv(path, fields: list[FieldSchema], label: str) -> RawTable:
    """Read a CSV file into a RawTable; csv_records says what it checks."""
    rows, labels, lines = [], [], array("q")  # lines: 8 bytes a row, no int object per row
    for row, y, lineno in csv_records(path, fields, label):
        rows.append(row)
        labels.append(y)
        lines.append(lineno)
    ordered = sorted(fields, key=lambda f: f.index)
    return RawTable(fields=ordered, rows=rows, labels=labels, lines=lines)


def save_csv(path, table: RawTable, label: str = "y") -> None:
    """Write a RawTable back out, fields in schema order then the label."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in table.fields] + [label])
        for row, y in zip(table.rows, table.labels):
            writer.writerow(list(row) + [y])


def split_rows(
    k: int, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle k row indices once and cut them into train/valid/test parts.

    Fractions must be positive and sum to 1 (within 1e-9). Boundaries are
    round(K * f1) and round(K * (f1 + f2)), so the three parts are disjoint
    and exhaustive by construction.
    """
    f1, f2, f3 = fractions
    if min(f1, f2, f3) <= 0 or abs(f1 + f2 + f3 - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must be positive and sum to 1, got {fractions}")
    if k < 3:
        raise IngestionError(f"need at least 3 rows to split, got {k}")
    order = np.random.default_rng(seed).permutation(k)
    i1 = int(round(k * f1))
    i2 = int(round(k * (f1 + f2)))
    i1 = max(1, min(i1, k - 2))
    i2 = max(i1 + 1, min(i2, k - 1))
    return order[:i1], order[i1:i2], order[i2:]


def split_table(
    table: RawTable, fractions: tuple[float, float, float], seed: int
) -> tuple[RawTable, RawTable, RawTable]:
    """The table's rows cut by split_rows into train/valid/test tables."""
    return tuple(
        RawTable(
            fields=table.fields,
            rows=[table.rows[i] for i in idx],
            labels=[table.labels[i] for i in idx],
        )
        for idx in split_rows(len(table), fractions, seed)
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
    def build(cls, field_names: list[str], rows) -> "Vocabulary":
        """Learn each field's values from an iterable of rows, in first-seen order."""
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

    def lookups(self) -> list[dict[str, int]]:  # a new list of each field's value -> id dict
        return list(self._to_id)

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

    def encode_table(self, table: CodedTable) -> Dataset:
        """Look each field's values up once, then gather the ids by code."""
        ids = np.empty(table.codes.shape, dtype=np.int32)
        for f, (to_id, values) in enumerate(zip(self._to_id, table.values)):
            lut = np.fromiter(map(to_id.get, values, repeat(UNSEEN_ID)), np.int32, len(values))
            ids[:, f] = lut[table.codes[:, f]]
        return Dataset(ids=ids, labels=table.labels)


# Escapes for values stored in tab-separated artifacts. Bin labels are always
# plain, but raw categories can contain anything.
_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"), ("|", "\\|"), (",", "\\,")]
_UNESCAPES = {coded[1]: plain for plain, coded in _ESCAPES}
_ESCAPED = re.compile(r"\\(.)", flags=re.S)


def escape(value: str) -> str:
    for plain, coded in _ESCAPES:
        value = value.replace(plain, coded)
    return value


def unescape(value: str) -> str:
    """Inverse of escape; a backslash before any other character stays as it is."""
    if "\\" not in value:
        return value  # most values: nothing to undo
    return _ESCAPED.sub(lambda m: _UNESCAPES.get(m.group(1), m.group(0)), value)


# Every machine-read artifact is one .npz container of named arrays.
def save_arrays(path, **arrays) -> None:
    """Write named arrays into one .npz container, the bytes np.savez would write.

    Equal arrays give equal bytes. A C-contiguous array goes out from its own
    memory, with no copy of it as a bytes object.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, value in arrays.items():
            value = np.asanyarray(value)
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                if value.flags.c_contiguous:
                    header = np.lib.format.header_data_from_array_1_0(value)
                    np.lib.format.write_array_header_1_0(member, header)
                    member.write(memoryview(value.reshape(-1)).cast("B"))
                else:
                    np.lib.format.write_array(member, value)


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
