"""The exported white-box model: a self-contained text artifact.

The file carries everything needed to score raw rows: the schema, the bin
edges for numerical fields, one weight line per (field, value), the selected
cross fields with one weight line per value combination, and the bias. Tab
separated, values escaped, floats written with repr so reading them back is
lossless and export is byte-deterministic.

Line grammar::

    bias<TAB>w
    field<TAB>index<TAB>name<TAB>kind
    edges<TAB>name<TAB>granularity<TAB>cut,cut,...
    w<TAB>name<TAB>value<TAB>weight
    cross<TAB>name,name[,name[,name]]
    cw<TAB>name,name<TAB>value|value<TAB>weight

An empty value string is the missing-value category. Combinations absent
from the file score zero, mirroring training-time behaviour for unseen
values. The ``discretize`` stage writes its vocabulary and bin edges in this
same grammar, as a scorecard whose weights and bias are all 0.0.

Loading compiles the file into id tables. The ``w`` lines rebuild the
vocabulary: per field the empty value is the missing id 0 and the other values
get ids 2, 3, ... in file order, which is the id order export writes; the
unseen id 1 weighs 0.0. The weights and ``cw`` tables become a SparseLrModel
over those ids, compiled once for scoring with and once without its crosses.
Scoring refuses a raw row of the wrong length and looks every cell up in one
pass; a numerical field's lookup maps the batch's distinct cells to their bins'
ids, so each is parsed and binned once. Each row's score is ``bias + (fields in
index order + crosses in file order)``, added term by term. Loading rejects a
non-finite weight, a ``cw`` value absent from its field's ``w`` lines, a
``cross`` naming an unknown field, ``edges`` for a categorical field and a
repeated ``bias``, ``edges`` or missing-value ``w``.
"""

from __future__ import annotations

import math
import re
from itertools import chain, cycle, repeat
from operator import itemgetter

import numpy as np

from .crosslr import SparseLrModel, split_keys
from .data import (
    MISSING,
    MISSING_ID,
    NUMERICAL,
    UNSEEN_ID,
    FieldSchema,
    Vocabulary,
    check_schema,
    escape,
    text_lines,
    unescape,
)
from .discretize import BinEdges, bin_labels, bin_of, parse_number
from .errors import ConfigError, Dnn2LrError, EncodingError, IngestionError
from .network import stable_sigmoid

_HEADER = "# white-box logistic scorecard"


def export_model(
    path,
    model: SparseLrModel,
    fields: list[FieldSchema],
    vocab: Vocabulary,
    edges_by_name: dict[str, BinEdges],
    selected: list[tuple[int, ...]],
) -> None:
    """Write the final model with only the selected cross fields attached."""
    if len(fields) != model.n_fields:
        raise ConfigError("schema and model disagree on the number of fields")
    names = [f.name for f in sorted(fields, key=lambda f: f.index)]
    lines = [_HEADER, f"bias\t{model.bias!r}"]
    for f in sorted(fields, key=lambda f: f.index):
        lines.append(f"field\t{f.index}\t{escape(f.name)}\t{f.kind}")
        if f.kind == NUMERICAL:
            if f.name not in edges_by_name:
                raise ConfigError(f"no bin edges for numerical field {f.name!r}")
            e = edges_by_name[f.name]
            cuts = ",".join(repr(float(c)) for c in e.cuts)
            lines.append(f"edges\t{escape(f.name)}\t{e.granularity}\t{cuts}")
        weights = model.field_weights[f.index]
        for fid in range(weights.size):
            if fid == UNSEEN_ID:
                continue  # no raw value exists for the unseen id
            value = MISSING if fid == MISSING_ID else vocab.decode(f.index, fid)
            lines.append(f"w\t{escape(f.name)}\t{escape(value)}\t{float(weights[fid])!r}")
    for fields_tuple in selected:
        which = model.cross_index(fields_tuple)
        members = model.cross_fields[which]
        member_names = ",".join(escape(names[f]) for f in members)
        lines.append(f"cross\t{member_names}")
        combos = split_keys(model.cross_keys[which], [model.vocab_sizes[f] for f in members])
        for key, weight in zip(combos.tolist(), model.cross_weights[which].tolist()):
            rendered = "|".join(
                escape(MISSING if fid == MISSING_ID else vocab.decode(f, fid))
                for f, fid in zip(members, key)
            )
            lines.append(f"cw\t{member_names}\t{rendered}\t{weight!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _split_escaped(text: str, sep: str) -> list[str]:
    """Split on sep, honouring backslash escapes produced by escape()."""
    if "\\" not in text:
        return text.split(sep)
    parts = [""]
    for token in re.findall(r"\\.|.", text, flags=re.S):
        if token == sep:
            parts.append("")
        else:
            parts[-1] += token
    return parts


class ExportedModel:
    """A loaded scorecard: schema, rebuilt vocabulary, bin edges and id model."""

    def __init__(
        self, fields: list[FieldSchema], vocab: Vocabulary, edges_by_name, model: SparseLrModel
    ):
        self.fields = fields
        self.vocab = vocab
        self.edges_by_name = edges_by_name
        self.model = model
        self._scorers = {True: model.compile(), False: model.compile([])}
        self._numeric = []  # (field, cell getter, edges, id of each bin, then of missing: bin -1)
        for f in fields:
            if f.kind == NUMERICAL:
                edges = edges_by_name[f.name]
                bins = [vocab.encode_value(f.index, label) for label in bin_labels(edges)]
                self._numeric.append((f, itemgetter(f.index), edges, bins + [MISSING_ID]))

    def encode(self, rows: list[list[str]]) -> np.ndarray:
        """Raw cells -> vocabulary ids in one pass; a batch's distinct numbers are binned once."""
        n = len(self.fields)
        for k, row in enumerate(rows):
            if len(row) != n:
                raise EncodingError(f"row {k} holds {len(row)} cells, expected {n}")
        tables = self.vocab.lookups()  # a new list: each numerical field's lookup is replaced
        for f, cell_of, edges, bins in self._numeric:
            tables[f.index] = cells = dict.fromkeys(map(cell_of, rows))
            for cell in cells:
                cells[cell] = bins[bin_of(edges, parse_number(cell, f.name))]
        flat = map(dict.get, cycle(tables), chain.from_iterable(rows), repeat(UNSEEN_ID))
        return np.fromiter(flat, np.int32, n * len(rows)).reshape(len(rows), n)

    def logits(self, rows: list[list[str]], include_cross: bool = True) -> np.ndarray:
        return self._scorers[include_cross].logits(self.encode(rows))

    def score_ids(self, ids: np.ndarray, include_cross: bool = True) -> np.ndarray:
        """Probabilities for rows already encoded by ``encode``."""
        return stable_sigmoid(self._scorers[include_cross].logits(ids))

    def score_rows(self, rows: list[list[str]], include_cross: bool = True) -> np.ndarray:
        """Probabilities for raw rows ordered by the model's own schema."""
        return self.score_ids(self.encode(rows), include_cross)


_ARITY = {"bias": 2, "field": 4, "edges": 4, "w": 4, "cross": 2, "cw": 4}


def _weight(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise IngestionError(f"weight {text!r} is not finite")
    return value


def load_exported(path) -> ExportedModel:
    """Read a model file and compile it; any bad line fails naming its number."""
    tagged: dict[str, list] = {tag: [] for tag in _ARITY}
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.rstrip("\n")
        if line and not line.startswith("#"):
            parts = line.split("\t")
            if _ARITY.get(parts[0]) != len(parts):
                raise IngestionError(f"{path}: line {lineno}: bad line tag {parts[0]!r}")
            tagged[parts[0]].append((lineno, parts[1:]))
    if not tagged["field"] or not tagged["bias"]:
        raise IngestionError(f"{path}: not a model file (missing field or bias lines)")
    lineno = 0
    try:
        fields = []
        for lineno, (index, name, kind) in tagged["field"]:
            fields.append(FieldSchema(name=unescape(name), index=int(index), kind=kind))
        fields.sort(key=lambda f: f.index)
        check_schema(fields)
        position = {f.name: f.index for f in fields}

        def field_of(name: str) -> int:
            if unescape(name) not in position:
                raise IngestionError(f"unknown field {unescape(name)!r}")
            return position[unescape(name)]

        vocab = Vocabulary([f.name for f in fields])
        field_weights = {}
        for lineno, (name, value, weight) in tagged["w"]:
            f = field_of(name)
            fid = MISSING_ID if value == MISSING else vocab.add(f, unescape(value))
            if (f, fid) in field_weights:  # vocab.add refuses a repeated learned value
                raise IngestionError(f"second w line for the missing value of {unescape(name)!r}")
            field_weights[f, fid] = _weight(weight)
        model = SparseLrModel(vocab.sizes())
        for (f, fid), weight in field_weights.items():
            model.field_weights[f][fid] = weight
        for lineno, (weight,) in tagged["bias"]:
            if lineno != tagged["bias"][0][0]:
                raise IngestionError("second bias line")
            model.bias = _weight(weight)
        edges_by_name = {}
        for lineno, (name, granularity, cuts) in tagged["edges"]:
            f = field_of(name)
            if fields[f].kind != NUMERICAL or fields[f].name in edges_by_name:
                raise IngestionError(f"edges for field {fields[f].name!r}: categorical or repeated")
            edges_by_name[unescape(name)] = BinEdges(
                field=f,
                granularity=int(granularity),
                cuts=tuple(float(c) for c in cuts.split(",")) if cuts else (),
            )
        for f in fields:
            if f.kind == NUMERICAL and f.name not in edges_by_name:
                raise IngestionError(f"no bin edges for numerical field {f.name!r}")
        tables = {}
        for lineno, (names,) in tagged["cross"]:
            members = [field_of(name) for name in _split_escaped(names, ",")]
            tables.setdefault(names, (members, [], []))
        for lineno, (names, values, weight) in tagged["cw"]:
            if names not in tables:
                raise IngestionError("cw line names no listed cross")
            members, combos, weights = tables[names]
            values = [unescape(v) for v in _split_escaped(values, "|")]
            combos.append([vocab.encode_value(f, v) for f, v in zip(members, values)])
            if len(values) != len(members) or UNSEEN_ID in combos[-1]:
                raise IngestionError("cw value not among its field's w lines")
            weights.append(_weight(weight))
        for lineno, (names,) in tagged["cross"]:
            model.attach_cross(*tables[names])
    except (ValueError, Dnn2LrError) as err:
        raise IngestionError(f"{path}: line {lineno}: {err}") from None
    return ExportedModel(fields, vocab, edges_by_name, model)
