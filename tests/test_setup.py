"""Ingest and discretize against the path they replace: split CSVs written, then parsed again.

The oracle below is that path: ingest wrote train.csv and valid.csv, and
discretize read them back with load_csv, parsed every numerical cell, rendered
each row's bin label and built the vocabulary over the rows. The coded path
must write the same bytes, or fail with an error of the same kind.

Where set-up succeeds, scoring's encoder (ExportedModel.encode, which bins
each cell with bin_of) must give the ids set-up wrote for the train and valid
rows, and on the test rows the ids of their apply_edges labels.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr import model_io
from dnn2lr.config import PipelineConfig
from dnn2lr.crosslr import SparseLrModel
from dnn2lr.data import (
    CATEGORICAL,
    NUMERICAL,
    FieldSchema,
    RawTable,
    Vocabulary,
    load_arrays,
    load_csv,
    save_arrays,
    save_csv,
    split_table,
)
from dnn2lr.discretize import apply_edges, parse_number, select_granularity
from dnn2lr.errors import Dnn2LrError
from dnn2lr.pipeline import _check_numbers, _stage_seed, run_stage

def encode_rows(vocab: Vocabulary, rows) -> np.ndarray:
    """Each row's cells looked up one at a time: the old row encoder of the vocabulary."""
    flat = (vocab.encode_value(f, value) for row in rows for f, value in enumerate(row))
    ids = np.fromiter(flat, dtype=np.int32, count=len(rows) * vocab.n_fields)
    return ids.reshape(len(rows), vocab.n_fields)


COMPARED = ("test.csv", "encoding.txt", "encoded_train.npz", "encoded_valid.npz")
SPLIT_ARRAYS = {"ids": (np.int32, 2), "labels": (np.int8, 1)}


def old_setup(config: PipelineConfig, work: Path) -> None:
    """Ingest and discretize as they were before ingest coded its splits."""
    table = load_csv(config.data, config.fields, config.label)
    _check_numbers(config.data, table)
    parts = split_table(table, config.split, seed=_stage_seed(config, "ingest"))
    work.mkdir(parents=True, exist_ok=True)
    paths = [work / name for name in ("train.csv", "valid.csv", "test.csv")]
    for path, part in zip(paths, parts):
        save_csv(path, part, label=config.label)
    train_part, valid_part = parts = [load_csv(p, config.fields, config.label) for p in paths[:2]]
    edges_by_name = {}
    for f in config.fields:
        if f.kind != NUMERICAL:
            continue
        values = [
            np.array([parse_number(row[f.index], f.name) for row in part.rows], dtype=np.float64)
            for part in parts
        ]
        _, edges = select_granularity(
            values[0], np.asarray(train_part.labels), values[1], np.asarray(valid_part.labels),
            field=f.index, candidates=config.granularities,
        )
        edges_by_name[f.name] = edges
        for part, part_values in zip(parts, values):
            for row, bin_label in zip(part.rows, apply_edges(edges, part_values)):
                row[f.index] = bin_label
    vocab = Vocabulary.build([f.name for f in config.fields], train_part.rows)
    model_io.export_model(
        work / "encoding.txt", SparseLrModel(vocab.sizes()), config.fields, vocab,
        edges_by_name, [],
    )
    for name, part in (("encoded_train.npz", train_part), ("encoded_valid.npz", valid_part)):
        ids = encode_rows(vocab, part.rows)
        save_arrays(work / name, ids=ids, labels=np.asarray(part.labels, dtype=np.int8))


def outcome(setup, config: PipelineConfig, work: Path):
    """The compared files' bytes, or the kind of error the set-up failed with."""
    try:
        setup(config, work)
    except Dnn2LrError as err:
        return type(err).__name__
    return {name: (work / name).read_bytes() for name in COMPARED}


def new_setup(config: PipelineConfig, work: Path) -> None:
    run_stage(config, "ingest")
    run_stage(config, "discretize")


def check_encoders_agree(fields: list[FieldSchema], old: Path, new: Path) -> None:
    """Scoring's encoder against set-up's ids and against the bin-label path on test."""
    exported = model_io.load_exported(new / "encoding.txt")
    for split in ("train", "valid"):
        rows = load_csv(old / f"{split}.csv", fields, "y").rows
        saved = load_arrays(new / f"encoded_{split}.npz", SPLIT_ARRAYS)
        assert np.array_equal(exported.encode(rows), saved["ids"])
    rows = load_csv(new / "test.csv", fields, "y").rows
    got = exported.encode(rows)
    for f in fields:
        if f.kind == NUMERICAL:
            values = np.array([parse_number(row[f.index]) for row in rows], dtype=np.float64)
            for row, label in zip(rows, apply_edges(exported.edges_by_name[f.name], values)):
                row[f.index] = label
    assert np.array_equal(got, encode_rows(exported.vocab, rows))


NAMES = ["amount", "a,b", "é\"q", "x z", "名"]
AWKWARD = st.text(alphabet="ab,\"\n\r é中", max_size=3)
NUMBERS = st.sampled_from(
    ["", " 1.5 ", "1.5", "-0.0", "0.0", "0", "1e3", "1000", "nan", "-2", "3.25", " 7", "2e-1",
     "-1e9", "1e9"]
)


@st.composite
def tables(draw):
    """A schema of awkward names and kinds, and rows of awkward cells and number spellings."""
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, NUMERICAL]), min_size=1, max_size=4))
    names = draw(st.permutations(NAMES))
    fields = [FieldSchema(name, i, kind) for i, (name, kind) in enumerate(zip(names, kinds))]
    cells = [NUMBERS if kind == NUMERICAL else AWKWARD for kind in kinds]
    rows = draw(st.lists(st.tuples(*cells).map(list), min_size=2, max_size=40))
    if draw(st.integers(0, 9)) == 0 and NUMERICAL in kinds:  # one cell that is no number
        rows[draw(st.integers(0, len(rows) - 1))][kinds.index(NUMERICAL)] = "1,5"
    labels = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return RawTable(fields=fields, rows=rows, labels=labels)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(tables(), st.integers(0, 2**31 - 1))
def test_coded_setup_writes_the_bytes_of_the_split_csv_path(table, seed):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        save_csv(root / "data.csv", table, label="y")
        results = []
        for name, setup in (("old", old_setup), ("new", new_setup)):
            config = PipelineConfig(fields=table.fields, label="y", data=root / "data.csv",
                                    workdir=root / name, seed=seed)
            results.append(outcome(setup, config, root / name))
        assert results[0] == results[1]
        if isinstance(results[1], dict):
            check_encoders_agree(table.fields, root / "old", root / "new")
