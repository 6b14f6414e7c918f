"""Ingest and discretize against the paths they replace.

The first oracle is the split-CSV path: ingest wrote train.csv and valid.csv,
and discretize read them back as strings, parsed every numerical cell,
rendered each row's bin label and built the vocabulary over the rows. The
coded path must write the same bytes, or fail with an error of the same kind.

Where set-up succeeds, scoring's encoder (ExportedModel.encode, which bins
each cell with bin_of) must give the ids set-up wrote for the train and valid
rows, and on the test rows the ids of their apply_edges labels.

The second oracle is ingest as it was before it coded cells as it read them:
the whole file loaded as strings, split, and the train and valid rows coded
together. Ingest must write the same splits.npz and test.csv, or fail with
the same message.

Evaluate reads a CSV as ingest does and encodes it as discretize does; on
any scorecard its ids must be those of scoring's encoder on the raw rows.
"""

import csv
import io
import tempfile
import tracemalloc
from collections import defaultdict
from itertools import chain, count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr import model_io
from dnn2lr.config import PipelineConfig
from dnn2lr.crosslr import SparseLrModel
from dnn2lr.data import (
    CATEGORICAL,
    NUMERICAL,
    CodedTable,
    FieldSchema,
    RawTable,
    Vocabulary,
    csv_records,
    load_arrays,
    load_csv,
    save_arrays,
    save_csv,
    split_table,
)
from dnn2lr.discretize import BinEdges, apply_edges, bin_labels, parse_number, select_granularity
from dnn2lr.errors import Dnn2LrError, IngestionError
from dnn2lr.pipeline import _encode_csv, _stage_seed, _write_splits, evaluate_model, run_stage


def encode_rows(vocab: Vocabulary, rows) -> np.ndarray:
    """Each row's cells looked up one at a time: the old row encoder of the vocabulary."""
    flat = (vocab.encode_value(f, value) for row in rows for f, value in enumerate(row))
    ids = np.fromiter(flat, dtype=np.int32, count=len(rows) * vocab.n_fields)
    return ids.reshape(len(rows), vocab.n_fields)


def read_rows(path, fields: list[FieldSchema], label: str) -> tuple[RawTable, list[int]]:
    """A CSV file as rows of strings, as load_csv read it before it coded them, and their lines."""
    rows, labels, lines = [], [], []
    for row, y, line in csv_records(path, fields, label):
        rows.append(row)
        labels.append(y)
        lines.append(line)
    return RawTable(sorted(fields, key=lambda f: f.index), rows, labels), lines


def check_numbers(path, table: RawTable, lines: list[int]) -> None:
    """Ingest's number check over a table of strings: each distinct cell parsed once."""
    for f in table.fields:
        if f.kind != NUMERICAL:
            continue
        column = [row[f.index] for row in table.rows]
        for cell in dict.fromkeys(column):
            try:
                parse_number(cell, f.name)
            except IngestionError as err:
                line = lines[column.index(cell)]
                raise IngestionError(f"{path}: line {line}: {err}") from None


def code_tables(tables: list[RawTable]) -> list[CodedTable]:
    """The tables' rows coded together, each field's values in first-seen order over them."""
    rows = list(chain.from_iterable(t.rows for t in tables))
    codes = np.empty((len(rows), len(tables[0].fields)), dtype=np.int32)
    indexes = [defaultdict(count().__next__) for _ in tables[0].fields]
    for r, row in enumerate(rows):
        codes[r] = [index[cell] for index, cell in zip(indexes, row)]
    values = [list(index) for index in indexes]
    cuts = np.cumsum([len(t) for t in tables])[:-1]
    return [
        CodedTable(codes=part, values=values, labels=np.asarray(t.labels, dtype=np.int8))
        for part, t in zip(np.split(codes, cuts), tables)
    ]


def old_ingest(config: PipelineConfig, work: Path) -> None:
    """Ingest as it was: the whole file as strings, split, train and valid coded together."""
    table, lines = read_rows(config.data, config.fields, config.label)
    check_numbers(config.data, table, lines)
    train, valid, test = split_table(table, config.split, seed=_stage_seed(config, "ingest"))
    work.mkdir(parents=True, exist_ok=True)
    save_csv(work / "test.csv", test, label=config.label)
    _write_splits(work / "splits.npz", table.fields, *code_tables([train, valid]))


COMPARED = ("test.csv", "encoding.txt", "encoded_train.npz", "encoded_valid.npz")
SPLIT_ARRAYS = {"ids": (np.int32, 2), "labels": (np.int8, 1)}


def old_setup(config: PipelineConfig, work: Path) -> None:
    """Ingest and discretize as they were before ingest coded its splits."""
    table, lines = read_rows(config.data, config.fields, config.label)
    check_numbers(config.data, table, lines)
    parts = split_table(table, config.split, seed=_stage_seed(config, "ingest"))
    work.mkdir(parents=True, exist_ok=True)
    paths = [work / name for name in ("train.csv", "valid.csv", "test.csv")]
    for path, part in zip(paths, parts):
        save_csv(path, part, label=config.label)
    parts = [read_rows(path, config.fields, config.label)[0] for path in paths[:2]]
    train_part, valid_part = parts
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


def new_ingest(config: PipelineConfig, work: Path) -> None:
    run_stage(config, "ingest")


def new_setup(config: PipelineConfig, work: Path) -> None:
    new_ingest(config, work)
    run_stage(config, "discretize")


def check_encoders_agree(fields: list[FieldSchema], old: Path, new: Path) -> None:
    """Scoring's encoder against set-up's ids and against the bin-label path on test."""
    exported = model_io.load_exported(new / "encoding.txt")
    for split in ("train", "valid"):
        rows = load_csv(old / f"{split}.csv", fields, "y").rows()
        saved = load_arrays(new / f"encoded_{split}.npz", SPLIT_ARRAYS)
        assert np.array_equal(exported.encode(rows), saved["ids"])
    rows = [list(row) for row in load_csv(new / "test.csv", fields, "y").rows()]
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


BLOCK = 1024  # four of data._CODING_BLOCK: draws run past several
AWKWARD_CELLS = st.text(alphabet='ab,"\n\r é中', max_size=4)
NUMBER_CELLS = st.sampled_from(["", " 1.5 ", "1.5", "-0.0", "0", "1e3", "nan", "-2", " 7", "2e-1"])


@st.composite
def raw_files(draw):
    """A schema, and CSV bytes for it with awkward cells, extra columns and any column order.

    Rows are picked from small drawn pools of cells by a drawn seed, so a
    draw can run past one coding block cheaply; singleton cells give values
    that only the test rows may hold. Some draws break up to two rows,
    anywhere and often after the first block: a number, a label or a cell
    count.
    """
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, NUMERICAL]), min_size=1, max_size=3))
    names = draw(st.permutations(NAMES))[: len(kinds)]
    fields = [FieldSchema(name, i, kind) for i, (name, kind) in enumerate(zip(names, kinds))]
    extra = ["x1", "x,2"][: draw(st.integers(0, 2))]
    columns = draw(st.permutations(names + extra + ["y"]))
    pools = {
        name: draw(st.lists(NUMBER_CELLS if kind == NUMERICAL else AWKWARD_CELLS,
                            min_size=1, max_size=6))
        for name, kind in zip(names, kinds)
    }
    for name in extra:
        pools[name] = ["e", "e\nf"]
    pools["y"] = ["0", "1", " 1", "0 "]
    k = draw({"blocks": st.integers(BLOCK + 1, 2 * BLOCK), "few": st.integers(3, 40),
              "too few": st.integers(0, 2)}[draw(st.sampled_from(["blocks", "few", "too few"]))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [[pools[c][rng.integers(len(pools[c]))] for c in columns] for _ in range(k)]
    for r in rng.choice(k, size=min(k, 5), replace=False).tolist():  # one-off cells
        c = int(rng.integers(len(names)))
        if kinds[c] == CATEGORICAL:
            rows[r][columns.index(names[c])] = f"only{r}"
    faults = draw(st.lists(st.sampled_from(["number", "label", "count"]), max_size=2))
    for fault in sorted(faults, key=["number", "label", "count"].index) if k else ():
        r = draw(st.integers(min(k - 1, BLOCK), k - 1) | st.integers(0, k - 1))
        if fault == "number" and NUMERICAL in kinds:
            at = columns.index(names[draw(st.sampled_from(
                [i for i, kind in enumerate(kinds) if kind == NUMERICAL]))])
            rows[r][at] = rows[-1][at] = "1,5"  # the error names the first row holding it
        elif fault == "label":
            rows[r][columns.index("y")] = draw(st.sampled_from(["2", "", "yes"]))
        elif fault == "count":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["extra"]
    handle = io.StringIO()
    csv.writer(handle, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [columns] + rows
    )
    return fields, handle.getvalue().encode("utf-8")


def ingest_outcome(ingest, config: PipelineConfig, work: Path):
    """Ingest's two files' bytes, or the kind and message of the error it failed with."""
    try:
        ingest(config, work)
    except Dnn2LrError as err:
        return type(err).__name__, str(err)
    return {name: (work / name).read_bytes() for name in ("splits.npz", "test.csv")}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(raw_files(), st.integers(0, 2**31 - 1))
def test_ingest_coding_as_it_reads_writes_the_bytes_of_the_string_table(case, seed):
    fields, data = case
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "data.csv").write_bytes(data)
        results = []
        for name, ingest in (("old", old_ingest), ("new", new_ingest)):
            config = PipelineConfig(fields=fields, label="y", data=root / "data.csv",
                                    workdir=root / name, seed=seed)
            results.append(ingest_outcome(ingest, config, root / name))
        assert results[0] == results[1]


def evaluate_ingest(config: PipelineConfig, work: Path) -> None:
    """Evaluate's read of the data file, with a scorecard for the one numerical field amount."""
    work.mkdir(parents=True)
    (work / "model.txt").write_text("bias\t0.0\nfield\t0\tamount\tnumerical\n"
                                    "edges\tamount\t10\t2.5\nw\tamount\tb0\t-1.0\n")
    evaluate_model(work / "model.txt", config.data, label=config.label)


@pytest.mark.parametrize(
    "data, error",
    [
        ('amount,y\n"1,5",1\n', "line 2: amount: cannot parse"),  # a bad number, too few rows
        ('amount,y\n"1,5",1\n2,0\n3,x\n', "line 4: label must be"),  # then a bad label
        ('amount,y\n"1,5",1\n2,0\n3\n', "line 4: expected 2 cells, got 1"),  # then a ragged row
    ],
)
def test_read_errors_then_numbers_then_row_count(tmp_path, data, error):
    (tmp_path / "data.csv").write_text(data, encoding="utf-8")
    config = PipelineConfig(fields=[FieldSchema("amount", 0, NUMERICAL)], label="y",
                            data=tmp_path / "data.csv", workdir=tmp_path / "work")
    want = ingest_outcome(old_ingest, config, tmp_path / "old")
    assert ingest_outcome(new_ingest, config, tmp_path / "new") == want
    assert ingest_outcome(evaluate_ingest, config, tmp_path / "evaluate") == want
    assert error in want[1]


def test_a_number_in_splits_npz_that_does_not_parse_fails_naming_the_file(tmp_path):
    """splits.npz holds no lines, so discretize names the file alone."""
    fields = [FieldSchema("amount", 0, NUMERICAL), FieldSchema("city", 1, CATEGORICAL)]
    config = PipelineConfig(fields=fields, label="y", data=tmp_path / "data.csv",
                            workdir=tmp_path / "work")
    table = CodedTable(codes=np.array([[0, 0], [1, 1], [2, 0], [0, 1]], dtype=np.int32),
                       values=[["1.5", "abc", "2"], ["x", "y"]],
                       labels=np.array([0, 1, 1, 0], dtype=np.int8))
    config.workdir.mkdir()
    _write_splits(config.workdir / "splits.npz", fields, *table.take(np.arange(2), np.arange(2, 4)))
    with pytest.raises(IngestionError) as err:
        run_stage(config, "discretize")
    path = config.workdir / "splits.npz"
    assert str(err.value) == f"{path}: amount: cannot parse 'abc' as a number"


def write_wide_csv(path: Path, k: int, n: int) -> list[FieldSchema]:
    """k rows of n fields, every cell a string of several characters, half the fields numbers."""
    rng = np.random.default_rng(0)
    fields = [FieldSchema(f"f{j}", j, NUMERICAL if j % 2 else CATEGORICAL) for j in range(n)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in fields] + ["y"])
        cells = rng.integers(0, 1000, size=(k, n)).tolist()
        for row, y in zip(cells, rng.integers(0, 2, size=k).tolist()):
            writer.writerow([f"{v / 8}" if j % 2 else f"cat{v}" for j, v in enumerate(row)] + [y])
    return fields


def test_ingest_holds_one_block_of_raw_rows(tmp_path):
    fields = write_wide_csv(tmp_path / "data.csv", 30_000, 20)
    config = PipelineConfig(fields=fields, label="y", data=tmp_path / "data.csv",
                            workdir=tmp_path / "work")
    tracemalloc.start()
    try:
        run_stage(config, "ingest")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Holding the whole table as strings peaked at 45.9 MB here, coding as it reads at 10.3 MB.
    assert peak < 15e6, f"ingest peaked at {peak / 1e6:.1f} MB"


CUTS = [-1.0, -0.0, 1.5, 7.0, 1000.0]
SPELLINGS = ["", " 1.5 ", "1.5", "-0", "0", "1e3", "1000", "nan", "inf", "-inf", " 7", "7.0",
             "-1", "2e-1", "-1e9"]
CATEGORIES = st.text(alphabet="ab,|\t\n é", max_size=3)


@st.composite
def scorecards(draw):
    """A schema mixing kinds, a scorecard for it, and rows of cells it may never have seen.

    Cuts are values the number spellings name, so cells fall exactly on a cut;
    a scorecard may learn only some of a field's bins and categories.
    """
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, NUMERICAL]), min_size=1, max_size=4))
    fields = [FieldSchema(f"f{i}", i, kind) for i, kind in enumerate(kinds)]
    vocab = Vocabulary([f.name for f in fields])
    edges_by_name, cells = {}, []
    for f in fields:
        if f.kind == NUMERICAL:
            cuts = sorted(draw(st.lists(st.sampled_from(CUTS), unique=True)))
            edges_by_name[f.name] = edges = BinEdges(f.index, 10, tuple(cuts))
            learned = draw(st.lists(st.sampled_from(bin_labels(edges)), unique=True))
            cells.append(st.sampled_from(SPELLINGS))
        else:
            learned = draw(st.lists(CATEGORIES.filter(bool), unique=True, max_size=4))
            cells.append(CATEGORIES | st.sampled_from(learned) if learned else CATEGORIES)
        for value in learned:
            vocab.add(f.index, value)
    rows = draw(st.lists(st.tuples(*cells).map(list), min_size=1, max_size=30))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    exported = model_io.ExportedModel(fields, vocab, edges_by_name, SparseLrModel(vocab.sizes()))
    return exported, RawTable(fields, rows, labels)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(scorecards())
def test_evaluate_encodes_a_csv_as_scoring_encodes_its_rows(case):
    exported, table = case
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "data.csv"
        save_csv(path, table, label="y")
        coded = _encode_csv(exported, path, "y")
    assert np.array_equal(coded.ids, exported.encode(table.rows))
    assert coded.labels.tolist() == table.labels
