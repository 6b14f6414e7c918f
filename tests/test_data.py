"""Schema, CSV ingestion, splitting, vocabulary encoding, the array container."""

import csv
import io
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.crosslr import SparseLrModel
from dnn2lr.data import (
    _CODING_BLOCK,
    CATEGORICAL,
    MISSING,
    MISSING_ID,
    NUMERICAL,
    UNSEEN_ID,
    Dataset,
    FieldSchema,
    RawTable,
    Vocabulary,
    check_schema,
    code_records,
    load_arrays,
    load_csv,
    save_arrays,
    save_csv,
    split_table,
)
from dnn2lr.errors import ConfigError, EncodingError, IngestionError, LabelError
from dnn2lr.model_io import ExportedModel, export_model, load_exported


def two_field_schema():
    return [
        FieldSchema("color", 0, CATEGORICAL),
        FieldSchema("shape", 1, CATEGORICAL),
    ]


class TestSchema:
    def test_kind_validated(self):
        with pytest.raises(ConfigError):
            FieldSchema("x", 0, "ordinal")

    def test_duplicate_names_rejected(self):
        bad = [FieldSchema("a", 0, CATEGORICAL), FieldSchema("a", 1, CATEGORICAL)]
        with pytest.raises(ConfigError):
            check_schema(bad)

    def test_index_gap_rejected(self):
        bad = [FieldSchema("a", 0, CATEGORICAL), FieldSchema("b", 2, CATEGORICAL)]
        with pytest.raises(ConfigError):
            check_schema(bad)

    def test_numerical_kind_accepted(self):
        FieldSchema("age", 0, NUMERICAL)


class TestCsv:
    def test_round_trip(self, tmp_path):
        fields = two_field_schema()
        table = RawTable(
            fields=fields,
            rows=[["red", "box"], ["blue", ""], ["red", "ball"]],
            labels=[1, 0, 1],
        )
        path = tmp_path / "t.csv"
        save_csv(path, table, label="y")
        back = load_csv(path, fields, label="y")
        assert back.rows() == [tuple(row) for row in table.rows]
        assert back.labels.tolist() == table.labels

    def test_extra_columns_ignored_and_order_free(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("junk,shape,label,color\nz,box,1,red\n")
        table = load_csv(path, two_field_schema(), label="label")
        assert table.rows() == [("red", "box")]
        assert table.labels.tolist() == [1]

    def test_missing_field_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("color,label\nred,1\n")
        with pytest.raises(IngestionError):
            load_csv(path, two_field_schema(), label="label")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("color,shape\nred,box\n")
        with pytest.raises(IngestionError):
            load_csv(path, two_field_schema(), label="label")

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,label\nred,box,2\n")
        with pytest.raises(LabelError):
            load_csv(path, two_field_schema(), label="label")

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,label\nred,box,1\nblue\n")
        with pytest.raises(IngestionError) as exc:
            load_csv(path, two_field_schema(), label="label")
        assert "line 3" in str(exc.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(IngestionError):
            load_csv(path, two_field_schema(), label="label")


def row_loop_load_csv(path, fields, label):
    """load_csv as it was: csv.reader over a line generator, one list comprehension per row.

    Returns each row's cells, then the labels, then each row's first line.
    """

    def text_lines():
        with open(path, encoding="utf-8", newline="") as handle:
            try:
                yield from handle
            except UnicodeDecodeError:
                raise IngestionError(f"{path}: not UTF-8 text") from None

    ordered = sorted(fields, key=lambda f: f.index)
    reader = csv.reader(text_lines())
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
    rows, labels, lines = [], [], array("q")
    lineno = reader.line_num + 1
    for cells in reader:
        if len(cells) != len(header):
            raise IngestionError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        raw = cells[label_pos].strip()
        if raw not in ("0", "1"):
            raise LabelError(f"{path}: line {lineno}: label must be 0 or 1, got {raw!r}")
        labels.append(int(raw))
        rows.append([cells[p] for p in field_pos])
        lines.append(lineno)
        lineno = reader.line_num + 1
    return rows, labels, list(lines)


LABELS = ["0", "1", " 1", "0 "]


@st.composite
def csv_files(draw):
    """CSV bytes with quoted awkward cells, either line ending, extra columns anywhere.

    Some draws break one thing: a row's cell count, a label, a UTF-8 byte, a
    header column, or the whole file, which is then empty.
    """
    fields = two_field_schema()
    extra = draw(st.integers(0, 2))
    columns = draw(st.permutations(["color", "shape", "label", "x1", "x2"][: 3 + extra]))
    fault = draw(st.sampled_from([None] * 4 + ["count", "label", "byte", "column", "empty"]))
    if fault == "column":
        columns.remove(draw(st.sampled_from(["color", "shape", "label"])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    cells = st.text(alphabet='a,"\n é' + ending, max_size=4)  # a lone CR only where writer quotes it
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        rows.append([draw(st.sampled_from(LABELS) if c == "label" else cells) for c in columns])
    if fault in ("count", "label") and rows:
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "count":
            rows[k] = rows[k][:-1] if draw(st.booleans()) else rows[k] + ["extra"]
        elif "label" in columns:
            rows[k][columns.index("label")] = draw(st.sampled_from(["2", "", "yes"]))
    handle = io.StringIO()
    csv.writer(handle, lineterminator=ending).writerows([columns] + rows)
    data = handle.getvalue().encode("utf-8")
    if fault == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return fields, b"" if fault == "empty" else data


class TestCsvProperty:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(csv_files())
    def test_load_csv_equals_the_row_loop(self, tmp_path_factory, case):
        fields, data = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(data)
        outcomes = []
        for load in (row_loop_load_csv, load_csv):
            try:
                table = load(path, fields, "label")
            except (IngestionError, LabelError) as err:
                outcomes.append((type(err), str(err)))
            else:
                if load is load_csv:
                    rows = [list(row) for row in table.rows()]
                    table = rows, table.labels.tolist(), list(table.lines)
                outcomes.append(table)
        assert outcomes[0] == outcomes[1]


class TestSplit:
    def test_fractions_and_determinism(self):
        fields = two_field_schema()
        rows = [[f"c{i}", f"s{i}"] for i in range(100)]
        labels = [i % 2 for i in range(100)]
        table = RawTable(fields=fields, rows=rows, labels=labels)
        a = split_table(table, (0.6, 0.2, 0.2), seed=7)
        b = split_table(table, (0.6, 0.2, 0.2), seed=7)
        assert [len(p) for p in a] == [60, 20, 20]
        for x, y in zip(a, b):
            assert x.rows == y.rows
        c = split_table(table, (0.6, 0.2, 0.2), seed=8)
        assert c[0].rows != a[0].rows

    def test_partition_is_exact(self):
        fields = two_field_schema()
        rows = [[f"c{i}", "s"] for i in range(37)]
        labels = [1 if i % 3 == 0 else 0 for i in range(37)]
        table = RawTable(fields=fields, rows=rows, labels=labels)
        parts = split_table(table, (0.5, 0.25, 0.25), seed=1)
        seen = sorted(r[0] for p in parts for r in p.rows)
        assert seen == sorted(r[0] for r in rows)
        assert sum(len(p) for p in parts) == 37

    def test_labels_travel_with_rows(self):
        fields = two_field_schema()
        rows = [[f"c{i}", "s"] for i in range(30)]
        labels = [i % 2 for i in range(30)]
        table = RawTable(fields=fields, rows=rows, labels=labels)
        for part in split_table(table, (0.6, 0.2, 0.2), seed=3):
            for row, y in zip(part.rows, part.labels):
                assert y == int(row[0][1:]) % 2

    def test_bad_fractions(self):
        fields = two_field_schema()
        table = RawTable(fields=fields, rows=[["a", "b"]] * 9, labels=[1, 0, 1] * 3)
        with pytest.raises(ConfigError):
            split_table(table, (0.7, 0.2, 0.2), seed=0)
        with pytest.raises(ConfigError):
            split_table(table, (0.9, 0.2, -0.1), seed=0)

    def test_too_few_rows(self):
        fields = two_field_schema()
        table = RawTable(fields=fields, rows=[["a", "b"]], labels=[1])
        with pytest.raises(IngestionError):
            split_table(table, (0.6, 0.2, 0.2), seed=0)


class TestVocabulary:
    def test_reserved_ids(self):
        rows = [["red", "box"], ["blue", "box"]]
        vocab = Vocabulary.build(["color", "shape"], rows)
        assert vocab.encode_value(0, MISSING) == MISSING_ID
        assert vocab.encode_value(0, "never-seen") == UNSEEN_ID
        # first-seen order, learned ids start at 2
        assert vocab.encode_value(0, "red") == 2
        assert vocab.encode_value(0, "blue") == 3
        assert vocab.encode_value(1, "box") == 2

    def test_sizes_include_reserved(self):
        vocab = Vocabulary.build(["color", "shape"], [["red", "box"]])
        assert vocab.sizes() == [3, 3]

    def test_decode_inverse(self):
        vocab = Vocabulary.build(["color", "shape"], [["red", "box"], ["blue", "ball"]])
        for val in ["red", "blue", MISSING]:
            assert vocab.decode(0, vocab.encode_value(0, val)) == val

    def test_decode_unseen_and_out_of_range(self):
        vocab = Vocabulary.build(["color"], [["red"]])
        with pytest.raises(EncodingError):
            vocab.decode(0, UNSEEN_ID)
        with pytest.raises(EncodingError):
            vocab.decode(0, 99)

    def test_encode_rows_matrix(self):
        vocab = Vocabulary.build(["color", "shape"], [["red", "box"], ["blue", ""]])
        card = ExportedModel(two_field_schema(), vocab, {}, SparseLrModel(vocab.sizes()))
        ids = card.encode([["blue", "box"], ["green", ""]])
        assert ids.dtype == np.int32
        assert ids.tolist() == [[3, 2], [UNSEEN_ID, MISSING_ID]]

    def test_tsv_round_trip_with_awkward_characters(self, tmp_path):
        rows = [["re\td", "bo|x"], ["blue", "a,b"], ["new\nline", "c"]]
        vocab = Vocabulary.build(["color", "shape"], rows)
        path = tmp_path / "encoding.txt"
        export_model(path, SparseLrModel(vocab.sizes()), two_field_schema(), vocab, {}, [])
        back = load_exported(path).vocab
        assert back.encode_value(0, "re\td") == 2
        assert back.encode_value(0, "new\nline") == 4
        assert back.encode_value(1, "a,b") == 3
        assert back.sizes() == vocab.sizes()

    def test_encode_table_dataset(self):
        rows = [["red", "box"], ["blue", "ball"]]
        vocab = Vocabulary.build(["color", "shape"], rows[:1])
        ds = vocab.encode_table(code_records(zip(rows, [0, 1], [2, 3]), 2))
        assert isinstance(ds, Dataset)
        assert ds.ids.tolist() == [[2, 2], [UNSEEN_ID, UNSEEN_ID]]
        assert ds.labels.tolist() == [0, 1]
        assert ds.labels.dtype == np.int8

    def test_taken_tables_share_first_seen_values(self):
        rows = [["z", "q"], ["b", ""], ["c", "x"], ["a", "x"], ["b", "x"], ["a", ""]]
        table = code_records(zip(rows, [0, 0, 1, 1, 1, 0], range(2, 8)), 2)
        assert table.values == [["z", "b", "c", "a"], ["q", "", "x"]]
        assert table.codes.tolist() == [[0, 0], [1, 1], [2, 2], [3, 2], [1, 2], [3, 1]]
        assert table.labels.dtype == np.int8 and list(table.lines) == [2, 3, 4, 5, 6, 7]
        one, two = table.take(np.array([1, 3, 4]), np.array([2, 5]))
        assert one.values is two.values and one.values == [["b", "a", "c"], ["", "x"]]
        assert one.codes.tolist() == [[0, 0], [1, 1], [0, 1]]
        assert two.codes.tolist() == [[2, 1], [1, 0]]
        assert two.labels.tolist() == [1, 0] and two.labels.dtype == np.int8
        assert two.first_seen(0) == ["c", "a"] and one.first_seen(1) == ["", "x"]
        assert two.rows() == [("c", "x"), ("a", "")]

    def test_coding_runs_across_blocks(self):
        rows = [[f"v{i % 1500}", str(i % 3)] for i in range(8 * _CODING_BLOCK + 7)]
        table = code_records(zip(rows, [i % 2 for i in range(len(rows))], range(len(rows))), 2)
        assert [len(v) for v in table.values] == [1500, 3]
        assert table.rows() == [tuple(row) for row in rows]
        assert table.labels.tolist() == [i % 2 for i in range(len(rows))]

    def test_codes_are_held_once(self):
        pool = [[f"v{(r * 7 + f) % 37}" for f in range(20)] for r in range(64)]
        records = ((pool[r % 64], r % 2, r + 2) for r in range(150_000))
        tracemalloc.start()
        try:
            table = code_records(records, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Joining per-block matrices peaked at 2.15x the codes here, one growing array at 1.20x.
        assert peak < 1.6 * table.codes.nbytes, f"{peak / table.codes.nbytes:.2f}x the codes"


SPEC = {"ids": (np.int32, 2), "labels": (np.int8, 1)}


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestArrayContainer:
    def test_round_trip_is_exact_and_byte_stable(self, tmp_path):
        ids, labels = np.arange(6, dtype=np.int32).reshape(3, 2), np.array([0, 1, 1], np.int8)
        save_arrays(tmp_path / "a.npz", ids=ids, labels=labels)
        save_arrays(tmp_path / "b.npz", ids=ids.copy(), labels=labels.copy())
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
        back = load_arrays(tmp_path / "a.npz", SPEC)
        assert np.array_equal(back["ids"], ids) and np.array_equal(back["labels"], labels)

    def test_bytes_are_those_of_np_savez(self, tmp_path):
        arrays = dict(
            ids=np.arange(12, dtype=np.int32).reshape(3, 4), labels=np.array([0, 1, 1], np.int8),
            count=np.int64(7), empty=np.empty((0, 3), np.int32), d=np.linspace(-1.0, 1.0, 5),
            fortran=np.asfortranarray(np.arange(12.0).reshape(3, 4)), strided=np.arange(20)[::3],
        )
        np.savez(tmp_path / "numpy.npz", **arrays)
        save_arrays(tmp_path / "ours.npz", **arrays)
        assert (tmp_path / "ours.npz").read_bytes() == (tmp_path / "numpy.npz").read_bytes()

    @pytest.mark.parametrize(
        "write",
        [
            lambda p: save_arrays(p, ids=np.zeros((1, 2), np.int32)),
            lambda p: save_arrays(p, ids=np.zeros((1, 2), np.int32), labels=np.zeros(1, np.int8),
                                  extra=np.zeros(1)),
            lambda p: save_arrays(p, ids=np.zeros((1, 2), np.int64), labels=np.zeros(1, np.int8)),
            lambda p: save_arrays(p, ids=np.zeros(2, np.int32), labels=np.zeros(1, np.int8)),
            lambda p: p.write_bytes(npy_bytes(np.zeros((1, 2), np.int32))),
            lambda p: p.write_text("ids,labels\n1,0\n"),
            lambda p: p.write_bytes(b""),
        ],
        ids=["name-missing", "name-extra", "wrong-dtype", "wrong-ndim", "bare-npy", "text", "empty"],
    )
    def test_bad_container_is_an_ingestion_error_naming_the_path(self, tmp_path, write):
        path = tmp_path / "c.npz"
        write(path)
        with pytest.raises(IngestionError, match="c.npz"):
            load_arrays(path, SPEC)
