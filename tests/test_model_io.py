"""The exported scorecard file: write, read back, score raw rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.crosslr import SparseLrModel, split_keys
from dnn2lr.data import (
    CATEGORICAL,
    MISSING_ID,
    NUMERICAL,
    FieldSchema,
    Vocabulary,
    escape,
    unescape,
)
from dnn2lr.discretize import BinEdges, apply_edges, bin_labels, bin_of, parse_number
from dnn2lr.errors import ConfigError, EncodingError, IngestionError
from dnn2lr.cli import main
from dnn2lr.model_io import ExportedModel, _split_escaped, export_model, load_exported
from dnn2lr.network import stable_sigmoid


def encode_rows(vocab: Vocabulary, rows) -> np.ndarray:
    """Each row's cells looked up one at a time: the old row encoder of the vocabulary."""
    flat = (vocab.encode_value(f, value) for row in rows for f, value in enumerate(row))
    ids = np.fromiter(flat, dtype=np.int32, count=len(rows) * vocab.n_fields)
    return ids.reshape(len(rows), vocab.n_fields)


def row_by_row_encode(card: ExportedModel, rows) -> np.ndarray:
    """ExportedModel.encode as it was: every cell looked up, then each row's numbers binned."""
    ids = encode_rows(card.vocab, rows)
    numeric = []
    for f in card.fields:
        if f.kind == NUMERICAL:
            edges = card.edges_by_name[f.name]
            bins = [card.vocab.encode_value(f.index, label) for label in bin_labels(edges)]
            numeric.append((f, edges, bins + [MISSING_ID]))
    if numeric and rows:
        ids[:, [f.index for f, _, _ in numeric]] = [
            [bins[bin_of(e, parse_number(row[f.index], f.name))] for f, e, bins in numeric]
            for row in rows
        ]
    return ids


def small_setup():
    """Two categorical fields and one numerical, a few weights, one cross."""
    fields = [
        FieldSchema("color", 0, CATEGORICAL),
        FieldSchema("age", 1, NUMERICAL),
        FieldSchema("shape", 2, CATEGORICAL),
    ]
    rows = [
        ["red", "b0", "box"],
        ["blue", "b1", "ball"],
        ["red", "b1", "ball"],
    ]
    vocab = Vocabulary.build([f.name for f in fields], rows)
    model = SparseLrModel(vocab.sizes())
    model.bias = -0.25
    model.field_weights[0][:] = [0.05, 0.0, 0.3, -0.3]  # missing, unseen, red, blue
    model.field_weights[1][:] = [0.0, 0.0, 0.11, -0.07]
    model.field_weights[2][:] = [0.0, 0.0, 0.2, -0.2]
    model.attach_cross((0, 2), [[2, 2], [3, 3]], [0.9, -0.9])
    edges = {"age": BinEdges(field=1, granularity=10, cuts=(40.0,))}
    return fields, vocab, model, edges


class TestExport:
    def test_file_layout(self, tmp_path):
        fields, vocab, model, edges = small_setup()
        path = tmp_path / "model.txt"
        export_model(path, model, fields, vocab, edges, selected=[(0, 2)])
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        tags = [line.split("\t")[0] for line in lines[1:]]
        assert tags.count("field") == 3
        assert tags.count("edges") == 1
        assert tags.count("cross") == 1
        assert tags.count("cw") == 2
        # unseen-id weights never surface: 3 values + missing per field
        assert tags.count("w") == 9
        assert "bias\t-0.25" in text

    def test_byte_deterministic(self, tmp_path):
        fields, vocab, model, edges = small_setup()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        export_model(a, model, fields, vocab, edges, selected=[(0, 2)])
        export_model(b, model, fields, vocab, edges, selected=[(0, 2)])
        assert a.read_bytes() == b.read_bytes()

    def test_unselected_crosses_left_out(self, tmp_path):
        fields, vocab, model, edges = small_setup()
        model.attach_cross((1, 2), [[2, 2]], [0.1])
        path = tmp_path / "model.txt"
        export_model(path, model, fields, vocab, edges, selected=[(0, 2)])
        assert "cross\tage" not in path.read_text()

    def test_missing_edges_rejected(self, tmp_path):
        fields, vocab, model, _ = small_setup()
        with pytest.raises(ConfigError):
            export_model(tmp_path / "m.txt", model, fields, vocab, {}, selected=[])


class TestRoundTrip:
    def test_scores_survive_the_file(self, tmp_path):
        fields, vocab, model, edges = small_setup()
        path = tmp_path / "model.txt"
        export_model(path, model, fields, vocab, edges, selected=[(0, 2)])
        back = load_exported(path)

        raw_rows = [
            ["red", "35", "box"],   # age 35 -> b0
            ["blue", "52", "ball"],  # age 52 -> b1
            ["red", "", "ball"],     # missing age
            ["green", "10", "box"],  # unseen color scores zero for that field
        ]
        # independent recomputation against the in-memory sparse model
        ids = encode_rows(
            vocab,
            [
                ["red", "b0", "box"],
                ["blue", "b1", "ball"],
                ["red", "", "ball"],
                ["green", "b0", "box"],
            ]
        )
        want = stable_sigmoid(model.logits(ids))
        got = back.score_rows(raw_rows)
        assert np.allclose(got, want, atol=0)

    def test_weights_lossless(self, tmp_path):
        fields, vocab, model, edges = small_setup()
        model.field_weights[0][2] = 0.1 + 0.2  # 0.30000000000000004
        path = tmp_path / "model.txt"
        export_model(path, model, fields, vocab, edges, selected=[])
        back = load_exported(path)
        assert back.model.field_weights[0][back.vocab.encode_value(0, "red")] == 0.1 + 0.2

    def test_awkward_value_strings(self, tmp_path):
        fields = [FieldSchema("f", 0, CATEGORICAL)]
        rows = [["a,b"], ["c|d"], ["e\tf"]]
        vocab = Vocabulary.build(["f"], rows)
        model = SparseLrModel(vocab.sizes())
        model.field_weights[0][:] = [0.0, 0.0, 1.0, 2.0, 3.0]
        path = tmp_path / "model.txt"
        export_model(path, model, fields, vocab, {}, selected=[])
        back = load_exported(path)
        assert back.logits([["a,b"], ["c|d"], ["e\tf"]]).tolist() == [1.0, 2.0, 3.0]

    def test_cross_members_and_keys_round_trip(self, tmp_path):
        fields, vocab, model, edges = small_setup()
        path = tmp_path / "model.txt"
        export_model(path, model, fields, vocab, edges, selected=[(0, 2)])
        back = load_exported(path)
        assert back.model.cross_fields == [(0, 2)]
        ids = back.encode([["red", "1", "box"], ["blue", "1", "ball"], ["red", "1", "ball"]])
        assert back.model.compile().cross_terms(ids).tolist() == [[0.9], [-0.9], [0.0]]


def load_text(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    return load_exported(path)


XY_MODEL = (
    "bias\t{bias}\nfield\t0\tx\tcategorical\nfield\t1\ty\tcategorical\n"
    "w\tx\ta\t{wa}\nw\ty\tb\t0.0\ncross\tx,y\ncw\tx,y\ta|b\t2.0\n"
)


class TestScoring:
    def test_unknown_combination_scores_zero(self, tmp_path):
        model = load_text(tmp_path, XY_MODEL.format(bias=0.5, wa=1.0))
        got = model.logits([["a", "b"], ["a", "z"], ["q", "q"]])
        assert got.tolist() == [3.5, 1.5, 0.5]

    def test_include_cross_flag(self, tmp_path):
        model = load_text(tmp_path, XY_MODEL.format(bias=0.0, wa=0.0))
        row = [["a", "b"]]
        assert model.logits(row, include_cross=True).tolist() == [2.0]
        assert model.logits(row, include_cross=False).tolist() == [0.0]

    def test_numerical_binning_at_score_time(self, tmp_path):
        model = load_text(
            tmp_path,
            "bias\t0.0\nfield\t0\tage\tnumerical\nedges\tage\t10\t30.0,60.0\n"
            "w\tage\t\t9.0\nw\tage\tb0\t-1.0\nw\tage\tb1\t0.0\nw\tage\tb2\t1.0\n",
        )
        got = model.logits([["20"], ["30"], ["45"], ["75"], [""]])
        assert got.tolist() == [-1.0, -1.0, 0.0, 1.0, 9.0]
        assert model.logits([]).tolist() == []

    @pytest.mark.parametrize("bad", [["a", "b", "c"], ["a"]], ids=["long", "short"])
    @pytest.mark.parametrize("where", [0, 1], ids=["alone", "mid-batch"])
    def test_row_of_wrong_length_refused(self, tmp_path, bad, where):
        model = load_text(tmp_path, XY_MODEL.format(bias=0.5, wa=1.0))
        rows = [bad] if where == 0 else [["a", "b"], bad, ["a", "z"]]
        with pytest.raises(EncodingError, match=f"row {where} holds {len(bad)} cells, expected 2"):
            model.score_rows(rows)


class TestLoadErrors:
    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# something\n")
        with pytest.raises(IngestionError):
            load_exported(path)

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("bias\t0.0\nfield\t0\tx\tcategorical\nwhat\t1\n")
        with pytest.raises(IngestionError) as exc:
            load_exported(path)
        assert "line 3" in str(exc.value)

    def test_cw_before_cross(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("bias\t0.0\nfield\t0\tx\tcategorical\ncw\tx,y\ta|b\t0.5\n")
        with pytest.raises(IngestionError):
            load_exported(path)

    def test_bad_float(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("bias\tzero\n")
        with pytest.raises(IngestionError):
            load_exported(path)


class TestLoadValidation:
    """Each bad model file fails through the CLI with one error line, exit 1."""

    @pytest.mark.parametrize(
        "text",
        [
            XY_MODEL.format(bias="nan", wa=1.0),
            XY_MODEL.format(bias=0.5, wa="inf"),
            XY_MODEL.format(bias=0.5, wa=1.0).replace("a|b\t2.0", "a|b\t-inf"),
            XY_MODEL.format(bias=0.5, wa=1.0).replace("a|b", "a|c"),
            XY_MODEL.format(bias=0.5, wa=1.0).replace("x,y", "x,zz"),
            XY_MODEL.format(bias=0.5, wa=1.0).replace(
                "0\tx\tcategorical", "0\tx\tnumerical\nedges\tx\t10\tnan,1.0"
            ),
            XY_MODEL.format(bias=0.5, wa=1.0).replace(
                "0\tx\tcategorical", "0\tx\tnumerical\nedges\tx\t10\tnan"
            ),
        ],
        ids=["nan-bias", "inf-w", "inf-cw", "cw-value-without-w-line", "cross-unknown-field",
             "nan-cut", "lone-nan-cut"],
    )
    def test_rejected_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        data = tmp_path / "d.csv"
        data.write_text("x,y,label\n0.5,b,1\n2,q,0\n")
        code = main(["evaluate", "--model", str(path), "--data", str(data), "--label", "label"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ingest: ")


AWKWARD = st.text(alphabet="ab\t,|\\\n", max_size=3)
NUMBERS = ["", "-1.5", "0", "2", " 2.5 ", "3", "10", "nan"]


@st.composite
def scorecards(draw):
    """A random schema, training rows, a trained-looking model and raw rows to score."""
    n_cat = draw(st.integers(1, 10))  # over 8 terms, a pairwise sum would show
    names = draw(st.lists(st.text(alphabet="xy\t,|\\\n", min_size=1, max_size=3),
                          min_size=n_cat + 1, max_size=n_cat + 1, unique=True))
    fields = [FieldSchema(name, i, CATEGORICAL) for i, name in enumerate(names[:-1])]
    fields.append(FieldSchema(names[-1], n_cat, NUMERICAL))
    cuts = tuple(sorted(draw(st.sets(st.sampled_from([-1.0, 0.0, 2.0, 2.5, 5.0]), max_size=3))))
    edges = BinEdges(field=n_cat, granularity=10, cuts=cuts)
    row = st.tuples(*[AWKWARD] * n_cat, st.sampled_from(NUMBERS)).map(list)
    train = draw(st.lists(row, min_size=1, max_size=12))
    scored = train + draw(st.lists(row, max_size=6))  # unseen values among them

    def binned(rows):
        numbers = np.array([parse_number(r[-1]) for r in rows])
        return [r[:-1] + [label] for r, label in zip(rows, apply_edges(edges, numbers))]

    vocab = Vocabulary.build(names, binned(train))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = SparseLrModel(vocab.sizes())
    model.bias = float(rng.normal())
    for w in model.field_weights:
        w[:] = rng.normal(size=w.size)
        w[1] = 0.0  # the unseen id is never trained
    train_ids = encode_rows(vocab, binned(train))
    crosses = draw(st.lists(st.lists(st.integers(0, n_cat), min_size=2, max_size=4, unique=True)
                            .map(lambda c: tuple(sorted(c))), max_size=3, unique=True))
    for cross in crosses:
        combos = np.unique(train_ids[:, list(cross)], axis=0)
        keep = combos[rng.random(len(combos)) < 0.7]
        model.attach_cross(cross, keep, rng.normal(size=len(keep)))
    selected = draw(st.permutations(crosses))
    return fields, vocab, edges, model, selected, scored, encode_rows(vocab, binned(scored))


class TestScorerProperty:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(scorecards())
    def test_file_scorer_equals_id_scorer_exactly(self, tmp_path_factory, card):
        fields, vocab, edges, model, selected, raw, ids = card
        path = tmp_path_factory.mktemp("card") / "model.txt"
        export_model(path, model, fields, vocab, {fields[-1].name: edges}, selected)
        back = load_exported(path)
        got = back.logits(raw)
        assert got.tolist() == model.logits(ids, active=selected).tolist()
        plain = back.logits(raw, include_cross=False)
        assert plain.tolist() == model.logits(ids, active=[]).tolist()
        # reference loop: bias + (fields in index order + crosses in file order)
        for k, row in enumerate(ids.tolist()):
            total = 0.0
            for f, fid in enumerate(row):
                total += model.field_weights[f][fid]
            for cross in selected:
                j = model.cross_index(cross)
                combos = split_keys(model.cross_keys[j], [vocab.size(f) for f in cross])
                table = dict(zip(map(tuple, combos.tolist()), model.cross_weights[j].tolist()))
                total += table.get(tuple(row[f] for f in cross), 0.0)
            assert got[k] == model.bias + total

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="ab\t\n\r,|\\"), min_size=1), st.sampled_from(",|"))
    def test_escaped_split_round_trip(self, values, sep):
        text = sep.join(escape(v) for v in values)
        assert [unescape(p) for p in _split_escaped(text, sep)] == values


ODD_TEXT = "ab\t\n\r|,\\é中 "


@st.composite
def encodings(draw):
    """A schema with awkward names, a vocabulary of awkward values, sorted finite cuts."""
    names = draw(st.lists(st.text(alphabet=ODD_TEXT, min_size=1, max_size=4),
                          min_size=1, max_size=5, unique=True))
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, NUMERICAL]),
                          min_size=len(names), max_size=len(names)))
    fields = [FieldSchema(name, i, kind) for i, (name, kind) in enumerate(zip(names, kinds))]
    finite = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
    edges = {}
    cells = []
    for f in fields:
        if f.kind == NUMERICAL:
            cuts = tuple(sorted(draw(st.lists(finite, max_size=4, unique=True))))
            edges[f.name] = BinEdges(field=f.index, granularity=draw(st.integers(2, 1000)),
                                     cuts=cuts)
            cells.append(st.sampled_from(["", *bin_labels(edges[f.name])]))
        else:
            cells.append(st.text(alphabet=ODD_TEXT, max_size=3))
    rows = draw(st.lists(st.tuples(*cells).map(list), max_size=12))
    return fields, Vocabulary.build(names, rows), edges


class TestEncodingFile:
    """discretize's vocabulary and bin edges: a scorecard with every weight 0.0."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(encodings())
    def test_round_trip(self, tmp_path_factory, encoding):
        fields, vocab, edges = encoding
        folder = tmp_path_factory.mktemp("encoding")
        path, again = folder / "encoding.txt", folder / "again.txt"
        export_model(path, SparseLrModel(vocab.sizes()), fields, vocab, edges, [])
        back = load_exported(path)
        assert back.fields == fields
        assert back.vocab.sizes() == vocab.sizes()
        for f in range(vocab.n_fields):
            values = [vocab.decode(f, fid) for fid in range(2, vocab.size(f))]
            assert [back.vocab.encode_value(f, v) for v in values] == list(range(2, vocab.size(f)))
        assert back.edges_by_name == edges
        export_model(again, SparseLrModel(back.vocab.sizes()), back.fields, back.vocab,
                     back.edges_by_name, [])
        assert again.read_bytes() == path.read_bytes()


ON_CUTS = [-3.0, 0.0, 1.5, 2.0, 7.25]
NUMBER_CELLS = ["", "  ", "0", "-0.0", "0.0", "-0", "1.5", " 1.5", "1.5 ", "2", "2.0", "-3",
                "7.25", "7.3", "-1e9", "1e9", "inf", "-inf", "nan", "NaN", "0.75"]
BAD_NUMBERS = ["abc", "1,5", "--1", "b0"]


@st.composite
def cards_and_batches(draw):
    """A loaded scorecard of mixed kinds, and a batch of raw rows to encode with it."""
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, NUMERICAL]), min_size=1, max_size=5))
    fields = [FieldSchema(f"f{i}", i, kind) for i, kind in enumerate(kinds)]
    edges, numbers = {}, NUMBER_CELLS + (BAD_NUMBERS if draw(st.booleans()) else [])
    for f in fields:
        if f.kind == NUMERICAL:
            cuts = sorted(draw(st.sets(st.sampled_from(ON_CUTS), max_size=4)))
            if 0.0 in cuts and draw(st.booleans()):
                cuts[cuts.index(0.0)] = -0.0
            edges[f.name] = BinEdges(field=f.index, granularity=10, cuts=tuple(cuts))
    learned = [  # some bins left out of the vocabulary: their id is the unseen one
        st.sampled_from(bin_labels(edges[f.name])) if f.kind == NUMERICAL
        else st.text(alphabet="ab ,", max_size=2)
        for f in fields
    ]
    train = draw(st.lists(st.tuples(*learned).map(list), max_size=8))
    vocab = Vocabulary.build([f.name for f in fields], train)
    card = ExportedModel(fields, vocab, edges, SparseLrModel(vocab.sizes()))
    raw = [  # categories unseen in training among them; few distinct numbers, so repeats
        st.sampled_from(numbers) if f.kind == NUMERICAL else st.text(alphabet="ab ,c", max_size=2)
        for f in fields
    ]
    return card, draw(st.lists(st.tuples(*raw).map(list), max_size=30))


class TestEncoderProperty:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(cards_and_batches())
    def test_one_pass_encode_equals_row_by_row(self, case):
        card, rows = case
        try:
            want = row_by_row_encode(card, rows)
        except IngestionError:
            with pytest.raises(IngestionError):
                card.encode(rows)
            return
        assert np.array_equal(card.encode(rows), want)
        assert card.encode([]).shape == (0, len(card.fields))
        for k, row in enumerate(rows):
            assert np.array_equal(card.encode([row]), want[k : k + 1])
