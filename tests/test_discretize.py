"""Equal-frequency binning and granularity selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.discretize import (
    GRANULARITIES,
    BinEdges,
    _single_field_valid_auc,
    apply_edges,
    bin_index,
    bin_of,
    fit_equal_frequency,
    parse_number,
    select_granularity,
)
from dnn2lr.crosslr import SparseLrModel
from dnn2lr.data import NUMERICAL, FieldSchema, Vocabulary
from dnn2lr.errors import DiscretizationError, IngestionError, UndefinedMetricError
from dnn2lr.metrics import auc
from dnn2lr.model_io import export_model, load_exported


def bin_index_oracle(cuts, v):
    """Count of cut points strictly below v (ties land in the lower bin)."""
    return sum(1 for c in cuts if c < v)


def probe_auc_oracle(train_codes, train_labels, valid_codes, valid_labels, n_codes):
    """The granularity probe as a per-row loop: exp and the residual taken for every row."""
    w = np.zeros(n_codes)
    b = 0.0
    y = np.asarray(train_labels, dtype=np.float64)
    k = y.size
    for _ in range(300):
        z = w[train_codes] + b
        p = 1.0 / (1.0 + np.exp(-z))
        residual = p - y
        grad_w = np.bincount(train_codes, weights=residual, minlength=n_codes) / k
        w -= 0.5 * (grad_w + 1e-6 * w)
        b -= 0.5 * float(residual.mean())
    try:
        return auc(valid_labels, w[valid_codes] + b)
    except UndefinedMetricError:
        return 0.5


class TestParseNumber:
    def test_basic(self):
        out = [parse_number(cell) for cell in ["1.5", " 2 ", "", "-3e2"]]
        assert out[0] == 1.5 and out[1] == 2.0 and out[3] == -300.0
        assert np.isnan(out[2])

    def test_garbage_raises(self):
        with pytest.raises(IngestionError, match="age"):
            parse_number("abc", field_name="age")


class TestFit:
    def test_cut_count_bound(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        for g in GRANULARITIES:
            edges = fit_equal_frequency(values, g)
            assert len(edges.cuts) <= g - 1
            assert list(edges.cuts) == sorted(set(edges.cuts))

    def test_equal_frequency_on_distinct_values(self):
        # 100 distinct values, g=10: each bin should catch ~10
        values = np.arange(100, dtype=np.float64)
        edges = fit_equal_frequency(values, 10)
        idx = bin_index(edges, values)
        counts = np.bincount(idx, minlength=edges.n_bins())
        assert counts.min() >= 9 and counts.max() <= 11

    def test_heavy_ties_collapse(self):
        values = np.array([1.0] * 90 + [2.0] * 10)
        edges = fit_equal_frequency(values, 10)
        # quantiles 0.1..0.8 all collapse onto 1.0; far fewer than 9 cuts remain
        assert len(edges.cuts) <= 2

    def test_constant_column_single_bin(self):
        edges = fit_equal_frequency(np.array([5.0] * 20), 100)
        assert edges.cuts == ()
        assert edges.n_bins() == 1

    def test_all_missing_raises(self):
        with pytest.raises(DiscretizationError):
            fit_equal_frequency(np.array([np.nan, np.nan]), 10)

    def test_bad_granularity(self):
        with pytest.raises(DiscretizationError):
            fit_equal_frequency(np.array([1.0, 2.0]), 1)

    def test_non_increasing_cuts_rejected(self):
        with pytest.raises(DiscretizationError):
            BinEdges(field=0, granularity=10, cuts=(1.0, 1.0))


class TestBinIndex:
    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            raw = np.round(rng.normal(size=200), 1)
            edges = fit_equal_frequency(raw, int(rng.choice([10, 100])))
            probes = np.round(rng.normal(size=50), 2)
            got = bin_index(edges, probes)
            want = [bin_index_oracle(edges.cuts, v) for v in probes]
            assert got.tolist() == want

    def test_boundary_value_goes_low(self):
        edges = BinEdges(field=0, granularity=10, cuts=(1.0, 2.0))
        assert bin_index(edges, np.array([0.5, 1.0, 1.5, 2.0, 9.0])).tolist() == [0, 0, 1, 1, 2]

    def test_nan_flagged(self):
        edges = BinEdges(field=0, granularity=10, cuts=(1.0,))
        assert bin_index(edges, np.array([np.nan])).tolist() == [-1]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        cuts=st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]), unique=True),
        values=st.lists(st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 0.5, 0.7, 3.0, np.inf, np.nan])),
    )
    def test_scalar_bin_of_matches_bin_index(self, cuts, values):
        edges = BinEdges(field=0, granularity=10, cuts=tuple(sorted(cuts)))
        assert [bin_of(edges, v) for v in values] == bin_index(edges, np.array(values)).tolist()

    def test_apply_edges_labels(self):
        edges = BinEdges(field=0, granularity=10, cuts=(1.0,))
        assert apply_edges(edges, np.array([0.0, 5.0, np.nan])) == ["b0", "b1", ""]


class TestSelectGranularity:
    def test_prefers_informative_granularity(self):
        # label = 1 iff value in upper half of each 0.1-wide cell: g=10 bins
        # destroy the signal, g=100 bins recover it.
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=4000)
        y = ((x * 100).astype(int) % 10 >= 5).astype(np.int8)
        g, edges = select_granularity(x[:3000], y[:3000], x[3000:], y[3000:])
        assert g >= 100
        assert edges.granularity == g

    def test_ties_take_smallest(self):
        # constant column: every granularity yields one bin and AUC 0.5
        x = np.full(300, 7.0)
        y = np.array([0, 1] * 150, dtype=np.int8)
        g, edges = select_granularity(x[:200], y[:200], x[200:], y[200:])
        assert g == min(GRANULARITIES)
        assert edges.cuts == ()

    def test_training_labels_other_than_0_and_1_are_refused(self):
        x = np.arange(20, dtype=np.float64)
        y = np.array([0, 1, 2, 1] * 5, dtype=np.int8)
        with pytest.raises(DiscretizationError, match="0 or 1"):
            select_granularity(x, y, x, y % 2)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=600)
        y = (x + rng.normal(scale=0.3, size=600) > 0).astype(np.int8)
        first = select_granularity(x[:400], y[:400], x[400:], y[400:])
        second = select_granularity(x[:400], y[:400], x[400:], y[400:])
        assert first[0] == second[0]
        assert first[1] == second[1]


@st.composite
def probes(draw):
    """Bin codes and 0/1 labels of a train and a valid split, some bins empty."""
    n_codes = draw(st.integers(1, 40))
    code = st.integers(0, n_codes - 1)
    train = draw(st.lists(st.tuples(code, st.integers(0, 1)), min_size=1, max_size=300))
    valid = draw(st.lists(st.tuples(code, st.integers(0, 1)), min_size=1, max_size=100))
    arrays = [np.array(part, dtype=np.int64).reshape(-1, 2) for part in (train, valid)]
    return (arrays[0][:, 0], arrays[0][:, 1].astype(np.int8), arrays[1][:, 0],
            arrays[1][:, 1].astype(np.int8), n_codes)


class TestProbe:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(probes())
    def test_per_bin_probe_equals_per_row_loop_to_the_bit(self, probe):
        assert _single_field_valid_auc(*probe) == probe_auc_oracle(*probe)

    def test_workload_shaped_probe_equals_loop(self):
        rng = np.random.default_rng(4)
        x = rng.lognormal(size=6000)
        y = (rng.random(6000) < 1 / (1 + np.exp(-np.log(x)))).astype(np.int8)
        for g in GRANULARITIES:
            edges = fit_equal_frequency(x[:4000], g)
            tr, va = bin_index(edges, x[:4000]), bin_index(edges, x[4000:])
            probe = (tr, y[:4000], va, y[4000:], edges.n_bins())
            assert _single_field_valid_auc(*probe) == probe_auc_oracle(*probe)


class TestEdgesIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        by_name = {
            "age": fit_equal_frequency(rng.normal(size=100), 10, field=0),
            "income": fit_equal_frequency(rng.exponential(size=100), 100, field=1),
        }
        fields = [FieldSchema("age", 0, NUMERICAL), FieldSchema("income", 1, NUMERICAL)]
        vocab = Vocabulary.build(["age", "income"], [])
        path = tmp_path / "encoding.txt"
        export_model(path, SparseLrModel(vocab.sizes()), fields, vocab, by_name, [])
        back = load_exported(path).edges_by_name
        assert back.keys() == by_name.keys()
        for name in by_name:
            assert back[name] == by_name[name]
