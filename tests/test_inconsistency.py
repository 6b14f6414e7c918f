"""Local/global interpretation weights, the D matrix, and the top-quantile mask."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.errors import ConfigError
from dnn2lr.inconsistency import (
    compute_inconsistency,
    expand_global,
    feasible_matrix,
    global_weight_table,
    inconsistency_values,
)
from dnn2lr.network import OUTPUT_IDENTITY, EmbeddingDnn


def global_table_oracle(local, ids, vocab_sizes):
    """Plain-loop mean of local vectors per (field, value)."""
    k, n, m = local.shape
    tables = []
    for f in range(n):
        table = np.zeros((vocab_sizes[f], m))
        for v in range(vocab_sizes[f]):
            mask = ids[:, f] == v
            if mask.any():
                table[v] = local[mask, f, :].mean(axis=0)
        tables.append(table)
    return tables


def feasible_oracle(d, eta):
    """Sort-based reference: keep everything >= the ceil(eta*N)-th largest."""
    flat = np.sort(d.ravel())[::-1]
    count = int(math.ceil(Fraction(str(eta)) * len(flat)))
    cut = flat[count - 1]
    return d >= cut


class TestGlobalTable:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        sizes = [7, 5, 9]
        local = rng.normal(size=(60, 3, 4))
        ids = np.stack([rng.integers(0, v, size=60) for v in sizes], axis=1).astype(np.int32)
        got = global_weight_table(local, ids, sizes)
        want = global_table_oracle(local, ids, sizes)
        assert np.array_equal(got, np.concatenate(want))

    def test_unused_values_stay_zero(self):
        local = np.ones((4, 1, 2))
        ids = np.full((4, 1), 3, dtype=np.int32)
        table = global_weight_table(local, ids, [6])
        assert np.all(table[[0, 1, 2, 4, 5]] == 0.0)
        assert np.allclose(table[3], 1.0)

    def test_expand_is_lookup(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(5 + 4, 3))  # field 1's rows start at 5
        ids = np.array([[0, 3], [4, 1]], dtype=np.int32)
        out = expand_global(table, ids, [5, 4])
        assert np.array_equal(out[0, 0], table[0])
        assert np.array_equal(out[0, 1], table[5 + 3])
        assert np.array_equal(out[1, 1], table[5 + 1])


class TestDMatrix:
    def test_scalar_mode_definition(self):
        rng = np.random.default_rng(2)
        local = rng.normal(size=(10, 3, 4))
        glob = rng.normal(size=(10, 3, 4))
        emb = rng.normal(size=(10, 3, 4))
        d = inconsistency_values(local, glob, emb)
        for k in range(10):
            for f in range(3):
                want = float((local[k, f] - glob[k, f]) @ emb[k, f]) ** 2
                assert d[k, f] == pytest.approx(want, abs=1e-12)
        rng = np.random.default_rng(4)
        draws = [rng.normal(size=(50, 4, 5)) for _ in range(3)]
        assert np.all(inconsistency_values(*draws) >= 0)

    def test_value_constant_column_has_zero_inconsistency(self):
        # if a field shows one single value, local == global mean for it only
        # when all gradients agree; with one sample per value d is exactly 0
        rng = np.random.default_rng(5)
        model = EmbeddingDnn([12, 12], embedding_dim=3, hidden=(8,), seed=0)
        ids = np.stack([np.arange(2, 12), np.full(10, 4)], axis=1).astype(np.int32)
        res = compute_inconsistency(model, ids)
        # field 0: every value occurs once, so w_local == w_global exactly
        assert np.allclose(res.d[:, 0], 0.0, atol=1e-24)

    def test_additive_identity_network_is_consistent(self):
        # the canonical zero case: no interactions means local weights depend
        # only on the field's own value, so D vanishes identically
        rng = np.random.default_rng(6)
        model = EmbeddingDnn.additive([10, 10, 10], embedding_dim=3, output=OUTPUT_IDENTITY, seed=3)
        ids = rng.integers(2, 10, size=(300, 3)).astype(np.int32)
        res = compute_inconsistency(model, ids, space="logit")
        assert res.d.max() <= 1e-20


class TestFeasible:
    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            k = int(rng.integers(2, 40))
            n = int(rng.integers(1, 8))
            d = rng.exponential(size=(k, n))
            eta = float(rng.choice([0.01, 0.05, 0.1, 0.25, 0.5]))
            got = feasible_matrix(d, eta)
            assert np.array_equal(got, feasible_oracle(d, eta))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 20).map(lambda v: v / 10), min_size=n, max_size=n),
                min_size=1, max_size=25,
            )
        ),
        st.integers(1, 99).map(lambda v: v / 100),
    )
    def test_matches_sort_oracle_on_one_decimal_d(self, rows, eta):
        # 21 distinct values over up to 200 entries: ties at the cut are common
        d = np.array(rows)
        assert np.array_equal(feasible_matrix(d, eta), feasible_oracle(d, eta))

    def test_exact_integer_boundary(self):
        # eta * N integral: exactly that many entries marked when values distinct
        d = np.arange(40, dtype=np.float64).reshape(8, 5) + 1.0
        mask = feasible_matrix(d, 0.1)
        assert mask.sum() == 4
        assert set(d[mask]) == {37.0, 38.0, 39.0, 40.0}

    def test_ties_at_cut_all_kept(self):
        d = np.array([[5.0, 5.0, 5.0, 1.0, 0.5]])
        mask = feasible_matrix(d, 0.2)  # ceil(1) = 1 requested
        assert mask.sum() == 3  # the tie block rides along

    def test_float_spill_guard(self):
        # 0.05 * 80000 lands at 4000.0000000000005 in floats; ceil must not
        # round that up to 4001
        d = np.arange(80000, dtype=np.float64).reshape(400, 200)
        mask = feasible_matrix(d, 0.05)
        assert mask.sum() == 4000

    def test_bad_eta(self):
        d = np.ones((2, 2))
        for eta in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ConfigError):
                feasible_matrix(d, eta)
