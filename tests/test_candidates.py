"""Candidate subset counting, ranking, and the candidate file format."""

import math
import tracemalloc
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.candidates import (
    CrossFieldCandidate,
    candidate_space_size,
    enumerate_candidates,
    load_candidates,
    save_candidates,
    top_epsilon,
)
from dnn2lr.errors import ConfigError, IngestionError
from dnn2lr.inconsistency import feasible_matrix


def enumerate_oracle(feasible, d=None, cap=None):
    """Straight re-derivation: tuples into a Counter, after the cap when one is given."""
    counts = Counter()
    for k, row in enumerate(feasible):
        fields = [i for i, flag in enumerate(row) if flag]
        if cap is not None and len(fields) > cap:
            fields = sorted(sorted(fields, key=lambda f: (-d[k][f], f))[:cap])
        for order in range(2, 5):
            counts.update(combinations(fields, order))
    return counts


def top_oracle(counts, epsilon):
    """Every subset sorted by (-count, order, fields), cut at epsilon."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], len(item[0]), item[0]))
    return [(fields, count) for fields, count in ranked[:epsilon]]


@st.composite
def feasible_cases(draw):
    """A feasible matrix, a D with few distinct values (ties at the cap), and a cap (n: none)."""
    k, n = draw(st.integers(0, 25)), draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.1, 0.4, 0.8]))
    cells = draw(st.lists(st.floats(0, 1), min_size=k * n, max_size=k * n))
    feasible = np.array(cells, dtype=np.float64).reshape(k, n) < density
    d = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=k * n,
                               max_size=k * n))).reshape(k, n)
    cap = draw(st.integers(0, 8) | st.just(n))
    return feasible, d, cap


class TestSpaceSize:
    def test_binomials(self):
        assert candidate_space_size(100, 2) == math.comb(100, 2)
        assert candidate_space_size(10, 3) == 120
        assert candidate_space_size(5, 4) == 5

    def test_order_bounds(self):
        for order in (1, 5):
            with pytest.raises(ConfigError):
                candidate_space_size(10, order)


class TestEnumerate:
    def test_matches_oracle_without_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            feasible = rng.random(size=(30, 10)) < 0.3
            got = enumerate_candidates(feasible, rng.random(size=feasible.shape))
            assert got == enumerate_oracle(feasible)

    def test_single_feasible_field_contributes_nothing(self):
        feasible = np.zeros((3, 5), dtype=bool)
        feasible[0, 2] = True
        assert enumerate_candidates(feasible, np.ones((3, 5))) == Counter()

    def test_field_cap_keeps_highest_d(self):
        feasible = np.ones((1, 6), dtype=bool)
        d = np.array([[0.1, 0.9, 0.2, 0.8, 0.3, 0.7]])
        got = enumerate_candidates(feasible, inconsistency=d, field_cap=3)
        # survivors: fields 1, 3, 5, in ascending order inside each subset
        assert set(k for k in got if len(k) == 2) == {(1, 3), (1, 5), (3, 5)}
        assert (1, 3, 5) in got

    def test_field_cap_tie_breaks_low_index(self):
        feasible = np.ones((1, 4), dtype=bool)
        d = np.array([[0.5, 0.5, 0.5, 0.9]])
        got = enumerate_candidates(feasible, inconsistency=d, field_cap=2)
        assert set(got) == {(0, 3)}

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(feasible_cases())
    def test_matches_tuple_counter_with_and_without_cap(self, case):
        feasible, d, cap = case
        got = enumerate_candidates(feasible, d, field_cap=cap)
        want = enumerate_oracle(feasible, d, cap)
        assert got == want and want == got
        assert len(got) == len(want) and sum(got.values()) == sum(want.values())
        assert all(got[fields] == count for fields, count in want.items())

    def test_order_4_codes_use_the_full_radix(self):
        # n**2 + n**3 + n**4 is just below 2**63 at n = 55,000: the top key is near the limit.
        n = 55_000
        feasible = np.zeros((3, n), dtype=bool)
        feasible[0, [0, 1, n - 2, n - 1]] = True
        feasible[1, [2, n - 4, n - 3, n - 2, n - 1]] = True
        feasible[2, [n - 3, n - 1]] = True
        d = np.zeros(feasible.shape)
        got = enumerate_candidates(feasible, d)
        assert got == enumerate_oracle(feasible)
        assert got[(n - 4, n - 3, n - 2, n - 1)] == 1 and got[(n - 2, n - 1)] == 2
        top = [c.fields for c in top_epsilon(got, 3)]
        assert top == [(n - 3, n - 1), (n - 2, n - 1), (0, 1)]

    def test_too_many_fields_for_int64_keys(self):
        with pytest.raises(ConfigError):
            enumerate_candidates(np.zeros((1, 56_000), dtype=bool), np.zeros((1, 56_000)))

    def test_peak_memory_at_eta_0_2(self):
        # Seeded random 2,400 x 101 D at eta 0.2, cap 20: 11.6M subsets, 3.8M distinct.
        # Tuples in a Counter peaked at 452 MB here; int64 keys in first-field
        # chunks peak near 100 MB.
        d = np.random.default_rng(0).random((2400, 101))
        feasible = feasible_matrix(d, 0.2)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            got = enumerate_candidates(feasible, d, field_cap=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert (len(got), sum(got.values())) == (3_808_306, 11_644_170)
        assert peak < 140e6

    def test_shape_guards(self):
        with pytest.raises(ConfigError):
            enumerate_candidates(np.ones(4, dtype=bool), np.ones(4))
        with pytest.raises(ConfigError):
            enumerate_candidates(np.ones((2, 3), dtype=bool), inconsistency=np.ones((3, 2)))


class TestTopEpsilon:
    def test_rank_by_count_then_order_then_fields(self):
        counts = Counter(
            {
                (0, 1): 5,
                (2, 3): 9,
                (0, 1, 2): 9,
                (1, 2): 9,
                (4, 5): 1,
            }
        )
        got = top_epsilon(counts, 4)
        assert [c.fields for c in got] == [(1, 2), (2, 3), (0, 1, 2), (0, 1)]
        assert [c.count for c in got] == [9, 9, 9, 5]

    def test_short_supply_warns_and_returns_all(self):
        counts = Counter({(0, 1): 3})
        with pytest.warns(UserWarning):
            got = top_epsilon(counts, 10)
        assert [c.fields for c in got] == [(0, 1)]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(feasible_cases(), st.integers(1, 40))
    def test_matches_full_tuple_sort(self, case, epsilon):
        feasible, d, cap = case
        counts = enumerate_oracle(feasible, d, cap)
        coded = enumerate_candidates(feasible, d, field_cap=cap)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for got in (top_epsilon(coded, epsilon), top_epsilon(counts, epsilon)):
                assert [(c.fields, c.count) for c in got] == top_oracle(counts, epsilon)

    def test_count_ties_straddling_epsilon(self):
        counts = Counter({(0, 3): 4, (1, 2): 2, (0, 1, 2): 2, (2, 5): 2, (0, 1): 2, (4, 5): 1})
        for epsilon in range(1, 7):
            got = top_epsilon(counts, epsilon)
            assert [(c.fields, c.count) for c in got] == top_oracle(counts, epsilon)
        assert [c.fields for c in top_epsilon(counts, 3)] == [(0, 3), (0, 1), (1, 2)]

    def test_epsilon_validated(self):
        with pytest.raises(ConfigError):
            top_epsilon(Counter(), 0)

    def test_order_property(self):
        assert CrossFieldCandidate(fields=(3, 7, 9), count=2).order == 3


class TestCandidateFile:
    def test_round_trip(self, tmp_path):
        cands = [
            CrossFieldCandidate(fields=(0, 4), count=12),
            CrossFieldCandidate(fields=(1, 2, 9), count=7),
            CrossFieldCandidate(fields=(0, 1, 2, 3), count=1),
        ]
        path = tmp_path / "candidates.tsv"
        save_candidates(path, cands)
        assert load_candidates(path, 10) == cands

    def test_bad_order_rejected(self, tmp_path):
        path = tmp_path / "candidates.tsv"
        path.write_text("3\t9\n")
        with pytest.raises(IngestionError):
            load_candidates(path, 10)

    def test_bad_columns_rejected(self, tmp_path):
        path = tmp_path / "candidates.tsv"
        path.write_text("1,2\t3\textra\n")
        with pytest.raises(IngestionError):
            load_candidates(path, 10)
