"""Candidate subset counting, ranking, and the candidate file format."""

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from dnn2lr.candidates import (
    CrossFieldCandidate,
    candidate_space_size,
    enumerate_candidates,
    load_candidates,
    save_candidates,
    top_epsilon,
)
from dnn2lr.errors import ConfigError, IngestionError


def enumerate_oracle(feasible):
    """Straight re-derivation with no caps involved."""
    counts = Counter()
    for row in feasible:
        fields = [i for i, flag in enumerate(row) if flag]
        for order in range(2, 5):
            counts.update(combinations(fields, order))
    return counts


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
