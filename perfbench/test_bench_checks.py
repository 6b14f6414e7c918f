"""Tests of the benchmark's own checks: each passes on good input and fails
on a corrupted one. Run with ``python -m pytest perfbench``."""

import itertools
import json

import numpy as np
import pytest

import checks
import workloads

# A scorecard in the exported grammar: a numerical field with cuts, escaped
# values (tab, comma, pipe) and field names, missing-value weights, a cross.
MODEL = "\n".join([
    "# white-box logistic scorecard",
    "bias\t-0.5",
    "field\t0\tamount\tnumerical",
    "edges\tamount\t10\t1.5,3.0",
    "w\tamount\t\t0.1",
    "w\tamount\tb0\t-1.0",
    "w\tamount\tb1\t0.5",
    "w\tamount\tb2\t2.0",
    "field\t1\tcity\tcategorical",
    "w\tcity\ta\\tb\t0.25",
    "w\tcity\tx\\,y\\|z\t-0.75",
    "w\tcity\t\t0.05",
    "field\t2\tweird\\,name\tcategorical",
    "w\tweird\\,name\tq\t0.3",
    "cross\tamount,weird\\,name",
    "cw\tamount,weird\\,name\tb2|q\t1.25",
    "cw\tamount,weird\\,name\t|q\t-0.5",
]) + "\n"

ROWS = [
    ["3.0", "a\tb", "q"],  # 3.0 sits on a cut: one cut strictly below -> b1
    ["3.5", "x,y|z", "q"],  # b2, and the cross (b2, q)
    ["", "", "unseen"],  # missing cells have weights; unseen values score 0
    ["1.5", "new", "q"],  # b0
    ["", "a\tb", "q"],  # cross (missing, q)
]
LOGITS = [0.55, 2.3, -0.35, -1.2, -0.35]


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z)))


def test_scorecard_follows_the_grammar():
    card = checks.Scorecard(MODEL)
    assert [name for _, name, _ in card.fields] == ["amount", "city", "weird,name"]
    np.testing.assert_allclose(card.logits(ROWS), LOGITS, atol=1e-12)
    np.testing.assert_allclose(card.logits(ROWS, include_cross=False)[[1, 4]], [1.05, 0.15], atol=1e-12)


def test_scorecard_agrees_with_the_program(tmp_path):
    model_io = pytest.importorskip("dnn2lr.model_io")
    path = tmp_path / "model_final.txt"
    path.write_text(MODEL, encoding="utf-8")
    program = model_io.load_exported(path).score_rows(ROWS)
    checks.check_scores(program, checks.Scorecard(MODEL).score(ROWS))


def test_score_check_fails_on_one_changed_weight():
    program = sigmoid(LOGITS)
    checks.check_scores(program, checks.Scorecard(MODEL).score(ROWS))
    corrupted = MODEL.replace("w\tcity\ta\\tb\t0.25", "w\tcity\ta\\tb\t0.2501")
    with pytest.raises(checks.CheckFailed):
        checks.check_scores(program, checks.Scorecard(corrupted).score(ROWS))


def brute_auc(labels, scores):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


def test_rank_auc_matches_pairs_with_ties():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=300)
    scores = rng.integers(0, 12, size=300) / 12.0  # many ties
    assert checks.rank_auc(labels, scores) == pytest.approx(brute_auc(labels, scores), abs=1e-12)


def test_report_auc_check_fails_on_shuffled_scores():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, size=500)
    scores = labels * 0.5 + rng.random(500)
    reported = brute_auc(labels, scores)
    checks.check_same_auc("final_test_auc", reported, checks.rank_auc(labels, scores))
    with pytest.raises(checks.CheckFailed):
        checks.check_same_auc("final_test_auc", reported, checks.rank_auc(labels, rng.permutation(scores)))


def test_auc_bounds():
    checks.check_auc_bounds(0.80, plain_auc=0.70, true_auc=0.82, margin=0.05, slack=0.01)
    with pytest.raises(checks.CheckFailed):  # crosses bought too little
        checks.check_auc_bounds(0.72, plain_auc=0.70, true_auc=0.82, margin=0.05, slack=0.01)
    with pytest.raises(checks.CheckFailed):  # better than the rule that drew the labels: a leak
        checks.check_auc_bounds(0.90, plain_auc=0.70, true_auc=0.82, margin=0.05, slack=0.01)


LOG = "base_auc = 0.6\nstep 1: add a*b -> valid_auc = 0.7\nstep 2: add c*d -> valid_auc = 0.71\nfinal_auc = 0.71\n"


def test_search_log_must_rise_strictly():
    assert checks.check_search_log(LOG) == 2
    for bad in (LOG.replace("0.71", "0.7"), LOG.replace("= 0.7\n", "= 0.59\n"), LOG.replace("final_auc = 0.71", "final_auc = 0.72")):
        with pytest.raises(checks.CheckFailed):
            checks.check_search_log(bad)


CANDIDATES = "3,7\t50\n1,3\t40\n1,3,7\t40\n2,9\t12\n"


def test_candidates_bounded_and_ordered():
    assert checks.check_candidates(CANDIDATES, epsilon=4) == [(3, 7), (1, 3), (1, 3, 7), (2, 9)]
    with pytest.raises(checks.CheckFailed):
        checks.check_candidates(CANDIDATES, epsilon=3)
    with pytest.raises(checks.CheckFailed):
        checks.check_candidates(CANDIDATES.replace("\t12", "\t41"), epsilon=4)
    assert checks.resolve_epsilon("3n", 20) == 60
    assert checks.resolve_epsilon("n", 20) == 20
    assert checks.resolve_epsilon("45", 20) == 45


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded_and_true_rule_reads_the_cells(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    for run in ("a", "b"):
        workloads.generate(name, 5, tmp_path / run, scale=0.05)
    for file_name in ("data.csv", "holdout.csv", "meta.json"):
        assert (tmp_path / "a" / file_name).read_bytes() == (tmp_path / "b" / file_name).read_bytes()
    fields, rows, labels = workloads.read_csv(tmp_path / "a" / "data.csv")
    assert fields == [field for field, _ in workload.schema()]
    meta = json.loads((tmp_path / "a" / "meta.json").read_text(encoding="utf-8"))
    z = workload.true_logit(meta, fields, rows)
    # The labels were drawn from the rule: it ranks them far better than chance.
    assert checks.rank_auc(labels, z) > 0.6
    # A leak (the labels themselves as scores) beats the rule and fails the bound.
    with pytest.raises(checks.CheckFailed):
        checks.check_auc_bounds(checks.rank_auc(labels, labels), 0.5, checks.rank_auc(labels, z), 0.0, 0.01)


def test_scoring_calls_that_raise_or_disagree_count_as_failed(tmp_path):
    import run

    bench = run.Run(tmp_path, "tall", seed=1, seconds=1.0)
    bench.datadir.mkdir(parents=True)
    labels = [1, 0, 1, 0, 1]
    workloads.write_csv(bench.datadir / "holdout.csv", ["amount", "city", "weird,name"],
                        [list(column) for column in zip(*ROWS)], labels)
    card = checks.Scorecard(MODEL)
    scores = card.score(ROWS)
    np.save(bench.base / "scores.npy", scores)
    auc = checks.rank_auc(labels, scores)
    one_row = [float(s) for s in scores] * 2
    bench.check_scoring(card, {"pass_aucs": [auc, auc], "one_row_scores": one_row})
    assert (bench.attempted, bench.failed, bench.failures) == (13, 0, [])

    one_row[3] += 1e-6  # a wrong score
    one_row[7] = None  # a call that raised
    bench.check_scoring(card, {"pass_aucs": [auc, auc + 1e-6, None], "one_row_scores": one_row})
    assert (bench.attempted, bench.failed, len(bench.failures)) == (13 + 14, 4, 2)
    np.save(bench.base / "scores.npy", scores[::-1])  # the whole-holdout scores shuffled
    bench.check_scoring(card, {"pass_aucs": [], "one_row_scores": []})
    assert (bench.attempted, bench.failed) == (28, 5)
