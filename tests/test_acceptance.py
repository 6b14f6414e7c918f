"""Acceptance gate: ten numbered checks covering the whole pipeline.

Each check prints one ``criterion N PASS/FAIL`` line (visible under
``pytest -s``) before asserting, so a red run still reports every verdict
it reached. The checks are intentionally self-contained: every oracle is
redefined here from first principles rather than imported from the package.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dnn2lr.candidates import candidate_space_size
from dnn2lr.config import DnnSettings, LrSettings, PipelineConfig
from dnn2lr.crosslr import SparseLrModel, train_phase1, train_phase2
from dnn2lr.data import CATEGORICAL, FieldSchema, save_csv
from dnn2lr.inconsistency import compute_inconsistency, feasible_matrix
from dnn2lr.metrics import auc, ks
from dnn2lr.network import EmbeddingDnn
from dnn2lr.pipeline import Workspace, run_all
from dnn2lr.search import beam_select
from dnn2lr.synth import generate_planted_cross, run_inconsistency_study


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------- #
# independent oracles


def oracle_auc(labels, scores):
    """O(K^2) pairwise definition with half credit for ties."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return wins / (pos.size * neg.size)


def oracle_ks(labels, scores):
    """Max CDF gap over every distinct score threshold."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    best = 0.0
    for t in np.unique(scores):
        best = max(best, abs(float(np.mean(pos <= t)) - float(np.mean(neg <= t))))
    return best


def oracle_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_greedy(base, columns, labels):
    """Loop forward selection: strict improvement, ties to the lower index."""
    labels = np.asarray(labels)
    logit = base.copy()
    current = oracle_auc(labels, oracle_sigmoid(logit))
    picked = []
    remaining = list(range(columns.shape[1]))
    while remaining:
        best_j, best_auc = -1, -np.inf
        for j in remaining:
            score = oracle_auc(labels, oracle_sigmoid(logit + columns[:, j]))
            if score > best_auc:
                best_j, best_auc = j, score
        if best_auc <= current:
            break
        logit = logit + columns[:, best_j]
        current = best_auc
        picked.append(best_j)
        remaining.remove(best_j)
    return picked, current


def oracle_feasible(d, eta):
    """Sort-based top-quantile mask with exact rational arithmetic."""
    flat = np.sort(d.ravel())[::-1]
    count = int(math.ceil(Fraction(str(eta)) * len(flat)))
    return d >= flat[count - 1]


def finite_difference_gradients(model, ids, h=1e-6):
    ids = np.asarray(ids)
    base = model.embed(ids)
    k, n, m = ids.shape[0], model.n_fields, model.embedding_dim
    grad = np.zeros((k, n, m))
    for f in range(n):
        for j in range(m):
            up = base.copy()
            down = base.copy()
            up[:, f * m + j] += h
            down[:, f * m + j] -= h
            grad[:, f, j] = (model.forward_embedded(up) - model.forward_embedded(down)) / (2 * h)
    return grad


# ---------------------------------------------------------------------- #
# the ten criteria


def test_criterion_01_gradients_match_finite_differences():
    # 50 random small networks; sampled ids avoid the reserved unseen id,
    # whose all-zero embedding parks every ReLU exactly on its kink
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        sizes = [int(v) for v in rng.integers(4, 12, size=n)]
        model = EmbeddingDnn(sizes, embedding_dim=4, hidden=(8, 4), seed=trial)
        ids = np.stack([rng.integers(2, v, size=4) for v in sizes], axis=1).astype(np.int32)
        got = model.embedding_gradients(ids, space="probability")
        want = finite_difference_gradients(model, ids)
        rel = float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-8))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(1, ok, f"max rel err {worst:.3e} over 50 nets in {elapsed:.2f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_02_additive_network_has_zero_inconsistency():
    rng = np.random.default_rng(7)
    sizes = [10, 12, 8, 11]
    model = EmbeddingDnn.additive(sizes, embedding_dim=4, field_units=(8, 4), seed=7)
    ids = np.stack([rng.integers(2, v, size=1000) for v in sizes], axis=1).astype(np.int32)
    d = compute_inconsistency(model, ids, space="logit").d
    worst = float(d.max())
    ok = worst <= 1e-8
    _report(2, ok, f"max d {worst:.3e} over 1000 samples, additive net, logit space")
    assert worst <= 1e-8


def test_criterion_03_formulation_study_direction():
    # six interacting targets, ten seeds each; the two headline forms
    # (a*b + c and exp(1 + a*b) + c^2) are in the list
    start = time.perf_counter()
    names = ["mul_add", "exp_prod_quad", "mul_add_quad", "log_mul", "ratio_quad", "div_offset"]
    seeds = list(range(10))
    rows = run_inconsistency_study(names, seeds, k=10000)
    elapsed = time.perf_counter() - start
    hits = {name: 0 for name in names}
    for row in rows:
        hits[row.formulation] += int(row.interaction_detected)
    detail = ", ".join(f"{name} {hits[name]}/10" for name in names)
    ok = all(hits[name] >= 9 for name in names) and elapsed < 300.0
    _report(3, ok, f"{detail}; {elapsed:.1f}s")
    for name in names:
        assert hits[name] >= 9, f"{name} detected in only {hits[name]}/10 seeds"
    assert elapsed < 300.0


def test_criterion_04_candidate_space_sizes():
    got = tuple(candidate_space_size(100, order) for order in (2, 3, 4))
    ok = got == (4950, 161700, 3921225)
    _report(4, ok, f"choose(100, 2..4) = {got}")
    assert got == (4950, 161700, 3921225)


def test_criterion_05_metrics_match_brute_force_oracles():
    rng = np.random.default_rng(505)
    worst_auc = 0.0
    worst_ks = 0.0
    for trial in range(200):
        k = int(rng.integers(2, 201))
        y = rng.integers(0, 2, size=k)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = rng.normal(size=k)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # force tie blocks half the time
        worst_auc = max(worst_auc, abs(auc(y, scores) - oracle_auc(y, scores)))
        worst_ks = max(worst_ks, abs(ks(y, scores) - oracle_ks(y, scores)))
    ok = worst_auc <= 1e-12 and worst_ks <= 1e-12
    _report(5, ok, f"200 instances, max |dAUC| {worst_auc:.2e}, max |dKS| {worst_ks:.2e}")
    assert worst_auc <= 1e-12
    assert worst_ks <= 1e-12


def test_criterion_06_greedy_matches_oracle_and_beam1_matches_greedy():
    rng = np.random.default_rng(606)
    mismatches = 0
    for _ in range(100):
        k = int(rng.integers(4, 51))
        n_cand = int(rng.integers(1, 9))
        y = rng.integers(0, 2, size=k)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        base = np.round(rng.normal(0, 0.5, size=k), 1)
        cols = np.round(rng.normal(0, 1, size=(k, n_cand)), 1)
        got = beam_select(base, cols, y, width=1)
        picked, final = oracle_greedy(base, cols, y)
        b1 = beam_select(base, cols, y, width=1)
        if (
            got.selected != picked
            or abs(got.auc - final) > 1e-12
            or b1.selected != got.selected
            or abs(b1.auc - got.auc) > 1e-12
        ):
            mismatches += 1
    ok = mismatches == 0
    _report(6, ok, f"100 instances, {mismatches} mismatches (oracle and width-1 beam)")
    assert mismatches == 0


def test_criterion_07_phase1_weights_frozen_through_phase2():
    rng = np.random.default_rng(707)
    violations = 0
    for trial in range(5):
        n = int(rng.integers(2, 5))
        sizes = [int(v) for v in rng.integers(4, 8, size=n)]
        k = 600
        ids = np.stack([rng.integers(2, v, size=k) for v in sizes], axis=1).astype(np.int32)
        y = rng.integers(0, 2, size=k).astype(np.int8)
        y[:2] = [0, 1]
        cut = 450
        model = SparseLrModel(sizes)
        train_phase1(
            model, ids[:cut], y[:cut], ids[cut:], y[cut:], LrSettings(epochs=8), seed=trial
        )
        before = [w.tobytes() for w in model.field_weights]
        bias_before = model.bias
        pairs = [(0, 1)] if n == 2 else [(0, 1), (1, n - 1)]
        train_phase2(
            model, ids[:cut], y[:cut], ids[cut:], y[cut:], pairs, LrSettings(epochs=8), seed=trial
        )
        after = [w.tobytes() for w in model.field_weights]
        if before != after or bias_before != model.bias:
            violations += 1
    ok = violations == 0
    _report(7, ok, f"5 fixtures, {violations} with phase-1 bytes changed")
    assert violations == 0


def _planted_config(data_path, workdir, seed):
    fields = [FieldSchema(name=f"f{i:02d}", index=i, kind=CATEGORICAL) for i in range(20)]
    return PipelineConfig(
        fields=fields,
        label="y",
        data=data_path,
        workdir=workdir,
        seed=seed,
        dnn=DnnSettings(embedding_dim=10, hidden=(64, 32), epochs=20, patience=5),
        lr=LrSettings(epochs=30, patience=5),
    )


def test_criterion_08_planted_cross_recovery(tmp_path):
    n, k = 20, 20000
    pair_hits = 0
    gap_hits = 0
    worst_seed_time = 0.0
    details = []
    for seed in range(10):
        start = time.perf_counter()
        pick = np.random.default_rng(8000 + seed)
        planted = tuple(sorted(int(f) for f in pick.choice(n, size=2, replace=False)))
        data = generate_planted_cross(k=k, n=n, planted=planted, strength=1.0, seed=seed)
        data_path = tmp_path / f"planted_{seed}.csv"
        save_csv(data_path, data.table, label="y")
        config = _planted_config(data_path, tmp_path / f"work_{seed}", seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_all(config)
        ws = Workspace(config.workdir)
        listed = {
            tuple(int(v) for v in line.split("\t")[0].split(","))
            for line in ws.candidates_tsv.read_text().strip().splitlines()
        }
        in_top = planted in listed
        gap = report["final_test_auc"] - report["plain_lr_test_auc"]
        pair_hits += int(in_top)
        gap_hits += int(gap >= 0.10)
        elapsed = time.perf_counter() - start
        worst_seed_time = max(worst_seed_time, elapsed)
        details.append(f"seed {seed}: pair {planted} {'in' if in_top else 'MISSING'}, gap {gap:+.3f}")
    ok = pair_hits >= 9 and gap_hits >= 9 and worst_seed_time < 600.0
    _report(
        8,
        ok,
        f"pair in candidates {pair_hits}/10, AUC gap >= 0.10 in {gap_hits}/10, "
        f"slowest seed {worst_seed_time:.1f}s",
    )
    for line in details:
        print("  " + line)
    assert pair_hits >= 9
    assert gap_hits >= 9
    assert worst_seed_time < 600.0


def test_criterion_09_run_all_is_byte_deterministic(tmp_path):
    data = generate_planted_cross(k=6000, n=8, planted=(1, 4), strength=1.0, seed=11)
    data_path = tmp_path / "planted.csv"
    save_csv(data_path, data.table, label="y")
    fields = [FieldSchema(name=f"f{i:02d}", index=i, kind=CATEGORICAL) for i in range(8)]
    outputs = []
    for workdir in (tmp_path / "first", tmp_path / "second"):
        config = PipelineConfig(
            fields=list(fields),
            label="y",
            data=data_path,
            workdir=workdir,
            seed=11,
            dnn=DnnSettings(embedding_dim=8, hidden=(32, 16), epochs=15),
            lr=LrSettings(epochs=20),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_all(config)
        outputs.append(Workspace(workdir).model_final.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(9, ok, f"two runs, model files {'identical' if ok else 'DIFFER'} ({len(outputs[0])} bytes)")
    assert outputs[0] == outputs[1]


def test_criterion_10_feasible_matrix_matches_sort_oracle():
    rng = np.random.default_rng(1010)
    mismatches = 0
    for trial in range(100):
        k = int(rng.integers(2, 60))
        n = int(rng.integers(1, 12))
        d = rng.exponential(size=(k, n))
        if trial % 3 == 0:
            # inject ties at the threshold region
            d = np.round(d, 1)
        eta = round(float(rng.uniform(0.005, 0.995)), 3)
        got = feasible_matrix(d, eta)
        want = oracle_feasible(d, eta)
        if not np.array_equal(got, want):
            mismatches += 1
    ok = mismatches == 0
    _report(10, ok, f"100 random matrices, {mismatches} mismatches")
    assert mismatches == 0
