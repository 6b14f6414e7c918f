"""
Two-phase logistic regression and the forward search
====================================================

An XOR label is the cleanest case of a cross feature: each constituent field
looks like pure noise on its own, while their combination decides the label
outright. Phase 1 (original fields only) stalls at chance. Phase 2 learns a
weight table per candidate combination with phase 1 frozen, and the forward
search then keeps only the candidates that actually move validation AUC.
"""

import numpy as np

from dnn2lr.config import LrSettings
from dnn2lr.crosslr import SparseLrModel, train_phase1, train_phase2
from dnn2lr.metrics import auc
from dnn2lr.network import stable_sigmoid
from dnn2lr.search import beam_select, precompute_logit_columns

rng = np.random.default_rng(6)
k = 3000

# fields 0 and 1 are coins whose XOR is the label; fields 2 and 3 are decoys
ids = np.stack([rng.integers(2, 4, size=k) for _ in range(4)], axis=1).astype(np.int32)
y = ((ids[:, 0] == 2) ^ (ids[:, 1] == 2)).astype(np.int8)
cut = 2250
tr_ids, tr_y, va_ids, va_y = ids[:cut], y[:cut], ids[cut:], y[cut:]

model = SparseLrModel([4, 4, 4, 4])
train_phase1(model, tr_ids, tr_y, va_ids, va_y, LrSettings(epochs=15), seed=0)
phase1_auc = auc(va_y, stable_sigmoid(model.logits(va_ids)))
print(f"phase 1 validation AUC: {phase1_auc:.3f}  (chance)")

# Phase 2 gets a mixed bag of candidates: the real pair plus decoy pairs.
candidates = [(0, 1), (0, 2), (1, 3), (2, 3)]
train_phase2(model, tr_ids, tr_y, va_ids, va_y, candidates, LrSettings(epochs=25), seed=0)
phase2_auc = auc(va_y, stable_sigmoid(model.logits(va_ids)))
print(f"phase 2, all candidates active:  {phase2_auc:.3f}")

# The search ranks candidates by what they contribute on validation. It is one
# beam search; at width 1 it is greedy forward selection.
base, columns = precompute_logit_columns(model, va_ids)
greedy = beam_select(base, columns, va_y, width=1)
print(f"\nbeam width 1 (greedy): base AUC {greedy.base_auc:.3f}")
for step in greedy.steps:
    print(f"  accepted candidate {model.cross_fields[step.candidate]} "
          f"-> AUC {step.auc:.3f}")
print(f"selected: {[model.cross_fields[j] for j in greedy.selected]}")

# Wider beams keep more paths per step and can only match or improve the
# final AUC.
wide = beam_select(base, columns, va_y, width=3)
print(f"\nbeam width 3: AUC {wide.auc:.3f} vs width 1 {greedy.auc:.3f}, "
      f"selected {[model.cross_fields[j] for j in wide.selected]}")
