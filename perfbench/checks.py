"""Independent checks of the program's outputs.

Nothing here imports the program. The scorer reads ``model_final.txt`` from
the line grammar documented in ``dnn2lr.model_io`` and scores raw CSV cells;
the AUC is a rank sum with average ranks for ties. Each check raises
``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import re
from bisect import bisect_left

import numpy as np

_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "|": "|", ",": ","}


class CheckFailed(Exception):
    pass


def unescape(text: str) -> str:
    out, i = [], 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in _UNESCAPE:
            out.append(_UNESCAPE[text[i + 1]])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def split_unescaped(text: str, sep: str) -> list[str]:
    """Split on ``sep`` where it is not preceded by an escaping backslash."""
    parts, start, i = [], 0, 0
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == sep:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    parts.append(text[start:])
    return parts


class Scorecard:
    """The exported model as parsed here: bias, fields, cuts, weights, crosses."""

    def __init__(self, text: str):
        self.bias = None
        self.fields: list[tuple[int, str, str]] = []  # (index, name, kind)
        self.cuts: dict[str, list[float]] = {}
        self.weights: dict[str, dict[str, float]] = {}
        self.crosses: list[tuple[tuple[str, ...], dict[tuple[str, ...], float]]] = []
        for line in text.split("\n"):
            if not line or line.startswith("#"):
                continue
            tag, *rest = line.split("\t")
            if tag == "bias":
                self.bias = float(rest[0])
            elif tag == "field":
                self.fields.append((int(rest[0]), unescape(rest[1]), rest[2]))
            elif tag == "edges":
                self.cuts[unescape(rest[0])] = [float(c) for c in rest[2].split(",") if c]
            elif tag == "w":
                self.weights.setdefault(unescape(rest[0]), {})[unescape(rest[1])] = float(rest[2])
            elif tag == "cross":
                names = tuple(unescape(p) for p in split_unescaped(rest[0], ","))
                self.crosses.append((names, {}))
            elif tag == "cw":
                names = tuple(unescape(p) for p in split_unescaped(rest[0], ","))
                key = tuple(unescape(p) for p in split_unescaped(rest[1], "|"))
                table = dict(self.crosses)[names]
                table[key] = float(rest[2])
            else:
                raise CheckFailed(f"model file: unknown line tag {tag!r}")
        if self.bias is None or not self.fields:
            raise CheckFailed("model file: no bias or no field lines")
        self.fields.sort()

    def categories(self, rows: list[list[str]]) -> dict[str, list[str]]:
        """Raw cells to category strings; numerical cells become bin labels."""
        out = {}
        for index, name, kind in self.fields:
            cells = [row[index] for row in rows]
            if kind == "numerical":
                cuts = self.cuts[name]
                # Bin index = number of cuts strictly below the value; empty = missing.
                cells = ["" if not c.strip() else f"b{bisect_left(cuts, float(c))}" for c in cells]
            out[name] = cells
        return out

    def logits(self, rows: list[list[str]], include_cross: bool = True) -> np.ndarray:
        cats = self.categories(rows)
        z = np.full(len(rows), self.bias)
        for _, name, _ in self.fields:
            table = self.weights.get(name, {})
            z += np.fromiter((table.get(c, 0.0) for c in cats[name]), float, len(rows))
        if include_cross:
            for names, table in self.crosses:
                keys = zip(*(cats[n] for n in names))
                z += np.fromiter((table.get(k, 0.0) for k in keys), float, len(rows))
        return z

    def score(self, rows: list[list[str]], include_cross: bool = True) -> np.ndarray:
        z = self.logits(rows, include_cross)
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def rank_auc(labels, scores) -> float:
    """Mann-Whitney AUC: average ranks over tied scores."""
    y = np.asarray(labels).astype(bool)
    s = np.asarray(scores, dtype=np.float64)
    values, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts  # 0-based rank of each tie block's first member
    ranks = (first + (counts + 1) / 2.0)[inverse]
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    if n_pos == 0 or n_neg == 0:
        raise CheckFailed("AUC undefined: one class only")
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def read_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def resolve_epsilon(rule: str, n_fields: int) -> int:
    match = re.fullmatch(r"(\d*)n", rule.strip())
    if match:
        return int(match.group(1) or 1) * n_fields
    return int(rule)


# ---------------------------------------------------------------------- #
# the checks


def check_scores(program: np.ndarray, independent: np.ndarray, tol: float = 1e-9) -> None:
    program = np.asarray(program, dtype=np.float64)
    if program.shape != independent.shape:
        raise CheckFailed(f"scores: {program.shape} from the program, {independent.shape} here")
    worst = float(np.max(np.abs(program - independent))) if program.size else 0.0
    if not worst <= tol:
        raise CheckFailed(f"scores: program and independent scorer differ by {worst:.3g}")


def check_same_auc(what: str, reported: float, independent: float, tol: float = 1e-9) -> None:
    if not abs(reported - independent) <= tol:
        raise CheckFailed(f"{what}: report says {reported!r}, independent AUC is {independent!r}")


def check_auc_bounds(test_auc: float, plain_auc: float, true_auc: float, margin: float, slack: float) -> None:
    if not test_auc >= plain_auc + margin:
        raise CheckFailed(f"test AUC {test_auc:.4f} below plain LR {plain_auc:.4f} + margin {margin}")
    if not test_auc <= true_auc + slack:
        raise CheckFailed(f"test AUC {test_auc:.4f} above the true rule's {true_auc:.4f} + {slack}")


def check_search_log(text: str) -> int:
    """Validation AUC must rise strictly at every accepted step; returns the step count."""
    aucs, final = [], None
    for line in text.splitlines():
        value = float(line.rsplit("=", 1)[1])
        if line.startswith("base_auc"):
            aucs.insert(0, value)
        elif line.startswith("step "):
            aucs.append(value)
        elif line.startswith("final_auc"):
            final = value
    if not aucs or final is None:
        raise CheckFailed("search log: no base_auc or final_auc line")
    for before, after in zip(aucs, aucs[1:]):
        if not after > before:
            raise CheckFailed(f"search log: valid AUC {after!r} does not rise above {before!r}")
    if final != aucs[-1]:
        raise CheckFailed(f"search log: final_auc {final!r} is not the last step's {aucs[-1]!r}")
    return len(aucs) - 1


def check_candidates(text: str, epsilon: int) -> list[tuple[int, ...]]:
    """At most epsilon lines, counts non-increasing; returns the field tuples."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) > epsilon:
        raise CheckFailed(f"candidates: {len(lines)} lines, epsilon is {epsilon}")
    tuples, counts = [], []
    for line in lines:
        fields, count = line.split("\t")
        tuples.append(tuple(int(f) for f in fields.split(",")))
        counts.append(int(count))
    for before, after in zip(counts, counts[1:]):
        if after > before:
            raise CheckFailed(f"candidates: count {after} follows {before}")
    return tuples

