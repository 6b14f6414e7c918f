"""The benchmark's three workloads: data generators, true rules and settings.

Each workload turns a seed into two raw CSV files (``data.csv`` for the
pipeline, ``holdout.csv`` for scoring) plus ``meta.json``, which holds the
parameters of the rule that drew the labels. The true probability of a row is
recomputed from its raw cells as written, so the checks never trust the
generator's own arrays.

This module imports only numpy and the standard library: the parent process
of the benchmark uses it without importing the program under test.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

LABEL = "y"


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def write_csv(path: Path, header: list[str], columns: list[list[str]], labels) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header + [LABEL])
        writer.writerows(zip(*columns, (str(int(v)) for v in labels)))


def read_csv(path: Path) -> tuple[list[str], list[list[str]], np.ndarray]:
    """Header (fields only), rows of raw cells, labels: the file as written."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        body = list(reader)
    at = header.index(LABEL)
    fields = header[:at] + header[at + 1 :]
    rows = [cells[:at] + cells[at + 1 :] for cells in body]
    labels = np.asarray([int(cells[at]) for cells in body], dtype=np.int8)
    return fields, rows, labels


def _draw_labels(rng: np.random.Generator, logit: np.ndarray) -> np.ndarray:
    return (rng.random(logit.size) < sigmoid(logit)).astype(np.int8)


# tall and wide carry one numerical field, so that every workload passes
# through the binning layer and the exported scorer's numeric path.


def _amount_cells(rng: np.random.Generator, k: int) -> list[str]:
    """Log-normal amounts with two decimals, 5% missing."""
    amount = np.round(np.exp(rng.normal(8.0, 1.0, size=k)), 2)
    gaps = rng.random(k) < 0.05
    return ["" if gap else repr(float(v)) for gap, v in zip(gaps, amount)]


def _amount_logit(cells: list[str]) -> np.ndarray:
    """A weak additive effect of the amount's logarithm; missing adds 0."""
    return np.asarray([0.25 * (np.log(float(c)) - 8.0) if c.strip() else 0.0 for c in cells])


# ---------------------------------------------------------------------- #
# tall: many rows, a few dozen coin-flip fields, two planted parity pairs


class Tall:
    name = "tall"
    rows = 48_000
    holdout_rows = 20_000
    n_fields = 24
    settings = {
        "dnn": {"hidden": (64, 32), "embedding_dim": 10, "epochs": 3},
        "lr_epochs": 4,
        "lr_rate": 0.1,
        "eta": 0.05,
        # Four planted fields give 11 subsets; 10 keeps the candidate count fixed.
        "epsilon": "10",
        "beam_width": 1,
        "max_selected": 2,
        "rerun": {"eta": 0.1},
        "margin": 0.04,
    }

    def columns(self, meta: dict, rng: np.random.Generator, k: int, holdout: bool) -> list[list[str]]:
        cells = np.where(rng.integers(0, 2, size=(k, self.n_fields)) == 1, "v1", "v0")
        return [cells[:, f].tolist() for f in range(self.n_fields)] + [_amount_cells(rng, k)]

    def meta(self, seed: int) -> dict:
        # The seed places the planted fields; the effect sizes stay fixed so
        # that every seed poses a problem of the same difficulty.
        order = np.random.default_rng([seed, 1]).permutation(self.n_fields).tolist()
        return {
            "pairs": [sorted(order[0:2]), sorted(order[2:4])],
            "pair_weights": [1.1, 0.8],
            "additive": {str(f): w for f, w in zip(order[4:10], (0.45, -0.35, 0.3, -0.25, 0.2, -0.15))},
            "bias": -0.3,
        }

    def true_logit(self, meta: dict, fields: list[str], rows: list[list[str]]) -> np.ndarray:
        bit = np.asarray([[cell == "v1" for cell in row] for row in rows], dtype=np.int64)
        z = meta["bias"] + _amount_logit([row[self.n_fields] for row in rows])
        for (a, b), w in zip(meta["pairs"], meta["pair_weights"]):
            z += w * np.where(bit[:, a] != bit[:, b], 1.0, -1.0)
        for f, w in meta["additive"].items():
            z += w * (2.0 * bit[:, int(f)] - 1.0)
        return z

    def planted(self, meta: dict) -> list[tuple[int, ...]]:
        return [tuple(p) for p in meta["pairs"]]

    def schema(self) -> list[tuple[str, str]]:
        return [(f"f{i:02d}", "categorical") for i in range(self.n_fields)] + [("amount", "numerical")]


# ---------------------------------------------------------------------- #
# wide: hundreds of categorical fields, a planted pair and a planted triple


class Wide:
    name = "wide"
    rows = 12_000
    holdout_rows = 4_000
    n_fields = 100
    cardinalities = (2, 3, 4, 5, 6)
    settings = {
        "dnn": {"hidden": (32, 16), "embedding_dim": 4, "epochs": 6, "learning_rate": 0.005},
        "lr_epochs": 3,
        "lr_rate": 0.1,
        "eta": 0.05,
        "epsilon": "2n",
        "beam_width": 1,
        "max_selected": 4,
        "rerun": {"epsilon": "60"},
        "margin": 0.02,
    }

    def meta(self, seed: int) -> dict:
        # Cardinalities and effect sizes are fixed; the seed places the fields.
        fixed = np.random.default_rng(2)
        cards = fixed.choice(self.cardinalities, size=self.n_fields)
        effects = fixed.normal(0.0, 0.4, size=(12, 4))
        order = np.random.default_rng([seed, 2]).permutation(self.n_fields)
        cards = cards[order].tolist()
        pair, triple, additive = sorted(order[0:2].tolist()), sorted(order[2:5].tolist()), order[5:17].tolist()
        for f in pair + triple:
            cards[f] = 2
        for f in additive:
            cards[f] = 4
        return {
            "cards": cards,
            "pair": pair,
            "pair_weight": 2.0,
            "triple": triple,
            "triple_weight": 0.9,
            "additive": {str(f): effect.tolist() for f, effect in zip(additive, effects)},
            "bias": -0.2,
        }

    def columns(self, meta: dict, rng: np.random.Generator, k: int, holdout: bool) -> list[list[str]]:
        out = []
        for f, card in enumerate(meta["cards"]):
            codes = rng.integers(0, card, size=k)
            out.append(np.asarray([f"x{f}_{v}" for v in range(card)])[codes].tolist())
        return out + [_amount_cells(rng, k)]

    @staticmethod
    def _codes(rows: list[list[str]], f: int) -> np.ndarray:
        # Cells read "x<field>_<value>"; the value index follows the underscore.
        return np.asarray([int(row[f].rsplit("_", 1)[1]) for row in rows], dtype=np.int64)

    def true_logit(self, meta: dict, fields: list[str], rows: list[list[str]]) -> np.ndarray:
        z = meta["bias"] + _amount_logit([row[self.n_fields] for row in rows])
        for key in ("pair", "triple"):
            parity = sum(self._codes(rows, f) for f in meta[key]) % 2
            z += meta[f"{key}_weight"] * (2.0 * parity - 1.0)
        for f, effect in meta["additive"].items():
            z += np.asarray(effect)[self._codes(rows, int(f))]
        return z

    def planted(self, meta: dict) -> list[tuple[int, ...]]:
        return [tuple(meta["pair"]), tuple(meta["triple"])]

    def schema(self) -> list[tuple[str, str]]:
        return [(f"w{i:03d}", "categorical") for i in range(self.n_fields)] + [("balance", "numerical")]


# ---------------------------------------------------------------------- #
# mixed-schema: credit-like numerical and categorical fields, awkward strings

_AWKWARD = ["tab\there", "comma,inside", "pipe|bar", 'quote"d', "back\\slash", "new\nline"]


class MixedSchema:
    name = "mixed-schema"
    rows = 20_000
    holdout_rows = 10_000
    numerical = ["income", "age", "utilization", "debt_ratio", "inquiries", "tenure"]
    categorical = ["channel", "product", "region", "occupation", "employer", "postcode"]
    cardinalities = {
        "channel": 5,
        "product": 12,
        "region": 40,
        "occupation": 60,
        "employer": 400,
        "postcode": 1000,
    }
    hot_products = (1, 4, 7, 10)
    settings = {
        "dnn": {"hidden": (32, 16), "embedding_dim": 6, "epochs": 8, "learning_rate": 0.003},
        "lr_epochs": 4,
        "lr_rate": 0.5,
        "eta": 0.1,
        "epsilon": "3n",
        "beam_width": 3,
        "max_selected": 3,
        "rerun": {"eta": 0.15},
        "margin": 0.01,
    }

    def _vocab(self, name: str) -> list[str]:
        card = self.cardinalities[name]
        out = []
        for v in range(card):
            text = f"{name[:3]}-{v}"
            if v % 7 == 3:
                text += " " + _AWKWARD[(v // 7) % len(_AWKWARD)]
            out.append(text)
        return out

    def meta(self, seed: int) -> dict:
        pick = np.random.default_rng(3)  # fixed effects: every seed is equally hard
        effects = {
            name: pick.normal(0.0, 0.25, size=self.cardinalities[name]).tolist()
            for name in ("channel", "region", "occupation")
        }
        return {
            "vocab": {name: self._vocab(name) for name in self.categorical},
            "effects": effects,
            "hot_products": list(self.hot_products),
            "bias": -0.4,
        }

    def columns(self, meta: dict, rng: np.random.Generator, k: int, holdout: bool) -> list[list[str]]:
        missing = lambda share: rng.random(k) < share  # noqa: E731
        income = np.round(np.exp(rng.normal(10.5, 0.8, size=k)), 2)
        if holdout:
            income = np.where(rng.random(k) < 0.02, income * 25.0, income)  # beyond training range
        age = rng.integers(18, 80, size=k)
        utilization = np.where(rng.random(k) < 0.4, 0.0, np.round(rng.random(k) * 20) / 20)  # 21 levels
        debt_ratio = np.round(rng.pareto(2.5, size=k), 4)
        inquiries = rng.poisson(0.7, size=k)
        tenure = rng.integers(0, 240, size=k)
        numeric = {
            "income": [repr(float(v)) for v in income],
            "age": [str(int(v)) for v in age],
            "utilization": [repr(float(v)) for v in utilization],
            "debt_ratio": [repr(float(v)) for v in debt_ratio],
            "inquiries": [str(int(v)) for v in inquiries],
            "tenure": [str(int(v)) for v in tenure],
        }
        for name, share in (("income", 0.1), ("debt_ratio", 0.05), ("tenure", 0.2)):
            gaps = missing(share)
            numeric[name] = ["" if gap else cell for gap, cell in zip(gaps, numeric[name])]
        cats = {}
        for name in self.categorical:
            vocab = meta["vocab"][name]
            weights = 1.0 / np.arange(1, len(vocab) + 1) ** 0.9  # Zipf: a long rare tail
            codes = rng.choice(len(vocab), size=k, p=weights / weights.sum())
            column = [vocab[c] for c in codes]
            if holdout:
                fresh = rng.random(k) < 0.03
                column = [f"{name[:3]}-new-{i}" if f else c for i, (f, c) in enumerate(zip(fresh, column))]
            gaps = missing(0.03)
            cats[name] = ["" if gap else cell for gap, cell in zip(gaps, column)]
        return [numeric[name] for name in self.numerical] + [cats[name] for name in self.categorical]

    def true_logit(self, meta: dict, fields: list[str], rows: list[list[str]]) -> np.ndarray:
        at = {name: fields.index(name) for name in self.numerical + self.categorical}

        def number(cell: str) -> float:
            return float(cell) if cell.strip() else np.nan

        def column(name):
            return [row[at[name]] for row in rows]

        income = np.asarray([number(c) for c in column("income")])
        age = np.asarray([number(c) for c in column("age")])
        util = np.asarray([number(c) for c in column("utilization")])
        ratio = np.asarray([number(c) for c in column("debt_ratio")])
        inquiries = np.asarray([number(c) for c in column("inquiries")])
        z = np.full(len(rows), meta["bias"])
        z += np.where(np.isnan(income), 0.3, -0.5 * (np.log(np.where(np.isnan(income), 1.0, income)) - 10.5))
        z += -0.02 * (age - 45.0)
        z += np.where(np.isnan(ratio), 0.2, 0.3 * np.minimum(ratio, 3.0))
        z += 0.25 * inquiries
        # The planted interaction: high utilization matters only for some products.
        product_index = {v: i for i, v in enumerate(meta["vocab"]["product"])}
        hot = np.asarray(
            [product_index.get(cell, -1) in meta["hot_products"] for cell in column("product")]
        )
        z += np.where(util > 0.5, np.where(hot, 2.5, -1.25), 0.0)
        for name, effect in meta["effects"].items():
            index = {v: i for i, v in enumerate(meta["vocab"][name])}
            z += np.asarray([effect[index[c]] if c in index else 0.0 for c in column(name)])
        return z

    def planted(self, meta: dict) -> list[tuple[int, ...]]:
        fields = self.numerical + self.categorical
        return [tuple(sorted((fields.index("utilization"), fields.index("product"))))]

    def schema(self) -> list[tuple[str, str]]:
        return [(n, "numerical") for n in self.numerical] + [
            (n, "categorical") for n in self.categorical
        ]


WORKLOADS = {w.name: w for w in (Tall(), Wide(), MixedSchema())}


def generate(name: str, seed: int, outdir: Path, scale: float = 1.0) -> None:
    """Write data.csv, holdout.csv and meta.json for one workload and seed."""
    workload = WORKLOADS[name]
    outdir.mkdir(parents=True, exist_ok=True)
    meta = workload.meta(seed)
    header = [name for name, _ in workload.schema()]
    for file_name, k, holdout, stream in (
        ("data.csv", workload.rows, False, 10),
        ("holdout.csv", workload.holdout_rows, True, 11),
    ):
        k = max(200, int(k * scale))
        rng = np.random.default_rng([seed, stream])
        columns = workload.columns(meta, rng, k, holdout)
        rows = [list(r) for r in zip(*columns)]
        labels = _draw_labels(rng, workload.true_logit(meta, header, rows))
        write_csv(outdir / file_name, header, columns, labels)
    (outdir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
