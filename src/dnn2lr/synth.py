"""Synthetic benchmarks: algebraic interaction formulas and planted crosses.

Two kinds of fixtures live here. The formulation study regresses a small
embedding network onto y = g(a, b) + h(c) style targets, where fields a and b
interact and c enters additively, then checks that the measured inconsistency
singles out a and b. The planted-cross generator builds a categorical
classification set whose label is an XOR-style parity of a chosen field
tuple, which no additive model can express: the canonical end-to-end fixture.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .config import DnnSettings
from .data import CATEGORICAL, NUM_RESERVED_IDS, FieldSchema, RawTable
from .errors import ConfigError
from .inconsistency import compute_inconsistency
from .network import EmbeddingDnn, train


@dataclass(frozen=True)
class Formulation:
    """A named target expression over three uniform [0,1] fields a, b, c.

    Fields a and b interact (except in the additive control); c is additive.
    Expressions keep denominators offset away from zero so every formula is
    finite on the whole input cube.
    """

    name: str
    expression: str
    interacting: bool
    function: Callable = dataclass_field(repr=False, compare=False)

    def __call__(self, a, b, c):
        return self.function(a, b, c)


# name -> (expression, function); every formulation but the additive control interacts
_FORMULAS = {
    "mul_add": ("a*b + c", lambda a, b, c: a * b + c),
    "mul_add_quad": ("a*b + c^2", lambda a, b, c: a * b + c**2),
    "mul_sq_add_cube": ("a*b^2 + c^3", lambda a, b, c: a * b**2 + c**3),
    "cube_sq_add_cube": ("a^3*b^2 + c^3", lambda a, b, c: a**3 * b**2 + c**3),
    "div_damped": ("a/(1+10b) + 1/(0.1+c)", lambda a, b, c: a / (1.0 + 10.0 * b) + 1.0 / (0.1 + c)),
    "div_offset": ("a/(0.1+b) + 1/(0.1+c)", lambda a, b, c: a / (0.1 + b) + 1.0 / (0.1 + c)),
    "ratio_quad": ("(1+a^2)/(0.5+b) + c^2", lambda a, b, c: (1.0 + a**2) / (0.5 + b) + c**2),
    "log_mul": ("ln(1+10ab) + c", lambda a, b, c: np.log1p(10.0 * a * b) + c),
    "log_mul_quad": ("ln(1+10ab) + c^2", lambda a, b, c: np.log1p(10.0 * a * b) + c**2),
    "log_mul_exp": (
        "ln(1+10ab) + e^(1+c)", lambda a, b, c: np.log1p(10.0 * a * b) + np.exp(1.0 + c)
    ),
    "log_lin_mul": ("ln(1+a)*b + c^2", lambda a, b, c: np.log1p(a) * b + c**2),
    "exp_mul_sq": ("e^(1+a)*b^2 + c", lambda a, b, c: np.exp(1.0 + a) * b**2 + c),
    "exp_prod_quad": ("e^(1+ab) + c^2", lambda a, b, c: np.exp(1.0 + a * b) + c**2),
    "exp_prod_lin": ("e^(1+ab) + 10c", lambda a, b, c: np.exp(1.0 + a * b) + 10.0 * c),
    "add_all": ("a + b + c", lambda a, b, c: a + b + c),
}

FORMULATIONS: dict[str, Formulation] = {
    name: Formulation(name, expression, interacting=name != "add_all", function=function)
    for name, (expression, function) in _FORMULAS.items()
}


def get_formulation(name: str) -> Formulation:
    if name not in FORMULATIONS:
        known = ", ".join(sorted(FORMULATIONS))
        raise ConfigError(f"unknown formulation {name!r}; known: {known}")
    return FORMULATIONS[name]


@dataclass
class FormulationData:
    """K rows of 2-decimal inputs with the raw and binarized targets."""

    inputs: np.ndarray  # (K, 3) floats rounded to 2 decimals
    target: np.ndarray  # (K,) raw formulation values
    labels: np.ndarray  # (K,) target binarized at its median
    codes: np.ndarray  # (K, 3) int ids: 2-decimal value as category

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


# Ids 0/1 stay reserved even though the generator never emits them; each of
# the 101 possible 2-decimal values owns one code.
STUDY_VOCAB_SIZE = NUM_RESERVED_IDS + 101
STUDY_VALID_FRACTION = 0.2  # the held-out tail of each run's rows


def generate_formulation_dataset(formulation, k: int, seed: int = 0) -> FormulationData:
    """Sample K rows uniform in [0,1]^3, keep 2 decimals, evaluate the target."""
    if k < 1:
        raise ConfigError(f"K must be at least 1, got {k}")
    form = get_formulation(formulation) if isinstance(formulation, str) else formulation
    rng = np.random.default_rng(seed)
    inputs = np.round(rng.uniform(0.0, 1.0, size=(k, 3)), 2)
    target = np.asarray(form(inputs[:, 0], inputs[:, 1], inputs[:, 2]), dtype=np.float64)
    labels = (target > np.median(target)).astype(np.int8)
    codes = np.round(inputs * 100.0).astype(np.int32) + NUM_RESERVED_IDS
    return FormulationData(inputs=inputs, target=target, labels=labels, codes=codes)


@dataclass
class StudyRow:
    """Study outcome for one formulation and seed."""

    formulation: str
    seed: int
    mean_d: tuple[float, float, float]
    interaction_detected: bool  # mean d of both a and b above mean d of c


def run_inconsistency_study(
    formulations,
    seeds,
    k: int = 10000,
    settings: DnnSettings | None = None,
) -> list[StudyRow]:
    """Train a small regression network per (formulation, seed), measure d.

    The three inputs enter as per-value categorical embeddings (no binning:
    each 2-decimal value is its own code). The network, by default
    ``DnnSettings(embedding_dim=8, hidden=(32, 16))``, uses identity output
    and squared-error loss since targets are continuous, and each run's seed
    seeds both its initial weights and its minibatch order. Inconsistency is
    measured on the held-out fraction, and a formulation counts as detected
    when fields a and b both show higher mean d than the additive field c.
    """
    settings = settings or DnnSettings(embedding_dim=8, hidden=(32, 16))
    rows: list[StudyRow] = []
    for formulation in formulations:
        form = get_formulation(formulation) if isinstance(formulation, str) else formulation
        for seed in seeds:
            data = generate_formulation_dataset(form, k, seed=seed)
            split = max(1, int(round(len(data) * (1.0 - STUDY_VALID_FRACTION))))
            split = min(split, len(data) - 1) if len(data) > 1 else 1
            train_ids, valid_ids = data.codes[:split], data.codes[split:]
            y_train, y_valid = data.target[:split], data.target[split:]
            model = EmbeddingDnn(
                [STUDY_VOCAB_SIZE] * 3,
                embedding_dim=settings.embedding_dim,
                hidden=settings.hidden,
                output="identity",
                seed=seed,
            )
            train(model, train_ids, y_train, valid_ids, y_valid, settings, seed)
            d = compute_inconsistency(model, valid_ids).d
            mean_d = tuple(float(v) for v in d.mean(axis=0))
            detected = mean_d[0] > mean_d[2] and mean_d[1] > mean_d[2]
            rows.append(
                StudyRow(
                    formulation=form.name,
                    seed=int(seed),
                    mean_d=mean_d,
                    interaction_detected=detected,
                )
            )
    return rows


def save_study_csv(path, rows: list[StudyRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["formulation", "seed", "d_a", "d_b", "d_c", "interaction_detected"])
        for row in rows:
            writer.writerow(
                [
                    row.formulation,
                    row.seed,
                    repr(row.mean_d[0]),
                    repr(row.mean_d[1]),
                    repr(row.mean_d[2]),
                    int(row.interaction_detected),
                ]
            )


@dataclass
class PlantedCrossData:
    """Binary classification table whose label is a parity of planted fields."""

    table: RawTable
    planted: tuple[int, ...]
    strength: float
    bits: np.ndarray = dataclass_field(repr=False, default=None)


def generate_planted_cross(
    k: int,
    n: int,
    planted: tuple[int, ...],
    strength: float = 1.0,
    seed: int = 0,
) -> PlantedCrossData:
    """Binary fields, label = parity of the planted tuple, noisy by strength.

    Every field is an independent fair coin rendered as "v0"/"v1". The label
    equals the XOR of the planted fields' bits with probability
    (1 + strength) / 2, so strength 1 is noiseless and strength 0 detaches
    the label entirely. Any proper subset of the planted tuple is independent
    of the label, which is what makes the fixture unlearnable for a plain
    additive scorecard.
    """
    planted = tuple(sorted(int(f) for f in planted))
    if not 2 <= len(planted) <= 4:
        raise ConfigError("planted tuple must hold 2 to 4 fields")
    if len(set(planted)) != len(planted) or min(planted) < 0 or max(planted) >= n:
        raise ConfigError(f"planted tuple {planted} invalid for n={n}")
    if not 0.0 <= strength <= 1.0:
        raise ConfigError(f"strength must lie in [0, 1], got {strength}")
    if k < 1:
        raise ConfigError(f"K must be at least 1, got {k}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(k, n), dtype=np.int8)
    parity = bits[:, list(planted)].sum(axis=1) % 2
    flip = rng.random(k) > (1.0 + strength) / 2.0
    labels = np.where(flip, 1 - parity, parity).astype(np.int8)
    fields = [FieldSchema(name=f"f{i:02d}", index=i, kind=CATEGORICAL) for i in range(n)]
    rows = [["v1" if bit else "v0" for bit in bits[i]] for i in range(k)]
    table = RawTable(fields=fields, rows=rows, labels=[int(v) for v in labels])
    return PlantedCrossData(table=table, planted=planted, strength=strength, bits=bits)
