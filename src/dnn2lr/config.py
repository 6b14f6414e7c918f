"""Pipeline configuration: a small key = value file format plus validation.

The config declares the schema (field kinds in column order), the label
column, paths, the seed, and the knobs of every stage. Each trainer has one
settings type, DnnSettings for the embedding network and LrSettings for both
logistic phases; the ``dnn.*`` and ``lr.*`` keys are their fields. The keys a
file may set are read off the dataclass fields, one reader per field type.
PipelineConfig.validate() checks every value, the trainers' settings
included, so a bad value fails before any stage writes a file.

Example (``#`` at the start of a line or after whitespace starts a comment)::

    label = y
    field.age = numerical
    field.housing = categorical
    data = loans.csv
    workdir = work
    seed = 7
    eta = 0.05          # feasible quantile
    epsilon = 3n
    dnn.hidden = 400,100
"""

from __future__ import annotations

import dataclasses
import math
import re
import typing
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

from .data import CATEGORICAL, NUMERICAL, FieldSchema, check_schema, text_lines
from .errors import ConfigError

_EPSILON_RULE = re.compile(r"^(\d*)n$")
_COMMENT = re.compile(r"(?:^|\s)#")
ALLOWED_BATCH_SIZES = (256, 512, 1024, 4096)


def _check_optimizer(prefix: str, settings) -> None:
    """The rules both trainers share: a finite positive rate and L2, epochs and patience."""
    if not (math.isfinite(settings.learning_rate) and settings.learning_rate > 0):
        raise ConfigError(f"{prefix}.learning_rate must be positive and finite, "
                          f"got {settings.learning_rate}")
    if not (math.isfinite(settings.l2) and settings.l2 >= 0):
        raise ConfigError(f"{prefix}.l2 must be non-negative and finite, got {settings.l2}")
    if settings.epochs < 1 or settings.patience < 1:
        raise ConfigError(f"{prefix}.epochs and {prefix}.patience must be at least 1")


@dataclass
class DnnSettings:
    """Shape and optimizer of the embedding network (the ``dnn.*`` keys)."""

    embedding_dim: int = 10
    hidden: tuple[int, ...] = (400, 100)
    learning_rate: float = 0.001
    l2: float = 0.0001
    batch_size: int = 256
    epochs: int = 30
    patience: int = 5

    def validate(self) -> None:
        if self.embedding_dim < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError(f"dnn.embedding_dim and every dnn.hidden width must be at "
                              f"least 1, got {self.embedding_dim} and {self.hidden}")
        if self.batch_size not in ALLOWED_BATCH_SIZES:
            raise ConfigError(
                f"dnn.batch_size must be one of {ALLOWED_BATCH_SIZES}, got {self.batch_size}"
            )
        _check_optimizer("dnn", self)


@dataclass
class LrSettings:
    """Optimizer of both logistic phases (the ``lr.*`` keys)."""

    learning_rate: float = 0.1
    l2: float = 0.0001
    batch_size: int = 256
    epochs: int = 30
    patience: int = 5

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"lr.batch_size must be at least 1, got {self.batch_size}")
        _check_optimizer("lr", self)


@dataclass
class PipelineConfig:
    fields: list[FieldSchema] = dataclass_field(default_factory=list)
    label: str = "y"
    data: Path | None = None
    workdir: Path = Path("work")
    seed: int = 0
    eta: float = 0.05
    epsilon: str = "3n"
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    beam_width: int = 1
    max_selected: int | None = None
    threads: int = 1
    granularities: tuple[int, ...] = (10, 100, 1000)
    feasible_cap: int = 20
    dnn: DnnSettings = dataclass_field(default_factory=DnnSettings)
    lr: LrSettings = dataclass_field(default_factory=LrSettings)

    def resolve_epsilon(self, n_fields: int) -> int:
        """Turn the epsilon rule into a count: "3n" scales with the schema."""
        text = str(self.epsilon).strip()
        match = _EPSILON_RULE.match(text)
        if match:
            factor = int(match.group(1)) if match.group(1) else 1
            value = factor * n_fields
        else:
            try:
                value = int(text)
            except ValueError:
                raise ConfigError(f"epsilon must be an integer or '<k>n', got {text!r}") from None
        if value < 1:
            raise ConfigError(f"epsilon resolves to {value}, must be at least 1")
        return value

    def validate(self) -> None:
        check_schema(self.fields)
        if not 0.0 < self.eta < 1.0:
            raise ConfigError(f"eta must lie strictly between 0 and 1, got {self.eta}")
        self.resolve_epsilon(len(self.fields))
        if len(self.split) != 3 or not all(0 < f < 1 for f in self.split) or (
            abs(sum(self.split) - 1.0) > 1e-9
        ):
            raise ConfigError(
                f"split must be three positive fractions that sum to 1, got {self.split}"
            )
        if self.beam_width < 1:
            raise ConfigError("beam_width must be at least 1")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.max_selected is not None and self.max_selected < 0:
            raise ConfigError("max_selected must be non-negative")
        if self.feasible_cap < 2:
            raise ConfigError("feasible_cap must be at least 2")
        if any(g < 2 for g in self.granularities) or not self.granularities:
            raise ConfigError("granularities must all be at least 2")
        self.dnn.validate()
        self.lr.validate()


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_path(text: str) -> Path:
    if not text:
        raise ValueError("empty path")  # Path("") would mean the current directory
    return Path(text)


# One reader per field type; a field of any other type fails at import.
_READERS = {
    str: str,
    int: int,
    float: float,
    Path: _parse_path,
    Path | None: lambda text: _parse_path(text) if text else None,
    int | None: lambda text: int(text) if text else None,
    tuple[int, ...]: _parse_int_tuple,
    tuple[float, float, float]: lambda text: tuple(float(part) for part in text.split(",")),
}


def _config_keys() -> dict[str, tuple[str, str, typing.Callable]]:
    """key -> (settings group or "", field name, reader), read off the dataclass fields.

    The schema comes from ``field.<name>`` lines, and ``dnn`` and ``lr`` are
    groups, so those three PipelineConfig fields are no keys of their own.
    """
    keys = {}
    for group, cls in (("", PipelineConfig), ("dnn", DnnSettings), ("lr", LrSettings)):
        hints = typing.get_type_hints(cls)
        for item in dataclasses.fields(cls):
            if cls is PipelineConfig and item.name in ("fields", "dnn", "lr"):
                continue
            key = f"{group}.{item.name}" if group else item.name
            keys[key] = (group, item.name, _READERS[hints[item.name]])
    return keys


CONFIG_KEYS = _config_keys()


def parse_config_text(text: str, origin: str = "<config>") -> PipelineConfig:
    config = PipelineConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("field."):
            name = key[len("field.") :].strip()
            if not name:
                raise ConfigError(f"{origin}: line {lineno}: empty field name")
            if value not in (NUMERICAL, CATEGORICAL):
                raise ConfigError(
                    f"{origin}: line {lineno}: field kind must be "
                    f"{NUMERICAL} or {CATEGORICAL}, got {value!r}"
                )
            config.fields.append(FieldSchema(name=name, index=len(config.fields), kind=value))
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{origin}: line {lineno}: unknown key {key!r}")
        group, name, reader = CONFIG_KEYS[key]
        try:
            setattr(getattr(config, group) if group else config, name, reader(value))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{origin}: line {lineno}: bad value for {key}: {err}") from None
    return config


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found or not a file: {path}")
    return parse_config_text("".join(text_lines(path, ConfigError)), origin=str(path))
