"""Staged pipeline: files in a work directory are the inter-stage contract.

``STAGES``, at the end of this module, is the one table of the stages in their
order, with the files each reads and writes. ``run_stage`` first checks that a
stage's inputs exist, failing with "missing: <stage>" naming the producer of
the first absent one. It then deletes the outputs of every later stage, so no
result built from an older input outlives that input, and only then runs the
stage. Re-running a stage with unchanged inputs rewrites byte-identical
artifacts: every stage derives its randomness from the root seed salted with
the stage name. Text artifacts write floats with repr; the .npz array
containers hold them exactly. ``encoding.txt`` holds the vocabulary and bin
edges in the scorecard grammar of ``model_final.txt`` (see model_io), with
every weight 0.0. Ingest and evaluate read a CSV as codes through ``load_csv``;
discretize and evaluate bin each distinct number once and gather ids by code.
"""

from __future__ import annotations

import csv
import dataclasses
import zlib
from itertools import chain, repeat, zip_longest
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import model_io
from .candidates import enumerate_candidates, load_candidates, save_candidates, top_epsilon
from .candidates import read_cross_lines, write_cross_lines
from .config import PipelineConfig
from .crosslr import SparseLrModel, split_keys, train_phase1, train_phase2
from .data import MISSING, NUMERICAL, CodedTable, Dataset, FieldSchema, RawTable, Vocabulary
from .data import load_arrays, load_csv, save_arrays, save_csv
from .data import split_rows
from .discretize import apply_edges, parse_number, select_granularity
from .errors import ConfigError, Dnn2LrError, IngestionError, StageError
from .inconsistency import compute_inconsistency, feasible_matrix
from .metrics import auc, ks
from .network import EmbeddingDnn, load_model, save_model, train
from .search import beam_select, precompute_logit_columns


class Workspace:
    """Path bundle for one work directory: one attribute per file STAGES writes."""

    def __init__(self, workdir):
        self.root = Path(workdir)
        for stage in STAGES.values():
            for attr, name in stage.writes.items():
                setattr(self, attr, self.root / name)


class Stage(NamedTuple):
    """One row of STAGES."""

    run: Callable[[PipelineConfig, Workspace], object]
    reads: tuple[str, ...]  # Workspace attributes, in the order of the stages writing them
    writes: dict[str, str]  # Workspace attribute -> file name in the work directory


def _stage_seed(config: PipelineConfig, stage: str) -> int:
    """Stage-salted seed: one root seed, independent streams per stage."""
    return zlib.crc32(f"{config.seed}:{stage}".encode("utf-8"))


def _check_schema(config: PipelineConfig, path, fields: list[FieldSchema]) -> None:
    """Refuse a file whose schema is not the config's."""
    if fields != sorted(config.fields, key=lambda f: f.index):
        raise IngestionError(f"{path}: written for another schema")


def _check_ids(path, ids: np.ndarray, labels: np.ndarray, sizes) -> None:
    """Each field's ids within its size, one label 0/1 per row."""
    if ids.shape[1] != len(sizes) or labels.size != ids.shape[0]:
        raise IngestionError(f"{path}: ids {ids.shape} and labels {labels.shape} do not fit")
    if (ids < 0).any() or (ids >= sizes).any():
        raise IngestionError(f"{path}: ids outside the vocabulary")
    if ((labels != 0) & (labels != 1)).any():
        raise IngestionError(f"{path}: labels other than 0 and 1")


def _write_splits(
    path: Path, fields: list[FieldSchema], train: CodedTable, valid: CodedTable
) -> None:
    """Ingest's train and valid rows as codes and labels, with the strings the codes stand for.

    ``text`` holds, as UTF-8, each field's name and kind, then each field's
    values; ``offsets`` cuts it into strings and ``counts`` says how many
    values each field has. ``text_crc32`` guards the strings, which no range
    check can.
    """
    strings = chain((f.name for f in fields), (f.kind for f in fields), *train.values)
    blobs = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, blobs), np.int64, len(blobs)), out=offsets[1:])
    text = b"".join(blobs)
    save_arrays(
        path, train_codes=train.codes, train_labels=train.labels, valid_codes=valid.codes,
        valid_labels=valid.labels, text=np.frombuffer(text, dtype=np.int8), offsets=offsets,
        counts=np.array([len(v) for v in train.values], dtype=np.int64),
        text_crc32=np.int64(zlib.crc32(text)),
    )


_SPLITS_ARRAYS = dict(
    train_codes=(np.int32, 2), train_labels=(np.int8, 1), valid_codes=(np.int32, 2),
    valid_labels=(np.int8, 1), text=(np.int8, 1), offsets=(np.int64, 1), counts=(np.int64, 1),
    text_crc32=(np.int64, 0),
)


def _read_splits(config: PipelineConfig, path: Path) -> tuple[CodedTable, CodedTable]:
    """Read _write_splits' file for the config's schema; the two tables share their values."""
    a = load_arrays(path, _SPLITS_ARRAYS)
    text, offsets, counts = a["text"].tobytes(), a["offsets"], a["counts"]
    n = counts.size
    if (
        zlib.crc32(text) != a["text_crc32"] or ((counts < 0) | (counts > offsets.size)).any()
        or offsets.size != 2 * n + counts.sum() + 1 or offsets[0] != 0
        or offsets[-1] != len(text) or (np.diff(offsets) < 0).any()
    ):
        raise IngestionError(f"{path}: damaged string table")
    bounds = offsets.tolist()
    try:
        strings = [text[i:j].decode("utf-8") for i, j in zip(bounds, bounds[1:])]
        fields = [FieldSchema(*spec) for spec in zip(strings[:n], range(n), strings[n : 2 * n])]
    except (UnicodeDecodeError, ConfigError):
        raise IngestionError(f"{path}: damaged string table") from None
    _check_schema(config, path, fields)
    ends = np.cumsum(counts).tolist()
    values = [strings[2 * n + i : 2 * n + j] for i, j in zip([0, *ends], ends)]
    tables = []
    for split in ("train", "valid"):
        codes, labels = a[f"{split}_codes"], a[f"{split}_labels"]
        _check_ids(path, codes, labels, counts)
        tables.append(CodedTable(codes=codes, values=values, labels=labels))
    return tables[0], tables[1]


def _write_encoded(path: Path, dataset: Dataset) -> None:
    save_arrays(path, ids=dataset.ids, labels=dataset.labels)


def _read_encoded(path: Path, vocab_sizes: list[int]) -> Dataset:
    """One encoded split: ids inside each field's vocabulary, labels 0/1."""
    arrays = load_arrays(path, {"ids": (np.int32, 2), "labels": (np.int8, 1)})
    _check_ids(path, arrays["ids"], arrays["labels"], vocab_sizes)
    return Dataset(ids=arrays["ids"], labels=arrays["labels"])


def _write_matrix(path: Path, d: np.ndarray) -> None:
    save_arrays(path, d=d)


def _read_matrix(path: Path, n_fields: int) -> np.ndarray:
    """The inconsistency matrix D: one column per field, finite, non-negative."""
    d = load_arrays(path, {"d": (np.float64, 2)})["d"]
    if d.shape[1] != n_fields or not (np.isfinite(d) & (d >= 0)).all():
        raise IngestionError(f"{path}: D must have {n_fields} columns, finite, non-negative")
    return d


def _numbers(path, fields: list[FieldSchema], table: CodedTable) -> dict:
    """Each numerical field's distinct cells parsed once: per field, its floats in code order.

    A bad cell fails naming the file and the line of the first row holding it;
    a table read from splits.npz has no lines, so there it names the file alone.
    """
    numbers = {}
    for f in fields:
        if f.kind != NUMERICAL:
            continue
        cells = iter(table.values[f.index])
        size = len(table.values[f.index])
        try:
            numbers[f] = np.fromiter(map(parse_number, cells, repeat(f.name)), np.float64, size)
        except IngestionError as err:
            code = size - 1 - sum(1 for _ in cells)  # the cells after the bad one are unread
            rows = np.flatnonzero(table.codes[:, f.index] == code)
            where = f"line {table.lines[rows[0]]}: " if table.lines else ""
            raise IngestionError(f"{path}: {where}{err}") from None
    return numbers


def _binned(numbers: dict, edges_by_name, *tables: CodedTable) -> list[CodedTable]:
    """Tables sharing their values, each numerical field's values swapped for their bin labels."""
    values = list(tables[0].values)
    for f, floats in numbers.items():
        values[f.index] = apply_edges(edges_by_name[f.name], floats)
    return [dataclasses.replace(table, values=values) for table in tables]


# ---------------------------------------------------------------------- #
# stages


def stage_ingest(config: PipelineConfig, ws: Workspace) -> None:
    """Code the raw CSV as it is read, check its numbers, shuffle, write train and valid codes.

    The raw rows are held one block at a time (see data.load_csv). The test
    rows are decoded by code and written back out as test.csv.
    """
    if config.data is None:
        raise IngestionError("no data file configured (set data = <path> or pass --data)")
    if not Path(config.data).is_file():
        raise IngestionError(f"data file not found or not a file: {config.data}")
    fields = sorted(config.fields, key=lambda f: f.index)
    table = load_csv(config.data, fields, config.label)
    _numbers(config.data, fields, table)  # only once the whole file has read cleanly
    train, valid, test = split_rows(len(table.codes), config.split, _stage_seed(config, "ingest"))
    try:
        ws.root.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise StageError(f"work directory {ws.root}: {err.strerror}") from None
    (test,) = table.take(test)
    save_csv(ws.test_csv, RawTable(fields, test.rows(), test.labels.tolist()), label=config.label)
    _write_splits(ws.splits, fields, *table.take(train, valid))


def stage_discretize(config: PipelineConfig, ws: Workspace) -> None:
    """Bin numerical fields, build the vocabulary, write the encoded train and valid ids.

    Work is per distinct cell: each number is parsed and binned once, and each
    row's float or id is a gather by its code.
    """
    train, valid = _read_splits(config, ws.splits)
    numbers = _numbers(ws.splits, config.fields, train)
    edges_by_name = {}
    for f, floats in numbers.items():
        _, edges_by_name[f.name] = select_granularity(
            floats[train.codes[:, f.index]],
            train.labels,
            floats[valid.codes[:, f.index]],
            valid.labels,
            field=f.index,
            candidates=config.granularities,
        )
    train, valid = _binned(numbers, edges_by_name, train, valid)
    # One row per rank: each field's train values in first-seen order, padded with the
    # missing value, which no vocabulary learns.
    ranked = zip_longest(*map(train.first_seen, range(len(train.values))), fillvalue=MISSING)
    vocab = Vocabulary.build([f.name for f in config.fields], ranked)
    model_io.export_model(
        ws.encoding, SparseLrModel(vocab.sizes()), config.fields, vocab, edges_by_name, []
    )
    _write_encoded(ws.encoded_train, vocab.encode_table(train))
    _write_encoded(ws.encoded_valid, vocab.encode_table(valid))


def _load_scorecard(config: PipelineConfig, path) -> model_io.ExportedModel:
    """A scorecard file (discretize's zero-weight encoding, or the final model) for this schema."""
    exported = model_io.load_exported(path)
    _check_schema(config, path, exported.fields)
    return exported


def _load_encoded(config: PipelineConfig, ws: Workspace, *paths: Path) -> tuple:
    """The vocabulary, then each encoded split of ``paths`` checked against it."""
    vocab = _load_scorecard(config, ws.encoding).vocab
    return vocab, *(_read_encoded(path, vocab.sizes()) for path in paths)


def stage_train_dnn(config: PipelineConfig, ws: Workspace) -> None:
    """Fit the embedding network and persist it with its training history."""
    vocab, train_set, valid_set = _load_encoded(config, ws, ws.encoded_train, ws.encoded_valid)
    seed = _stage_seed(config, "train-dnn")
    model = EmbeddingDnn(
        vocab.sizes(), config.dnn.embedding_dim, config.dnn.hidden, output="sigmoid", seed=seed
    )
    history = train(
        model, train_set.ids, train_set.labels, valid_set.ids, valid_set.labels, config.dnn, seed
    )
    save_model(model, ws.dnn)
    with open(ws.dnn_history, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "train_loss", "valid_metric"])
        for row in history:
            writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["valid_metric"])])


def stage_inconsistency(config: PipelineConfig, ws: Workspace) -> None:
    """Compute the inconsistency matrix D on the validation split."""
    vocab, valid_set = _load_encoded(config, ws, ws.encoded_valid)
    model = load_model(ws.dnn)
    if model.vocab_sizes != vocab.sizes():
        raise IngestionError(f"{ws.dnn}: network built for another vocabulary")
    result = compute_inconsistency(model, valid_set.ids)
    _write_matrix(ws.inconsistency_d, result.d)


def stage_candidates(config: PipelineConfig, ws: Workspace) -> None:
    """Mark the top-eta of D feasible, count co-occurrences, keep the top epsilon."""
    d = _read_matrix(ws.inconsistency_d, len(config.fields))
    feasible = feasible_matrix(d, config.eta)
    counts = enumerate_candidates(feasible, d, field_cap=config.feasible_cap)
    top = top_epsilon(counts, config.resolve_epsilon(len(config.fields)))
    save_candidates(ws.candidates_tsv, top)


_LR_FULL_ARRAYS = dict(
    bias=(np.float64, 0), field_sizes=(np.int64, 1), field_weights=(np.float64, 1),
    cross_orders=(np.int64, 1), cross_fields=(np.int64, 1), cross_sizes=(np.int64, 1),
    cross_ids=(np.int64, 1), cross_weights=(np.float64, 1),
)


def save_lr_full(path, model: SparseLrModel) -> None:
    """The two-phase model as one container: flat arrays, cut per field and per cross.

    A cross's entries are stored as member-id rows, as its keys may not fit int64.
    """
    radices = [[model.vocab_sizes[f] for f in fields] for fields in model.cross_fields]
    ids = [split_keys(keys, r).ravel() for keys, r in zip(model.cross_keys, radices)]
    save_arrays(
        path,
        bias=np.float64(model.bias),
        field_sizes=np.array(model.vocab_sizes, dtype=np.int64),
        field_weights=np.concatenate(model.field_weights),
        cross_orders=np.array([len(c) for c in model.cross_fields], dtype=np.int64),
        cross_fields=np.array([f for c in model.cross_fields for f in c], dtype=np.int64),
        cross_sizes=np.array([w.size for w in model.cross_weights], dtype=np.int64),
        cross_ids=np.concatenate([np.empty(0, dtype=np.int64), *ids]),
        cross_weights=np.concatenate([np.empty(0), *model.cross_weights]),
    )


def load_lr_full(path, vocab_sizes: list[int]) -> SparseLrModel:
    """Read save_lr_full's file for a vocabulary of ``vocab_sizes``; validates all of it."""
    a = load_arrays(path, _LR_FULL_ARRAYS)
    if a["field_sizes"].tolist() != vocab_sizes or a["field_weights"].size != sum(vocab_sizes):
        raise IngestionError(f"{path}: written for another vocabulary")
    if not all(np.isfinite(a[k]).all() for k in ("bias", "field_weights", "cross_weights")):
        raise IngestionError(f"{path}: non-finite weight")
    orders, entries = a["cross_orders"].tolist(), a["cross_sizes"].tolist()
    spans = [o * e for o, e in zip(orders, entries)]
    lengths = {"cross_fields": orders, "cross_ids": spans, "cross_weights": entries}  # per cross
    if len(orders) != len(entries) or min(orders + entries, default=0) < 0 or any(
        sum(n) != a[k].size for k, n in lengths.items()
    ):
        raise IngestionError(f"{path}: cross arrays disagree in length")
    model = SparseLrModel(vocab_sizes)
    model.bias = float(a["bias"])
    model.field_weights = np.split(a["field_weights"], np.cumsum(vocab_sizes)[:-1])
    # Cut at every running total and drop the empty tail: no crosses, no pieces.
    tables = zip(*(np.split(a[k], np.cumsum(n))[:-1] for k, n in lengths.items()))
    try:
        for fields, ids, weights in tables:
            model.attach_cross(tuple(fields.tolist()), ids, weights)
    except ConfigError as err:
        raise IngestionError(f"{path}: {err}") from None
    return model


def stage_train_lr(config: PipelineConfig, ws: Workspace) -> None:
    """Two-phase logistic regression over originals plus candidate crosses."""
    vocab, train_set, valid_set = _load_encoded(config, ws, ws.encoded_train, ws.encoded_valid)
    cands = load_candidates(ws.candidates_tsv, len(config.fields))
    seed = _stage_seed(config, "train-lr")
    model = SparseLrModel(vocab.sizes())
    train_phase1(
        model, train_set.ids, train_set.labels, valid_set.ids, valid_set.labels, config.lr, seed
    )
    train_phase2(
        model, train_set.ids, train_set.labels, valid_set.ids, valid_set.labels, cands,
        config.lr, seed,
    )
    save_lr_full(ws.lr_full, model)


def stage_search(config: PipelineConfig, ws: Workspace) -> None:
    """Select cross features on the validation split; log every step."""
    vocab, valid_set = _load_encoded(config, ws, ws.encoded_valid)
    model = load_lr_full(ws.lr_full, vocab.sizes())
    base, columns = precompute_logit_columns(model, valid_set.ids)
    result = beam_select(base, columns, valid_set.labels, width=config.beam_width,
                         max_selected=config.max_selected, threads=config.threads)
    names = [f.name for f in config.fields]
    picks = [(model.cross_fields[step.candidate], step.auc) for step in result.steps]
    write_cross_lines(ws.selected_tsv, picks)
    with open(ws.search_log, "w", encoding="utf-8") as handle:
        handle.write(f"base_auc = {result.base_auc!r}\n")
        for i, step in enumerate(result.steps, start=1):
            fields = model.cross_fields[step.candidate]
            pretty = "*".join(names[f] for f in fields)
            handle.write(f"step {i}: add {pretty} -> valid_auc = {step.auc!r}\n")
        handle.write(f"final_auc = {result.auc!r}\n")


def load_selected(path, n_fields: int) -> list[tuple[int, ...]]:
    """The crosses of a selected file in selection order; its AUC column must be a number."""
    return [fields for fields, _ in read_cross_lines(path, n_fields, float)]


def stage_export_model(config: PipelineConfig, ws: Workspace) -> None:
    """Write the deployable white-box model with selected crosses only."""
    encoding = _load_scorecard(config, ws.encoding)
    model = load_lr_full(ws.lr_full, encoding.vocab.sizes())
    selected = load_selected(ws.selected_tsv, len(config.fields))
    model_io.export_model(
        ws.model_final, model, config.fields, encoding.vocab, encoding.edges_by_name, selected
    )


def _encode_csv(exported: model_io.ExportedModel, path, label: str) -> Dataset:
    """A CSV read as codes and encoded for ``exported`` the way discretize encodes its splits."""
    table = load_csv(path, exported.fields, label)
    (table,) = _binned(_numbers(path, exported.fields, table), exported.edges_by_name, table)
    return exported.vocab.encode_table(table)


def evaluate_model(model_path, data_path, label: str = "y") -> dict:
    """Score a raw CSV with an exported model; schema comes from the model."""
    exported = model_io.load_exported(model_path)
    test = _encode_csv(exported, data_path, label)
    scores = exported.score_ids(test.ids)
    return {"auc": auc(test.labels, scores), "ks": ks(test.labels, scores)}


def stage_evaluate(config: PipelineConfig, ws: Workspace) -> dict:
    """Test-split metrics for the final model and its plain-LR ablation."""
    exported = _load_scorecard(config, ws.model_final)
    test = _encode_csv(exported, ws.test_csv, config.label)
    plain_scores = exported.score_ids(test.ids, include_cross=False)
    final_scores = exported.score_ids(test.ids)
    names = [f.name for f in exported.fields]
    selected = ";".join(
        "*".join(names[i] for i in fields) for fields in exported.model.cross_fields
    )
    report = {
        "plain_lr_test_auc": auc(test.labels, plain_scores),
        "plain_lr_test_ks": ks(test.labels, plain_scores),
        "final_test_auc": auc(test.labels, final_scores),
        "final_test_ks": ks(test.labels, final_scores),
        "selected_cross_fields": selected if selected else "none",
    }
    ws.report.write_text(render_report(report), encoding="utf-8")
    return report


def render_report(report: dict) -> str:
    """One ``key = value`` line per entry: strings as they are, anything else by repr."""
    return "".join(
        f"{key} = {value if isinstance(value, str) else repr(value)}\n"
        for key, value in report.items()
    )


# The one account of which stage reads and writes which file. Every read is
# written by an earlier stage; the stage functions look up their readers and
# writers when called, so they can be replaced on this module.
STAGES = {
    "ingest": Stage(stage_ingest, (), dict(splits="splits.npz", test_csv="test.csv")),
    "discretize": Stage(stage_discretize, ("splits",),
                        dict(encoding="encoding.txt", encoded_train="encoded_train.npz",
                             encoded_valid="encoded_valid.npz")),
    "train-dnn": Stage(stage_train_dnn, ("encoding", "encoded_train", "encoded_valid"),
                       dict(dnn="dnn.npz", dnn_history="dnn_history.csv")),
    "inconsistency": Stage(stage_inconsistency, ("encoding", "encoded_valid", "dnn"),
                           dict(inconsistency_d="inconsistency_d.npz")),
    "candidates": Stage(stage_candidates, ("inconsistency_d",),
                        dict(candidates_tsv="candidates.tsv")),
    "train-lr": Stage(stage_train_lr,
                      ("encoding", "encoded_train", "encoded_valid", "candidates_tsv"),
                      dict(lr_full="lr_full.npz")),
    "search": Stage(stage_search, ("encoding", "encoded_valid", "lr_full"),
                    dict(selected_tsv="selected.tsv", search_log="search_log.txt")),
    "export-model": Stage(stage_export_model, ("encoding", "lr_full", "selected_tsv"),
                          dict(model_final="model_final.txt")),
    "evaluate": Stage(stage_evaluate, ("test_csv", "model_final"), dict(report="report.txt")),
}

STAGE_ORDER = list(STAGES)


def run_stage(config: PipelineConfig, stage: str):
    """Check the stage's inputs, delete every later stage's outputs, then run it."""
    if stage not in STAGES:
        raise StageError(f"unknown stage {stage!r}")
    config.validate()
    ws = Workspace(config.workdir)
    for attr in STAGES[stage].reads:
        if not getattr(ws, attr).exists():
            raise StageError(f"missing: {next(s for s in STAGES if attr in STAGES[s].writes)}")
    later = STAGE_ORDER[STAGE_ORDER.index(stage) + 1 :]
    for path in (getattr(ws, attr) for s in later for attr in STAGES[s].writes):
        if path.exists():
            path.unlink()
    return STAGES[stage].run(config, ws)


def run_all(config: PipelineConfig) -> dict:
    """Run every stage in order; returns evaluate's report."""
    config.validate()  # a bad setting is a config error, not a failed stage
    for stage in STAGE_ORDER:
        try:
            report = run_stage(config, stage)
        except Dnn2LrError as err:
            raise StageError(f"stage {stage} failed: {err}") from err
    return report
