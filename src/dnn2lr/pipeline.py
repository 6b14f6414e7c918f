"""Staged pipeline: files in a work directory are the inter-stage contract.

Each stage reads the artifacts of earlier stages and writes its own, so a run
can be resumed or audited per stage. A missing prerequisite fails with
"missing: <stage>" naming the stage that should have produced it. Re-running
a stage with unchanged inputs rewrites byte-identical artifacts: every stage
derives its randomness from the root seed salted with the stage name. Text
artifacts write floats with repr; the .npz array containers hold them exactly.
``encoding.txt`` holds the vocabulary and bin edges in the scorecard grammar of
``model_final.txt`` (see model_io), with every weight 0.0.

Artifact map (inside the work directory)::

    ingest       train.csv valid.csv test.csv
    discretize   encoding.txt encoded_train.npz encoded_valid.npz
    train-dnn    dnn.npz dnn_history.csv
    inconsistency  inconsistency_d.npz
    candidates   candidates.tsv
    train-lr     lr_full.npz
    search       selected.tsv search_log.txt
    export-model model_final.txt
    evaluate     report.txt
"""

from __future__ import annotations

import csv
import zlib
from pathlib import Path

import numpy as np

from . import model_io
from .candidates import enumerate_candidates, load_candidates, save_candidates, top_epsilon
from .candidates import read_cross_lines, write_cross_lines
from .config import PipelineConfig
from .crosslr import SparseLrModel, split_keys, train_phase1, train_phase2
from .data import NUMERICAL, Dataset, RawTable, Vocabulary, load_csv, save_csv, split_table
from .data import load_arrays, save_arrays
from .discretize import apply_edges, parse_numeric, select_granularity
from .errors import ConfigError, Dnn2LrError, IngestionError, StageError
from .inconsistency import compute_inconsistency, feasible_matrix
from .metrics import auc, ks
from .network import EmbeddingDnn, load_model, save_model, train
from .search import beam_select, precompute_logit_columns


class Workspace:
    """Path bundle for one work directory."""

    def __init__(self, workdir):
        self.root = Path(workdir)
        self.train_csv = self.root / "train.csv"
        self.valid_csv = self.root / "valid.csv"
        self.test_csv = self.root / "test.csv"
        self.encoding = self.root / "encoding.txt"
        self.encoded_train = self.root / "encoded_train.npz"
        self.encoded_valid = self.root / "encoded_valid.npz"
        self.dnn = self.root / "dnn.npz"
        self.dnn_history = self.root / "dnn_history.csv"
        self.inconsistency_d = self.root / "inconsistency_d.npz"
        self.candidates_tsv = self.root / "candidates.tsv"
        self.lr_full = self.root / "lr_full.npz"
        self.selected_tsv = self.root / "selected.tsv"
        self.search_log = self.root / "search_log.txt"
        self.model_final = self.root / "model_final.txt"
        self.report = self.root / "report.txt"


def _require(stage: str, *paths: Path) -> None:
    for path in paths:
        if not path.exists():
            raise StageError(f"missing: {stage}")


def _stage_seed(config: PipelineConfig, stage: str) -> int:
    """Stage-salted seed: one root seed, independent streams per stage."""
    return zlib.crc32(f"{config.seed}:{stage}".encode("utf-8"))


def _write_encoded(path: Path, dataset: Dataset) -> None:
    save_arrays(path, ids=dataset.ids, labels=dataset.labels)


def _read_encoded(path: Path, vocab_sizes: list[int]) -> Dataset:
    """One encoded split: ids inside each field's vocabulary, labels 0/1."""
    arrays = load_arrays(path, {"ids": (np.int32, 2), "labels": (np.int8, 1)})
    ids, labels = arrays["ids"], arrays["labels"]
    if ids.shape[1] != len(vocab_sizes) or labels.size != ids.shape[0]:
        raise IngestionError(f"{path}: ids {ids.shape} and labels {labels.shape} do not fit")
    if (ids < 0).any() or (ids >= vocab_sizes).any():
        raise IngestionError(f"{path}: ids outside the vocabulary")
    if ((labels != 0) & (labels != 1)).any():
        raise IngestionError(f"{path}: labels other than 0 and 1")
    return Dataset(ids=ids, labels=labels)


def _write_matrix(path: Path, d: np.ndarray) -> None:
    save_arrays(path, d=d)


def _read_matrix(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    """The inconsistency matrix D: finite, non-negative, one row per valid row."""
    d = load_arrays(path, {"d": (np.float64, 2)})["d"]
    if d.shape != shape or not (np.isfinite(d) & (d >= 0)).all():
        raise IngestionError(f"{path}: D must be {shape} (the valid split), finite, non-negative")
    return d


# ---------------------------------------------------------------------- #
# stages


def stage_ingest(config: PipelineConfig) -> None:
    """Load the raw CSV, shuffle, and write the three split files."""
    ws = Workspace(config.workdir)
    if config.data is None:
        raise IngestionError("no data file configured (set data = <path> or pass --data)")
    if not Path(config.data).is_file():
        raise IngestionError(f"data file not found or not a file: {config.data}")
    table = load_csv(config.data, config.fields, config.label)
    train_part, valid_part, test_part = split_table(
        table, config.split, seed=_stage_seed(config, "ingest")
    )
    try:
        ws.root.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise StageError(f"work directory {ws.root}: {err.strerror}") from None
    save_csv(ws.train_csv, train_part, label=config.label)
    save_csv(ws.valid_csv, valid_part, label=config.label)
    save_csv(ws.test_csv, test_part, label=config.label)


def _load_splits(config: PipelineConfig) -> tuple[RawTable, RawTable]:
    ws = Workspace(config.workdir)
    _require("ingest", ws.train_csv, ws.valid_csv, ws.test_csv)  # evaluate reads test.csv
    paths = (ws.train_csv, ws.valid_csv)
    return tuple(load_csv(path, config.fields, config.label) for path in paths)


def stage_discretize(config: PipelineConfig) -> None:
    """Bin numerical fields, build the vocabulary, write the encoded train and valid ids."""
    ws = Workspace(config.workdir)
    train_part, valid_part = parts = _load_splits(config)
    edges_by_name = {}
    for f in config.fields:
        if f.kind != NUMERICAL:
            continue
        values = [parse_numeric(part.column(f.index), field_name=f.name) for part in parts]
        _, edges = select_granularity(
            values[0],
            np.asarray(train_part.labels),
            values[1],
            np.asarray(valid_part.labels),
            field=f.index,
            candidates=config.granularities,
        )
        edges_by_name[f.name] = edges
        for part, part_values in zip(parts, values):
            binned = apply_edges(edges, part_values)
            for row, bin_label in zip(part.rows, binned):
                row[f.index] = bin_label
    vocab = Vocabulary.build([f.name for f in config.fields], train_part.rows)
    model_io.export_model(
        ws.encoding, SparseLrModel(vocab.sizes()), config.fields, vocab, edges_by_name, []
    )
    _write_encoded(ws.encoded_train, vocab.encode_table(train_part))
    _write_encoded(ws.encoded_valid, vocab.encode_table(valid_part))


def _load_encoding(config: PipelineConfig) -> model_io.ExportedModel:
    """The zero-weight scorecard discretize wrote: its vocabulary and bin edges."""
    ws = Workspace(config.workdir)
    _require("discretize", ws.encoding)
    encoding = model_io.load_exported(ws.encoding)
    if encoding.fields != sorted(config.fields, key=lambda f: f.index):
        raise IngestionError(f"{ws.encoding}: written for another schema")
    return encoding


def _load_encoded(config: PipelineConfig) -> tuple[Vocabulary, Dataset, Dataset]:
    """The vocabulary, and the train and valid splits checked against it."""
    ws = Workspace(config.workdir)
    _require("discretize", ws.encoded_train, ws.encoded_valid)
    vocab = _load_encoding(config).vocab
    train = _read_encoded(ws.encoded_train, vocab.sizes())
    return vocab, train, _read_encoded(ws.encoded_valid, vocab.sizes())


def stage_train_dnn(config: PipelineConfig) -> None:
    """Fit the embedding network and persist it with its training history."""
    ws = Workspace(config.workdir)
    vocab, train_set, valid_set = _load_encoded(config)
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


def stage_inconsistency(config: PipelineConfig) -> None:
    """Compute the inconsistency matrix D on the validation split."""
    ws = Workspace(config.workdir)
    _require("train-dnn", ws.dnn)
    vocab, _, valid_set = _load_encoded(config)
    model = load_model(ws.dnn)
    if model.vocab_sizes != vocab.sizes():
        raise IngestionError(f"{ws.dnn}: network built for another vocabulary")
    result = compute_inconsistency(model, valid_set.ids)
    _write_matrix(ws.inconsistency_d, result.d)


def stage_candidates(config: PipelineConfig) -> None:
    """Mark the top-eta of D feasible, count co-occurrences, keep the top epsilon."""
    ws = Workspace(config.workdir)
    _require("inconsistency", ws.inconsistency_d)
    _, _, valid_set = _load_encoded(config)
    d = _read_matrix(ws.inconsistency_d, valid_set.ids.shape)
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


def stage_train_lr(config: PipelineConfig) -> None:
    """Two-phase logistic regression over originals plus candidate crosses."""
    ws = Workspace(config.workdir)
    _require("candidates", ws.candidates_tsv)
    vocab, train_set, valid_set = _load_encoded(config)
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


def stage_search(config: PipelineConfig) -> None:
    """Select cross features on the validation split; log every step."""
    ws = Workspace(config.workdir)
    _require("train-lr", ws.lr_full)
    vocab, _, valid_set = _load_encoded(config)
    model = load_lr_full(ws.lr_full, vocab.sizes())
    base, columns = precompute_logit_columns(model, valid_set.ids)
    result = beam_select(
        base,
        columns,
        valid_set.labels,
        width=config.beam_width,
        max_selected=config.max_selected,
        threads=config.threads,
    )
    names = [f.name for f in config.fields]
    write_cross_lines(
        ws.selected_tsv, [(model.cross_fields[step.candidate], step.auc) for step in result.steps]
    )
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


def stage_export_model(config: PipelineConfig) -> None:
    """Write the deployable white-box model with selected crosses only."""
    ws = Workspace(config.workdir)
    _require("search", ws.selected_tsv)
    _require("train-lr", ws.lr_full)
    encoding = _load_encoding(config)
    model = load_lr_full(ws.lr_full, encoding.vocab.sizes())
    selected = load_selected(ws.selected_tsv, len(config.fields))
    model_io.export_model(
        ws.model_final, model, config.fields, encoding.vocab, encoding.edges_by_name, selected
    )


def evaluate_model(model_path, data_path, label: str = "y") -> dict:
    """Score a raw CSV with an exported model; schema comes from the model."""
    exported = model_io.load_exported(model_path)
    table = load_csv(data_path, exported.fields, label)
    scores = exported.score_rows(table.rows)
    labels = np.asarray(table.labels)
    return {"auc": auc(labels, scores), "ks": ks(labels, scores)}


def stage_evaluate(config: PipelineConfig) -> dict:
    """Test-split metrics for the final model and its plain-LR ablation."""
    ws = Workspace(config.workdir)
    _require("export-model", ws.model_final)
    _require("ingest", ws.test_csv)
    exported = model_io.load_exported(ws.model_final)
    table = load_csv(ws.test_csv, config.fields, config.label)
    labels = np.asarray(table.labels)
    plain_scores = exported.score_rows(table.rows, include_cross=False)
    final_scores = exported.score_rows(table.rows, include_cross=True)
    names = [f.name for f in exported.fields]
    selected = ";".join(
        "*".join(names[i] for i in fields) for fields in exported.model.cross_fields
    )
    report = {
        "plain_lr_test_auc": auc(labels, plain_scores),
        "plain_lr_test_ks": ks(labels, plain_scores),
        "final_test_auc": auc(labels, final_scores),
        "final_test_ks": ks(labels, final_scores),
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


STAGES = {
    "ingest": stage_ingest,
    "discretize": stage_discretize,
    "train-dnn": stage_train_dnn,
    "inconsistency": stage_inconsistency,
    "candidates": stage_candidates,
    "train-lr": stage_train_lr,
    "search": stage_search,
    "export-model": stage_export_model,
    "evaluate": stage_evaluate,
}

STAGE_ORDER = list(STAGES)


def run_stage(config: PipelineConfig, stage: str):
    if stage not in STAGES:
        raise StageError(f"unknown stage {stage!r}")
    config.validate()
    return STAGES[stage](config)


def run_all(config: PipelineConfig) -> dict:
    """Run every stage in order; equivalent to running them one by one."""
    config.validate()
    report: dict = {}
    for stage in STAGE_ORDER:
        try:
            result = STAGES[stage](config)
        except Dnn2LrError as err:
            raise StageError(f"stage {stage} failed: {err}") from err
        if stage == "evaluate":
            report = result
    return report
