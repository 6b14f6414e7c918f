"""One fresh process of the benchmark: generate, job, rerun or score.

Usage: ``python child.py <mode> <spec.json>``. The spec names the workload,
the seed and the paths; the child writes its measurements as JSON to the
spec's ``out`` path. Every timed window starts after the interpreter and the
imports are up, and covers only calls into the program's public functions:
``run_stage``, ``evaluate_model`` and ``load_exported(...).score_rows``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

SETUP = ("ingest", "discretize")
AFTER_SETUP = ("train-dnn", "inconsistency", "candidates", "train-lr", "search", "export-model", "evaluate")
CROSSING = ("train-dnn", "inconsistency", "candidates", "train-lr", "search")
RERUN = ("inconsistency", "candidates", "train-lr", "search", "export-model", "evaluate")
ONE_ROW_BLOCKS = 10
ONE_ROW_CALLS = 200  # per block


def build_config(spec: dict, overrides: dict | None = None):
    from dnn2lr.config import DnnSettings, LrSettings, PipelineConfig
    from dnn2lr.data import FieldSchema

    workload = workloads.WORKLOADS[spec["workload"]]
    settings = {**workload.settings, **(overrides or {})}
    dnn = settings["dnn"]
    lr_epochs = settings["lr_epochs"]
    return PipelineConfig(
        fields=[FieldSchema(name, i, kind) for i, (name, kind) in enumerate(workload.schema())],
        label=workloads.LABEL,
        data=Path(spec["data"]),
        workdir=Path(spec["workdir"]),
        seed=spec["seed"],
        eta=settings["eta"],
        epsilon=settings["epsilon"],
        beam_width=settings["beam_width"],
        max_selected=settings["max_selected"],
        threads=1,
        # patience == epochs: every run trains the same number of epochs, and the
        # trainers still keep their best snapshot.
        dnn=DnnSettings(**dnn, patience=dnn["epochs"]),
        lr=LrSettings(learning_rate=settings["lr_rate"], epochs=lr_epochs, patience=lr_epochs),
    )


def _timed_stages(config, stages, tracer: Tracer | None) -> dict[str, float]:
    from dnn2lr.pipeline import run_stage

    out = {}
    for stage in stages:
        span = tracer.begin(f"stage.{stage}") if tracer else None
        start = time.perf_counter()
        run_stage(config, stage)
        out[stage] = time.perf_counter() - start
        if tracer:
            tracer.end(span)
    return out


def _or_none(call):
    """The call's result, or None if it raised: a failed operation, not a crash."""
    try:
        return call()
    except Exception:  # noqa: BLE001 - any error of the program is one failed operation
        return None


def _median_ms(fn, reps: int = 200) -> float:
    for _ in range(5):
        fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


# ---------------------------------------------------------------------- #
# instrumentation of the traced job


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def instrument(tracer: Tracer, captured: dict) -> None:
    """Wrap each layer's entry points at the names their callers look up."""
    import dnn2lr.data as data
    import dnn2lr.model_io as model_io
    import dnn2lr.network as network
    import dnn2lr.pipeline as pipeline
    import dnn2lr.search as search

    def count(key, fn):
        def hook(t, args, kwargs, result):
            try:
                t.counts[key] += fn(args, kwargs, result)
            except (AttributeError, TypeError):
                pass  # the layer changed shape; leave the count absent

        return hook

    def both(first, second):
        return lambda t, args, kwargs, result: (first(t, args, kwargs, result), second(t, args, kwargs, result))

    def capture(t, args, kwargs, result):
        captured["model"] = _arg(args, kwargs, 0, "model")
        captured["ids"] = _arg(args, kwargs, 1, "train_ids")
        captured["labels"] = _arg(args, kwargs, 2, "train_labels")
        captured["valid_labels"] = _arg(args, kwargs, 4, "valid_labels")

    # The micro-timing calls the unwrapped minibatch step.
    captured["batch_gradients"] = getattr(network, "_batch_gradients", None)
    # Split CSVs are read by load_csv: that call counts as both a data-layer
    # parse and an artifact read, so it carries two nested spans.
    tracer.wrap(pipeline, "load_csv", "data.load_csv")
    for attr in ("load_csv", "_read_encoded", "_read_matrix", "load_lr_full", "load_candidates",
                 "load_selected", "load_model", "load_edges"):
        tracer.wrap(pipeline, attr, "pipeline.artifact_read")
    for attr in ("save_csv", "_write_encoded", "_write_matrix", "save_lr_full", "save_candidates",
                 "save_model", "save_edges"):
        tracer.wrap(pipeline, attr, "pipeline.artifact_write")
    tracer.wrap(data.Vocabulary, "load", "pipeline.artifact_read")
    tracer.wrap(data.Vocabulary, "save", "pipeline.artifact_write")
    tracer.wrap(data.Vocabulary, "build", "data.encode")
    tracer.wrap(data.Vocabulary, "encode_table", "data.encode",
                count("data.rows_encoded", lambda a, k, r: len(r)))
    tracer.wrap(pipeline, "select_granularity", "discretize.select_granularity")
    tracer.wrap(pipeline, "apply_edges", "discretize.apply_edges")
    tracer.wrap(pipeline, "train", "network.train", capture)
    tracer.wrap(network, "_batch_gradients", "network.minibatch")
    tracer.wrap(network.EmbeddingDnn, "embedding_gradients", "network.embedding_gradients")
    tracer.wrap(pipeline, "compute_inconsistency", "inconsistency.compute")
    tracer.wrap(pipeline, "feasible_matrix", "inconsistency.feasible",
                count("inconsistency.rows_2plus_feasible",
                      lambda a, k, r: int((np.asarray(r).sum(axis=1) >= 2).sum())))
    tracer.wrap(pipeline, "enumerate_candidates", "candidates.enumerate", both(
        count("candidates.subsets_counted", lambda a, k, r: sum(r.values())),
        count("candidates.distinct", lambda a, k, r: len(r)),
    ))
    tracer.wrap(pipeline, "train_phase1", "crosslr.phase1")
    tracer.wrap(pipeline, "train_phase2", "crosslr.phase2", both(
        count("crosslr.phase2_epochs", lambda a, k, r: len(r)),
        count("crosslr.cross_entries",
              lambda a, k, r: sum(len(table) for table in _arg(a, k, 0, "model").cross_weights)),
    ))
    tracer.wrap(pipeline, "precompute_logit_columns", "search.precompute")
    for attr in ("greedy_select", "beam_select"):
        tracer.wrap(pipeline, attr, "search.select",
                    count("search.steps", lambda a, k, r: len(r.steps)))
    tracer.wrap(search, "auc", "search.auc")
    tracer.wrap(model_io, "export_model", "model_io.export")


def micro(captured: dict, batch_size: int) -> dict[str, float]:
    """Hot-layer micro-timings on one batch of the workload's own shape."""
    from dnn2lr.metrics import auc

    out = {}
    model, ids, labels = captured.get("model"), captured.get("ids"), captured.get("labels")
    if model is not None and ids is not None:
        batch = np.asarray(ids)[:batch_size]
        y = np.asarray(labels, dtype=np.float64)[:batch_size]
        out["network.embed_batch_ms"] = _median_ms(lambda: model.embed(batch))
        gradients = captured["batch_gradients"]
        if gradients is not None:
            out["network.batch_gradients_ms"] = _median_ms(lambda: gradients(model, batch, y))
    valid = captured.get("valid_labels")
    if valid is not None:
        scores = np.random.default_rng(0).random(len(valid))
        out["metrics.auc_ms"] = _median_ms(lambda: auc(valid, scores), reps=100)
    return out


# ---------------------------------------------------------------------- #
# modes


def run_generate(spec: dict) -> dict:
    workloads.generate(spec["workload"], spec["seed"], Path(spec["datadir"]))
    return {}


def run_job(spec: dict) -> dict:
    config = build_config(spec)
    tracer = Tracer() if spec["trace"] else None
    captured: dict = {}
    if tracer:
        instrument(tracer, captured)
    setups = [_timed_stages(config, SETUP, tracer) for _ in range(spec["setup_reps"])]
    stages = _timed_stages(config, AFTER_SETUP, tracer)
    setup_s = statistics.median(sum(times.values()) for times in setups)
    for stage in SETUP:
        stages[stage] = statistics.median(times[stage] for times in setups)
    result = {
        "setup_s": setup_s,
        "crossing_s": sum(stages[s] for s in CROSSING),
        "job_s": setup_s + sum(stages[s] for s in AFTER_SETUP),
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["micro"] = micro(captured, config.dnn.batch_size)
        tracer.dump(spec["trace_out"])
    return result


def run_rerun(spec: dict) -> dict:
    overrides = workloads.WORKLOADS[spec["workload"]].settings["rerun"]
    stages = _timed_stages(build_config(spec, overrides), RERUN, None)
    return {"rerun_s": sum(stages.values()), "stages": stages}


def run_score(spec: dict) -> dict:
    from dnn2lr.model_io import load_exported
    from dnn2lr.pipeline import evaluate_model

    model_path, holdout = spec["model"], spec["holdout"]
    _, rows, _ = workloads.read_csv(Path(holdout))
    result: dict = {"rows": len(rows)}
    exported = load_exported(model_path)
    np.save(spec["scores_out"], exported.score_rows(rows))
    # The window is cut in slices; after each slice comes one block of
    # single-row calls, so the latency median samples the whole window. Every
    # output is kept for the parent to check; a call that raises keeps None.
    busy, latencies, pass_aucs, one_row_scores = 0.0, [], [], []
    for block in range(ONE_ROW_BLOCKS):
        while not spec["trace"] and (busy < spec["seconds"] * (block + 1) / ONE_ROW_BLOCKS or len(pass_aucs) < 2):
            start = time.perf_counter()
            pass_aucs.append(_or_none(lambda: evaluate_model(model_path, holdout, label=workloads.LABEL)["auc"]))
            busy += time.perf_counter() - start
        for i in range(block * ONE_ROW_CALLS, (block + 1) * ONE_ROW_CALLS):
            row = [rows[i % len(rows)]]
            start = time.perf_counter()
            one_row_scores.append(_or_none(lambda: float(exported.score_rows(row)[0])))
            latencies.append(time.perf_counter() - start)
    if pass_aucs:
        result["score_rows_per_s"] = len(pass_aucs) * len(rows) / busy
    result.update(pass_aucs=pass_aucs, one_row_scores=one_row_scores)
    result["score_1row_p50_ms"] = statistics.median(latencies) * 1e3
    if spec["trace"]:
        result["model_io.score_1row_p99_ms"] = statistics.quantiles(latencies, n=100)[98] * 1e3
        loads = []
        for _ in range(3):
            start = time.perf_counter()
            load_exported(model_path)
            loads.append(time.perf_counter() - start)
        result["model_io.load_s"] = statistics.median(loads)
        passes, busy = 0, 0.0
        while busy < 1.0 or passes < 2:
            start = time.perf_counter()
            exported.score_rows(rows)
            busy += time.perf_counter() - start
            passes += 1
        result["model_io.score_rows_per_s"] = passes * len(rows) / busy
    return result


MODES = {"generate": run_generate, "job": run_job, "rerun": run_rerun, "score": run_score}


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    warnings.simplefilter("ignore")  # short candidate lists warn; the checks cover them
    result = MODES[mode](spec)
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
