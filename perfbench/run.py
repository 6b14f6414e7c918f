"""Benchmark of the dnn2lr pipeline: fit, re-cross and score one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tall --seed 1 --seconds 4 --trace 0

Steps, each in a fresh child process (see child.py):

1. generate the workload's CSV files from the seed;
2. job: the nine stages through ``dnn2lr.pipeline.run_stage``, with the two
   set-up stages repeated and their median kept;
3. score: ``evaluate_model`` on the holdout, repeated for ``--seconds``, then
   ``score_rows`` on one row at a time;
4. rerun: ``inconsistency`` through ``evaluate`` again with a changed eta or
   epsilon, reusing the trained network; three times, each in a fresh child,
   and the median kept.

Every output is checked against the benchmark's own scorer and AUC (see
checks.py). ``attempted`` counts the stages and scoring calls; ``failed``
counts those that raised or whose output a check rejected. A stage that
raises ends the run with exit code 1, since nothing after it can be measured.
With ``--trace 1`` the run instead times an untraced and a traced job and
reports per-layer numbers. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from spans import load_totals

SETUP_REPS = 3
RERUN_REPS = 3
SCORE_TOL = 1e-9
DEADLINE_S = 170.0
TRUE_AUC_SLACK = 0.01
PINNED_THREADS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class Run:
    """One benchmark run: its directories, child environment and deadline."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.bench = Path(__file__).resolve().parent
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.base = root / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
        self.datadir = self.base / "data"
        self.workdir = self.base / "run"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in PINNED_THREADS})
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(self.bench)])
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def child(self, mode: str, **spec) -> dict:
        spec = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "data": str(self.datadir / "data.csv"),
            "datadir": str(self.datadir),
            "holdout": str(self.datadir / "holdout.csv"),
            "workdir": str(self.workdir),
            "trace": False,
            "out": str(self.base / f"{mode}.out.json"),
            **spec,
        }
        spec_path = self.base / f"{mode}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(self.bench / "child.py"), mode, str(spec_path)],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(remaining, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child failed:\n{proc.stderr.strip()[-2000:]}")
        return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))

    def check(self, fn, *args):
        """Run one check of one operation's output; a failed check fails that operation."""
        try:
            return fn(*args)
        except checks.CheckFailed as err:
            self.failures.append(str(err))
            self.failed += 1
            return None

    def tally(self, what: str, good: list[bool]) -> None:
        """Count a series of checked calls as attempted, and the bad ones as failed."""
        bad = good.count(False)
        self.attempted += len(good)
        self.failed += bad
        if bad:
            self.failures.append(f"{what}: {bad} of {len(good)} calls raised or disagree with the independent scorer")

    # ------------------------------------------------------------------ #

    def check_artifacts(self, epsilon_rule: str) -> dict:
        """Every check that reads the work directory's text artifacts."""
        ws = self.workdir
        fields = [name for name, _ in self.workload.schema()]
        meta = json.loads((self.datadir / "meta.json").read_text(encoding="utf-8"))
        model = checks.Scorecard((ws / "model_final.txt").read_text(encoding="utf-8"))
        report = checks.read_report((ws / "report.txt").read_text(encoding="utf-8"))
        header, rows, labels = workloads.read_csv(ws / "test.csv")
        if header != fields:
            self.failures.append(f"test.csv header {header[:3]}... differs from the schema")
            self.failed += 1
        final_auc = checks.rank_auc(labels, model.score(rows))
        plain_auc = checks.rank_auc(labels, model.score(rows, include_cross=False))
        true_auc = checks.rank_auc(labels, self.workload.true_logit(meta, header, rows))
        reported = float(report["final_test_auc"])
        self.check(checks.check_same_auc, "final_test_auc", reported, final_auc)
        self.check(checks.check_same_auc, "plain_lr_test_auc", float(report["plain_lr_test_auc"]), plain_auc)
        self.check(checks.check_auc_bounds, final_auc, plain_auc, true_auc,
                   self.workload.settings["margin"], TRUE_AUC_SLACK)
        self.check(checks.check_search_log, (ws / "search_log.txt").read_text(encoding="utf-8"))
        epsilon = checks.resolve_epsilon(epsilon_rule, len(fields))
        listed = self.check(checks.check_candidates, (ws / "candidates.tsv").read_text(encoding="utf-8"), epsilon) or []
        planted = self.workload.planted(meta)
        return {
            "test_auc": reported,
            "kept": len(listed),
            "planted_found": sum(tuple(p) in listed for p in planted),
            "model": model,
        }

    def check_scoring(self, model: checks.Scorecard, score: dict) -> None:
        """Every scoring call against the independent scorer and rank-sum AUC."""
        _, rows, labels = workloads.read_csv(self.datadir / "holdout.csv")
        independent = model.score(rows)
        self.attempted += 1
        self.check(checks.check_scores, np.load(self.base / "scores.npy"), independent)
        holdout_auc = checks.rank_auc(labels, independent)
        self.tally("evaluate_model AUC on the holdout",
                   [a is not None and abs(a - holdout_auc) <= SCORE_TOL for a in score["pass_aucs"]])
        self.tally("score_rows on one row", [
            s is not None and abs(s - independent[i % len(rows)]) <= SCORE_TOL
            for i, s in enumerate(score["one_row_scores"])
        ])

    def job(self, trace: bool, reps: int) -> dict:
        job = self.child("job", trace=trace, setup_reps=reps, trace_out=str(self.base / "trace.json"))
        self.attempted += 2 * reps + 7
        return job

    def score(self, trace: bool) -> dict:
        model_path = self.base / "model_job.txt"
        shutil.copyfile(self.workdir / "model_final.txt", model_path)
        return self.child("score", trace=trace, model=str(model_path),
                          scores_out=str(self.base / "scores.npy"))

    def rerun(self) -> float:
        """The rerun, each time in a fresh process; the median of its times."""
        times = []
        for _ in range(RERUN_REPS):
            rerun = self.child("rerun")
            self.attempted += len(rerun["stages"])
            times.append(rerun["rerun_s"])
        return statistics.median(times)

    def timed(self) -> dict:
        job = self.job(trace=False, reps=SETUP_REPS)
        outcome = self.check_artifacts(self.workload.settings["epsilon"])
        score = self.score(trace=False)
        self.check_scoring(outcome["model"], score)
        rerun_s = self.rerun()
        rule = self.workload.settings["rerun"].get("epsilon", self.workload.settings["epsilon"])
        self.check_artifacts(rule)
        return {
            "setup_s": (job["setup_s"], "s"),
            "crossing_s": (job["crossing_s"], "s"),
            "job_s": (job["job_s"], "s"),
            "rerun_s": (rerun_s, "s"),
            "peak_rss_mb": (job["peak_rss_mb"], "MB"),
            "test_auc": (outcome["test_auc"], "auc"),
            "score_rows_per_s": (score["score_rows_per_s"], "rows/s"),
            "score_1row_p50_ms": (score["score_1row_p50_ms"], "ms"),
        }

    def traced(self) -> dict:
        plain = self.job(trace=False, reps=1)
        self.check_artifacts(self.workload.settings["epsilon"])
        job = self.job(trace=True, reps=1)
        outcome = self.check_artifacts(self.workload.settings["epsilon"])
        artifact_bytes = sum(p.stat().st_size for p in self.workdir.iterdir() if p.is_file())
        score = self.score(trace=True)
        self.check_scoring(outcome["model"], score)
        totals, counts, wrapped = load_totals(self.base / "trace.json")
        metrics = per_layer(job, totals, counts, wrapped, outcome)
        metrics["pipeline.artifact_bytes"] = (artifact_bytes, "bytes")
        metrics["model_io.model_bytes"] = ((self.base / "model_job.txt").stat().st_size, "bytes")
        for key, unit in (("model_io.load_s", "s"), ("model_io.score_rows_per_s", "rows/s"),
                          ("model_io.score_1row_p99_ms", "ms")):
            metrics[key] = (score[key], unit)
        metrics["trace.overhead_s"] = (job["job_s"] - plain["job_s"], "s")
        return metrics


def per_layer(job: dict, totals: dict, counts: dict, wrapped: set, outcome: dict) -> dict:
    """Per-layer metrics from the traced job's spans, counts and micro-timings."""
    out = {f"stage.{stage}_s": (seconds, "s") for stage, seconds in job["stages"].items()}

    for name in ("pipeline.artifact_read", "pipeline.artifact_write", "data.load_csv", "data.encode",
                 "discretize.select_granularity", "discretize.apply_edges", "network.train",
                 "network.embedding_gradients", "inconsistency.compute", "inconsistency.feasible",
                 "candidates.enumerate", "crosslr.phase1", "crosslr.phase2", "search.precompute",
                 "search.select", "model_io.export"):
        if name in wrapped:  # a function that no longer exists leaves its metric absent
            out[f"{name}_s"] = (totals.get(name, (0.0, 0))[0], "s")
    for name in ("data.rows_encoded", "inconsistency.rows_2plus_feasible", "candidates.subsets_counted",
                 "candidates.distinct", "crosslr.phase2_epochs", "crosslr.cross_entries", "search.steps"):
        if name in counts:
            out[name] = (counts[name], "count")
    step_s, minibatches = totals.get("network.minibatch", (0.0, 0))
    if minibatches:
        out["network.minibatches"] = (minibatches, "count")
        out["network.step_ms"] = (step_s / minibatches * 1e3, "ms")
    if counts.get("crosslr.phase2_epochs"):
        out["crosslr.phase2_epoch_s"] = (out["crosslr.phase2_s"][0] / counts["crosslr.phase2_epochs"], "s")
    auc_s, auc_calls = totals.get("search.auc", (0.0, 0))
    if auc_calls:
        out["search.auc_calls"] = (auc_calls, "count")
        out["search.auc_call_ms"] = (auc_s / auc_calls * 1e3, "ms")
        if "search.steps" in counts:
            out["search.accepted_per_auc_call"] = (counts["search.steps"] / auc_calls, "ratio")
    out["candidates.kept"] = (outcome["kept"], "count")
    out["candidates.planted_found"] = (outcome["planted_found"], "count")
    for key, value in job.get("micro", {}).items():
        out[key] = (value, "ms")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="scoring window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true", help="keep the work directory")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dnn2lr" / "pipeline.py").is_file():
        print("error: no src/dnn2lr here; run from the root of a dnn2lr checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(root, args.workload, args.seed, args.seconds)
    run.base.mkdir(parents=True, exist_ok=True)
    try:
        run.child("generate")
        metrics = run.traced() if args.trace else run.timed()
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if not args.keep:
            shutil.rmtree(run.base, ignore_errors=True)
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
