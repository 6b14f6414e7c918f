"""Command-line front end: one subcommand per pipeline stage plus run-all.

Every command exits 0 on success. Failures print a single machine-parsable
line ``error: <kind>: <message>`` to stderr and exit 1; a path that cannot be
opened reports as ``error: ingest: <path>: <reason>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline, synth
from .config import PipelineConfig, load_config
from .errors import ConfigError, Dnn2LrError

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (key = value lines)")
    parser.add_argument("--data", help="raw CSV path, overrides the config")
    parser.add_argument("--workdir", help="artifact directory, overrides the config")
    parser.add_argument("--seed", type=int, help="root seed, overrides the config")
    parser.add_argument("--eta", type=float, help="feasible fraction in (0,1)")
    parser.add_argument("--epsilon", help="candidate budget: an integer or '<k>n'")
    parser.add_argument("--beam-width", type=int, dest="beam_width", help="1 = greedy")
    parser.add_argument("--threads", type=int, help="worker threads for the search")
    parser.add_argument(
        "--max-selected", type=int, dest="max_selected", help="cap on accepted cross features"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnn2lr",
        description=(
            "Learn cross features from an embedding network's interpretation "
            "inconsistency and ship them in a white-box logistic scorecard."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_all = sub.add_parser("run-all", help="run every stage in order")
    _add_common_flags(run_all)

    for stage in pipeline.STAGES:
        stage_parser = sub.add_parser(stage, help=f"run the {stage} stage")
        if stage == "evaluate":
            stage_parser.add_argument("--model", help="exported model file (standalone mode)")
            stage_parser.add_argument("--label", default="y", help="label column name")
        _add_common_flags(stage_parser)

    study = sub.add_parser("study", help="formulation inconsistency study")
    study.add_argument(
        "--formulation",
        default="all",
        help="comma-separated formulation names, or 'all' (see synth.FORMULATIONS)",
    )
    study.add_argument("--seeds", default="0", help="comma-separated seeds or 'a-b' range")
    study.add_argument("--k", type=int, default=10000, help="samples per run")
    study.add_argument("--out", default="study.csv", help="output CSV path")
    return parser


def _assemble_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "data", None):
        config.data = Path(args.data)
    if getattr(args, "workdir", None):
        config.workdir = Path(args.workdir)
    for key in ("seed", "eta", "epsilon", "beam_width", "threads", "max_selected"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    return config


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if "-" in text and "," not in text:
        lo, _, hi = text.partition("-")
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ConfigError(f"bad seed range {text!r}") from None
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad seed list {text!r}") from None


def _run_study(args: argparse.Namespace) -> None:
    if args.formulation.strip() == "all":
        names = sorted(synth.FORMULATIONS)
    else:
        names = [part.strip() for part in args.formulation.split(",") if part.strip()]
    for name in names:
        synth.get_formulation(name)  # fail fast on typos
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ConfigError("no seeds given")
    rows = synth.run_inconsistency_study(names, seeds, k=args.k)
    synth.save_study_csv(args.out, rows)
    detected = sum(r.interaction_detected for r in rows)
    print(f"wrote {args.out}: {len(rows)} runs, interaction detected in {detected}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "study":
            _run_study(args)
            return 0
        if args.command == "evaluate" and getattr(args, "model", None):
            if not args.data:
                raise ConfigError("evaluate --model also needs --data <csv>")
            result = pipeline.evaluate_model(args.model, args.data, label=args.label)
            print(f"auc = {result['auc']:.6f}")
            print(f"ks = {result['ks']:.6f}")
            return 0
        config = _assemble_config(args)
        if args.command == "run-all":
            report = pipeline.run_all(config)
        else:
            report = pipeline.run_stage(config, args.command)
        if isinstance(report, dict):
            print(pipeline.render_report(report), end="")
        return 0
    except Dnn2LrError as err:
        message = " ".join(str(err).split())
        print(f"error: {err.kind}: {message}", file=sys.stderr)
        return 1
    except OSError as err:  # a path the user gave cannot be opened
        message = f"{err.filename}: {err.strerror}" if err.filename else str(err)
        print(f"error: ingest: {' '.join(message.split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
