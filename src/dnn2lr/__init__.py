"""dnn2lr: cross-feature discovery for white-box scorecards.

A small embedding network is trained on categorical data; wherever its
per-sample gradient interpretation disagrees with the average interpretation
of the same feature value, the involved fields are probably interacting.
Those fields seed candidate cross features, which a two-phase sparse logistic
regression evaluates, and a validation-driven search keeps the winners. The
final artifact is a plain logistic model with named cross features.
"""

from .candidates import (
    CrossFieldCandidate,
    candidate_space_size,
    enumerate_candidates,
    top_epsilon,
)
from .config import DnnSettings, LrSettings, PipelineConfig, load_config
from .crosslr import SparseLrModel, train_phase1, train_phase2
from .data import Dataset, FieldSchema, RawTable, Vocabulary, load_csv, split_table
from .discretize import BinEdges, apply_edges, fit_equal_frequency, select_granularity
from .errors import (
    ConfigError,
    DiscretizationError,
    Dnn2LrError,
    EncodingError,
    IngestionError,
    LabelError,
    StageError,
    TrainingError,
    UndefinedMetricError,
)
from .inconsistency import (
    InconsistencyResult,
    compute_inconsistency,
    feasible_matrix,
    global_weight_table,
)
from .metrics import auc, ks
from .model_io import ExportedModel, export_model, load_exported
from .network import EmbeddingDnn, load_model, save_model, train
from .pipeline import run_all, run_stage
from .search import SearchResult, beam_select, precompute_logit_columns
from .synth import (
    FORMULATIONS,
    generate_formulation_dataset,
    generate_planted_cross,
    run_inconsistency_study,
)

__version__ = "0.1.0"

__all__ = [
    "BinEdges",
    "ConfigError",
    "CrossFieldCandidate",
    "Dataset",
    "DiscretizationError",
    "Dnn2LrError",
    "DnnSettings",
    "EmbeddingDnn",
    "EncodingError",
    "ExportedModel",
    "FORMULATIONS",
    "FieldSchema",
    "InconsistencyResult",
    "IngestionError",
    "LabelError",
    "LrSettings",
    "PipelineConfig",
    "RawTable",
    "SearchResult",
    "SparseLrModel",
    "StageError",
    "TrainingError",
    "UndefinedMetricError",
    "Vocabulary",
    "apply_edges",
    "auc",
    "beam_select",
    "candidate_space_size",
    "compute_inconsistency",
    "enumerate_candidates",
    "export_model",
    "feasible_matrix",
    "fit_equal_frequency",
    "generate_formulation_dataset",
    "generate_planted_cross",
    "global_weight_table",
    "ks",
    "load_config",
    "load_csv",
    "load_exported",
    "load_model",
    "precompute_logit_columns",
    "run_all",
    "run_inconsistency_study",
    "run_stage",
    "save_model",
    "select_granularity",
    "split_table",
    "top_epsilon",
    "train",
    "train_phase1",
    "train_phase2",
]
