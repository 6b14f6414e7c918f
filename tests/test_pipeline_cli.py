"""End-to-end pipeline runs on planted-cross data, plus the command line."""

import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dnn2lr.cli import main
from dnn2lr.config import parse_config_text
from dnn2lr.crosslr import SparseLrModel
from dnn2lr.data import save_csv
from dnn2lr.errors import StageError
from dnn2lr.pipeline import (
    STAGE_ORDER,
    Workspace,
    evaluate_model,
    load_lr_full,
    load_selected,
    run_all,
    run_stage,
    save_lr_full,
    stage_search,
)
from dnn2lr.synth import generate_planted_cross

N_FIELDS = 8
PLANTED = (1, 4)
CONFIG_TEMPLATE = """\
label = y
field.f00 = categorical
field.f01 = categorical
field.f02 = categorical
field.f03 = categorical
field.f04 = categorical
field.f05 = categorical
field.f06 = categorical
field.f07 = categorical
data = {data}
workdir = {workdir}
seed = 11
dnn.hidden = 32,16
dnn.embedding_dim = 8
dnn.epochs = 15
lr.epochs = 20
"""


def write_planted_csv(path, k=6000, seed=11):
    data = generate_planted_cross(k=k, n=N_FIELDS, planted=PLANTED, strength=1.0, seed=seed)
    save_csv(path, data.table, label="y")


def make_config_text(data_path, workdir):
    return CONFIG_TEMPLATE.format(data=data_path, workdir=workdir)


def make_config(data_path, workdir):
    return parse_config_text(make_config_text(data_path, workdir))


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One full run_all over a noiseless planted pair; shared by the checks."""
    root = tmp_path_factory.mktemp("pipeline")
    data_path = root / "planted.csv"
    write_planted_csv(data_path)
    config = make_config(data_path, root / "work")
    with warnings.catch_warnings():
        # candidate supply can fall short of epsilon on this easy fixture
        warnings.simplefilter("ignore")
        report = run_all(config)
    return config, report, Workspace(root / "work"), data_path


class TestRunAll:
    def test_every_artifact_written(self, finished_run):
        _, _, ws, _ = finished_run
        for path in (
            ws.train_csv, ws.valid_csv, ws.test_csv,
            ws.vocab_tsv, ws.encoded_train, ws.encoded_valid, ws.encoded_test,
            ws.dnn_bin, ws.dnn_history, ws.d_csv, ws.feasible_csv,
            ws.candidates_tsv, ws.lr_full, ws.selected_tsv, ws.search_log,
            ws.model_final, ws.report,
        ):
            assert path.exists(), path

    def test_report_contents(self, finished_run):
        _, report, ws, _ = finished_run
        assert set(report) == {
            "plain_lr_test_auc", "plain_lr_test_ks",
            "final_test_auc", "final_test_ks", "selected_cross_fields",
        }
        # parity label: invisible to the plain scorecard, solved by the cross
        assert report["plain_lr_test_auc"] < 0.6
        assert report["final_test_auc"] > 0.95
        assert report["selected_cross_fields"] == "f01*f04"
        text = ws.report.read_text()
        assert "final_test_auc = " in text

    def test_planted_pair_selected(self, finished_run):
        _, _, ws, _ = finished_run
        assert PLANTED in load_selected(ws.selected_tsv)
        cand_lines = ws.candidates_tsv.read_text().strip().splitlines()
        assert any(line.split("\t")[0] == "1,4" for line in cand_lines)

    def test_search_log_narrates(self, finished_run):
        _, _, ws, _ = finished_run
        log = ws.search_log.read_text()
        assert log.startswith("base_auc = ")
        assert "add f01*f04" in log
        assert "final_auc = " in log

    def test_stagewise_equals_run_all_and_is_deterministic(self, finished_run, tmp_path):
        config, _, ws, data_path = finished_run
        replica = make_config(data_path, tmp_path / "work2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for stage in STAGE_ORDER:
                run_stage(replica, stage)
        ws2 = Workspace(tmp_path / "work2")
        assert ws2.model_final.read_bytes() == ws.model_final.read_bytes()
        assert ws2.report.read_bytes() == ws.report.read_bytes()

    def test_standalone_evaluate_matches_report(self, finished_run):
        _, report, ws, _ = finished_run
        result = evaluate_model(ws.model_final, ws.test_csv, label="y")
        assert result["auc"] == pytest.approx(report["final_test_auc"], abs=1e-12)
        assert result["ks"] == pytest.approx(report["final_test_ks"], abs=1e-12)

    def test_lr_full_round_trip(self, finished_run, tmp_path):
        config, _, ws, _ = finished_run
        from dnn2lr.data import Vocabulary

        vocab = Vocabulary.load(ws.vocab_tsv, [f.name for f in config.fields])
        model = load_lr_full(ws.lr_full, vocab.sizes())
        copy_path = tmp_path / "lr_copy.txt"
        save_lr_full(copy_path, model)
        assert copy_path.read_bytes() == ws.lr_full.read_bytes()
        back = load_lr_full(copy_path, vocab.sizes())
        assert back.bias == model.bias
        for a, b in zip(back.field_weights, model.field_weights):
            assert np.array_equal(a, b)
        assert back.cross_fields == model.cross_fields
        for a, b in zip(back.cross_keys, model.cross_keys):
            assert np.array_equal(a, b)
        for a, b in zip(back.cross_weights, model.cross_weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "line", ["1,99\t5\n", "4,4\t5\n", "1,a\t5\n"], ids=["field-99", "same-field", "not-int"]
    )
    def test_train_lr_rejects_bad_candidates(self, finished_run, tmp_path, capsys, line):
        _, _, ws, data_path = finished_run
        shutil.copytree(ws.root, tmp_path / "work")
        (tmp_path / "work" / "candidates.tsv").write_text("1,4\t9\n" + line)
        conf_path = tmp_path / "run.conf"
        conf_path.write_text(make_config_text(data_path, tmp_path / "work"))
        code = main(["train-lr", "--config", str(conf_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ingest: ")


class TestStageGuards:
    def test_missing_prerequisite(self, tmp_path):
        data_path = tmp_path / "planted.csv"
        write_planted_csv(data_path, k=400)
        config = make_config(data_path, tmp_path / "work")
        with pytest.raises(StageError) as exc:
            stage_search(config)
        assert "missing" in str(exc.value)

    def test_unknown_stage(self, tmp_path):
        config = make_config(tmp_path / "x.csv", tmp_path / "w")
        with pytest.raises(StageError):
            run_stage(config, "polish")

    def test_run_all_wraps_stage_failures(self, tmp_path):
        config = make_config(tmp_path / "absent.csv", tmp_path / "w")
        with pytest.raises(StageError) as exc:
            run_all(config)
        assert "stage ingest failed" in str(exc.value)


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dnn2lr", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


class TestCli:
    def test_run_all_and_report_on_stdout(self, tmp_path):
        data_path = tmp_path / "planted.csv"
        write_planted_csv(data_path, k=1200)
        conf_path = tmp_path / "run.conf"
        conf_path.write_text(make_config_text(data_path, tmp_path / "work"))
        proc = run_cli("run-all", "--config", str(conf_path))
        assert proc.returncode == 0, proc.stderr
        assert "final_test_auc = " in proc.stdout
        assert (tmp_path / "work" / "model_final.txt").exists()

    def test_single_stage_and_standalone_evaluate(self, finished_run, tmp_path):
        _, report, ws, _ = finished_run
        proc = run_cli(
            "evaluate",
            "--model", str(ws.model_final),
            "--data", str(ws.test_csv),
            "--label", "y",
        )
        assert proc.returncode == 0, proc.stderr
        assert f"auc = {report['final_test_auc']:.6f}" in proc.stdout

    def test_evaluate_model_without_data_fails_cleanly(self, finished_run):
        _, _, ws, _ = finished_run
        proc = run_cli("evaluate", "--model", str(ws.model_final))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: config: ")

    def test_missing_prereq_exit_code_and_message(self, tmp_path):
        data_path = tmp_path / "planted.csv"
        write_planted_csv(data_path, k=400)
        conf_path = tmp_path / "run.conf"
        conf_path.write_text(make_config_text(data_path, tmp_path / "work"))
        proc = run_cli("inconsistency", "--config", str(conf_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: pipeline: missing:")

    def test_study_command(self, tmp_path):
        out = tmp_path / "study.csv"
        proc = run_cli(
            "study", "--formulation", "add_all", "--seeds", "0", "--k", "400",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("formulation,seed")
        assert len(lines) == 2

    def test_bad_config_value(self, tmp_path):
        conf_path = tmp_path / "run.conf"
        conf_path.write_text("field.a = categorical\neta = 2.0\n")
        proc = run_cli("run-all", "--config", str(conf_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: config: ")
