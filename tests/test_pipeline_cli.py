"""End-to-end pipeline runs on planted-cross data, plus the command line."""

import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dnn2lr.cli import main
from dnn2lr.config import parse_config_text
from dnn2lr.crosslr import SparseLrModel
from dnn2lr.data import save_csv
from dnn2lr.errors import StageError
from dnn2lr.model_io import load_exported
from dnn2lr.pipeline import (
    STAGE_ORDER,
    STAGES,
    Workspace,
    evaluate_model,
    load_lr_full,
    load_selected,
    run_all,
    run_stage,
    save_lr_full,
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


def artifact_paths(ws):
    """Every artifact path a Workspace defines."""
    return [path for name, path in vars(ws).items() if name != "root"]


FILES = {attr: name for stage in STAGES.values() for attr, name in stage.writes.items()}
PRODUCER = {attr: name for name, stage in STAGES.items() for attr in stage.writes}


def run_on_copy(finished_run, tmp_path, capsys, stage, name, corrupt, *flags):
    """Run one stage through the CLI on a copy of the finished run with one file changed.

    ``name`` "." hands ``corrupt`` the work directory itself.
    """
    _, _, ws, data_path = finished_run
    shutil.copytree(ws.root, tmp_path / "work")
    corrupt(tmp_path / "work" / name)
    conf_path = tmp_path / "run.conf"
    conf_path.write_text(make_config_text(data_path, tmp_path / "work"))
    code = main([stage, "--config", str(conf_path), *flags])
    return code, capsys.readouterr().err


class TestRunAll:
    def test_every_artifact_written(self, finished_run):
        _, _, ws, _ = finished_run
        assert set(ws.root.iterdir()) == set(artifact_paths(ws))

    def test_readme_stage_table_names_every_artifact(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = [line.split("|") for line in readme.splitlines() if line.startswith("| `")]
        listed = [
            (row[1].strip(" `"), re.findall(r"`([^`]+)`", row[2]), re.findall(r"`([^`]+)`", row[3]))
            for row in rows
        ]
        assert listed == [
            (name, [FILES[attr] for attr in stage.reads], list(stage.writes.values()))
            for name, stage in STAGES.items()
        ]

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
        assert PLANTED in load_selected(ws.selected_tsv, N_FIELDS)
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
        vocab = load_exported(ws.encoding).vocab
        model = load_lr_full(ws.lr_full, vocab.sizes())
        copy_path = tmp_path / "lr_copy.npz"
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
        code, err = run_on_copy(
            finished_run, tmp_path, capsys, "train-lr", "candidates.tsv",
            lambda path: path.write_text("1,4\t9\n" + line),
        )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ingest: ")


def truncate(size):
    return lambda path: path.write_bytes(path.read_bytes()[:size])


def set_cell(name, index, value):
    """Rewrite one cell of one array of a container."""

    def corrupt(path):
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays[name][index] = value
        np.savez(path, **arrays)

    return corrupt


def replace_text(old, new, count=1):
    return lambda path: path.write_text(path.read_text().replace(old, new, count))


# Not UTF-8: a lone continuation byte, then random bytes.
NOT_UTF8 = b"\x80" + np.random.default_rng(0).bytes(199)


def write_not_utf8(path):
    path.write_bytes(NOT_UTF8)


def duplicate_first_value(path):
    """Repeat the first w line that names a value other than missing."""
    lines = path.read_text().splitlines()
    first = next(line for line in lines if line.startswith("w\t") and line.split("\t")[2])
    path.write_text("\n".join(lines + [first]) + "\n")


F00 = "field\t0\tf00\tcategorical"

# Lines export_model never writes: edges for a categorical field, and a second
# edges, bias or missing-value w line, which would override the first.
REPEATED_OR_MISPLACED = {
    "edges-for-categorical": replace_text(F00, F00 + "\nedges\tf00\t10\t1.0"),
    "edges-twice": replace_text(F00, F00.replace("categorical", "numerical")
                                + "\nedges\tf00\t10\t1.0\nedges\tf00\t10\t2.0"),
    "bias-twice": lambda path: path.write_text(path.read_text() + "bias\t5.0\n"),
    "missing-w-twice": lambda path: path.write_text(path.read_text() + "w\tf00\t\t1.5\n"),
}


class TestArtifactReaders:
    """Each bad artifact fails the stage reading it with one error line naming the file."""

    @pytest.mark.parametrize(
        "stage, name, corrupt",
        [
            ("train-dnn", "encoded_train.npz", set_cell("ids", (0, 0), 999)),
            ("train-dnn", "encoded_valid.npz", set_cell("labels", 0, 2)),
            ("inconsistency", "dnn.npz", truncate(500)),
            ("inconsistency", "dnn.npz", set_cell("weights", 0, np.nan)),
            ("candidates", "inconsistency_d.npz", set_cell("d", (0, 0), np.nan)),
            ("candidates", "inconsistency_d.npz", set_cell("d", (0, 0), -1.0)),
            ("search", "lr_full.npz", set_cell("cross_ids", 0, -1)),
            ("search", "lr_full.npz", set_cell("cross_ids", 0, 10**6)),
            ("search", "lr_full.npz", lambda path: save_lr_full(path, SparseLrModel([3] * 8))),
            ("train-lr", "encoding.txt", duplicate_first_value),
            ("export-model", "encoding.txt", replace_text(F00, F00 + "\nedges\tf00\t10\tnan,1.0")),
            ("export-model", "encoding.txt", replace_text(F00, F00 + "\nedges\tf00\tten\t1.0")),
            ("train-dnn", "encoding.txt", replace_text("\tf07\t", "\tg07\t", -1)),
            ("export-model", "encoding.txt", replace_text(
                F00, F00.replace("categorical", "numerical") + "\nedges\tf00\t10\t1.0")),
            ("train-lr", "encoding.txt", write_not_utf8),
            ("train-lr", "candidates.tsv", write_not_utf8),
            ("export-model", "selected.tsv", write_not_utf8),
            ("export-model", "selected.tsv", lambda path: path.write_text("0,x\t0.5\n")),
            ("export-model", "selected.tsv", lambda path: path.write_text("0,0\t0.5\n")),
            ("export-model", "selected.tsv", lambda path: path.write_text("0,99\t0.5\n")),
            ("export-model", "selected.tsv", lambda path: path.write_text("0\t0.5\n")),
        ],
        ids=[
            "id-999", "label-2", "dnn-cut-to-500-bytes", "dnn-nan-weight", "d-nan", "d-negative",
            "member-id-negative", "member-id-out-of-range", "lr-other-vocabulary",
            "encoding-duplicate-value", "edges-nan-cut", "edges-granularity-not-int",
            "encoding-renamed-field", "encoding-kind-changed", "encoding-not-utf8",
            "candidates-not-utf8", "selected-not-utf8",
            "selected-not-int", "selected-same-field", "selected-field-99", "selected-one-field",
        ],
    )
    def test_rejected_with_one_line(self, finished_run, tmp_path, capsys, stage, name, corrupt):
        code, err = run_on_copy(finished_run, tmp_path, capsys, stage, name, corrupt)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ingest: ")
        assert name in err

    @pytest.mark.parametrize("corrupt", REPEATED_OR_MISPLACED.values(), ids=REPEATED_OR_MISPLACED)
    def test_repeated_or_misplaced_line_rejected(self, finished_run, tmp_path, capsys, corrupt):
        code, err = run_on_copy(finished_run, tmp_path, capsys, "train-lr", "encoding.txt", corrupt)
        assert code == 1
        assert_names_the_line(err, tmp_path / "work" / "encoding.txt")


def assert_names_the_line(err, path):
    """Exactly one ``error: ingest: <path>: line N: ...`` line."""
    assert re.fullmatch(rf"error: ingest: {re.escape(str(path))}: line \d+: [^\n]+\n", err), err


@pytest.mark.parametrize(
    "corrupt",
    [lambda path: path.unlink(), lambda path: path.write_text("0,2\t0.5\n")],
    ids=["selected-deleted", "selected-rewritten"],
)
def test_evaluate_names_the_crosses_of_the_scorecard(finished_run, tmp_path, capsys, corrupt):
    _, _, ws, _ = finished_run
    code, err = run_on_copy(finished_run, tmp_path, capsys, "evaluate", "selected.tsv", corrupt)
    assert code == 0, err
    assert (tmp_path / "work" / "report.txt").read_bytes() == ws.report.read_bytes()


@pytest.mark.parametrize("corrupt", REPEATED_OR_MISPLACED.values(), ids=REPEATED_OR_MISPLACED)
def test_evaluate_refuses_a_repeated_or_misplaced_line(finished_run, tmp_path, capsys, corrupt):
    _, _, ws, data_path = finished_run
    model_path = tmp_path / "model_final.txt"
    shutil.copy(ws.model_final, model_path)
    corrupt(model_path)
    assert main(["evaluate", "--model", str(model_path), "--data", str(data_path)]) == 1
    assert_names_the_line(capsys.readouterr().err, model_path)


def test_evaluate_refuses_a_config_listing_fields_in_another_order(finished_run, tmp_path, capsys):
    """The config's order reads test.csv and the model's scores it, so the two must agree."""
    _, _, ws, data_path = finished_run
    work = tmp_path / "work"
    shutil.copytree(ws.root, work)
    first_two = "field.f00 = categorical\nfield.f01 = categorical\n"
    swapped = "field.f01 = categorical\nfield.f00 = categorical\n"
    conf = tmp_path / "run.conf"
    conf.write_text(make_config_text(data_path, work).replace(first_two, swapped))
    assert main(["evaluate", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: ingest: {work / 'model_final.txt'}: written for another schema\n"
    assert (work / "report.txt").read_bytes() == ws.report.read_bytes()


def test_work_directory_with_split_csvs_and_no_container_needs_ingest(
    finished_run, tmp_path, capsys
):
    """A work directory from before ingest coded its splits holds train.csv and valid.csv."""
    def as_before(work):
        (work / "splits.npz").unlink()
        for name in ("train.csv", "valid.csv"):
            shutil.copy(work / "test.csv", work / name)

    code, err = run_on_copy(finished_run, tmp_path, capsys, "discretize", ".", as_before)
    assert code == 1
    assert err == "error: pipeline: missing: ingest\n"


def test_lr_full_holds_a_cross_wider_than_int64(tmp_path):
    sizes = [100_003] * 4  # the 4-way span, about 1e20, exceeds int64
    model = SparseLrModel(sizes)
    model.bias = 0.1
    ids = [[2, 3, 4, 5], [100_002] * 4, [7, 0, 100_001, 9]]
    model.attach_cross((0, 1, 2, 3), ids, [0.5, -1.25, 3e-17])
    assert model.cross_keys[0].dtype == object
    path = tmp_path / "lr_full.npz"
    save_lr_full(path, model)
    back = load_lr_full(path, sizes)
    assert back.cross_keys[0].tolist() == model.cross_keys[0].tolist()
    assert back.cross_weights[0].tolist() == model.cross_weights[0].tolist()
    save_lr_full(tmp_path / "again.npz", back)
    assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()


class TestStageGuards:
    def test_missing_prerequisite(self, tmp_path):
        data_path = tmp_path / "planted.csv"
        write_planted_csv(data_path, k=400)
        config = make_config(data_path, tmp_path / "work")
        with pytest.raises(StageError) as exc:
            run_stage(config, "search")
        assert str(exc.value) == "missing: discretize"  # the earliest stage to run

    def test_unknown_stage(self, tmp_path):
        config = make_config(tmp_path / "x.csv", tmp_path / "w")
        with pytest.raises(StageError):
            run_stage(config, "polish")

    def test_run_all_wraps_stage_failures(self, tmp_path):
        config = make_config(tmp_path / "absent.csv", tmp_path / "w")
        with pytest.raises(StageError) as exc:
            run_all(config)
        assert "stage ingest failed" in str(exc.value)


# Each stage with each stage whose files it reads.
READ_FROM = [
    (name, producer)
    for name, stage in STAGES.items()
    for producer in dict.fromkeys(PRODUCER[attr] for attr in stage.reads)
]


class TestStageTable:
    def test_every_read_is_written_by_an_earlier_stage_in_order(self):
        assert len(set(FILES.values())) == len(FILES)
        for i, stage in enumerate(STAGES.values()):
            producers = [STAGE_ORDER.index(PRODUCER[attr]) for attr in stage.reads]
            assert producers == sorted(producers) and all(p < i for p in producers)

    @pytest.mark.parametrize("stage, producer", READ_FROM, ids=[f"{s}-{p}" for s, p in READ_FROM])
    def test_missing_input_names_its_producer(
        self, finished_run, tmp_path, capsys, stage, producer
    ):
        def drop(work):
            for name in STAGES[producer].writes.values():
                (work / name).unlink()

        code, err = run_on_copy(finished_run, tmp_path, capsys, stage, ".", drop)
        assert code == 1
        assert err == f"error: pipeline: missing: {producer}\n"

    @pytest.mark.parametrize("stage", STAGE_ORDER)
    def test_rerun_keeps_earlier_files_and_deletes_only_later_outputs(
        self, finished_run, tmp_path, capsys, stage
    ):
        _, _, ws, _ = finished_run
        code, err = run_on_copy(
            finished_run, tmp_path, capsys, stage, "notes.txt", lambda path: path.write_text("x")
        )
        assert code == 0, err
        work = tmp_path / "work"
        assert (work / "notes.txt").read_text() == "x"
        later = STAGE_ORDER[STAGE_ORDER.index(stage) + 1 :]
        dropped = {name for s in later for name in STAGES[s].writes.values()}
        kept = {path.name for path in ws.root.iterdir()} - dropped
        assert {path.name for path in work.iterdir()} == kept | {"notes.txt"}
        for name in kept:
            assert (work / name).read_bytes() == (ws.root / name).read_bytes(), name

    def test_rerun_candidates_leaves_no_stale_model(self, finished_run, tmp_path, capsys):
        """Search and export-model refuse the lr_full.npz built from the old candidates."""
        flags = ("--eta", "0.05", "--epsilon", "2")
        code, err = run_on_copy(
            finished_run, tmp_path, capsys, "candidates", ".", lambda work: None, *flags
        )
        assert code == 0, err
        for stage in ("search", "export-model"):
            assert main([stage, "--config", str(tmp_path / "run.conf")]) == 1
            assert capsys.readouterr().err == "error: pipeline: missing: train-lr\n"


def write_numeric_csv(path, bad_row):
    """Sixty rows of a numerical age and a categorical city; ``abc`` in one age cell."""
    rows = [f"{'abc' if i == bad_row else i},c{i % 3},{i % 2}\n" for i in range(60)]
    path.write_text("age,city,y\n" + "".join(rows))


def test_unparseable_number_fails_ingest_naming_file_and_line(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_numeric_csv(data, bad_row=40)
    conf = tmp_path / "run.conf"
    conf.write_text(f"label = y\nfield.age = numerical\nfield.city = categorical\n"
                    f"data = {data}\nworkdir = {tmp_path / 'work'}\n")
    message = f"{data}: line 42: age: cannot parse 'abc' as a number"
    assert main(["ingest", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == f"error: ingest: {message}\n"
    assert main(["run-all", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == f"error: pipeline: stage ingest failed: {message}\n"
    assert not (tmp_path / "work").exists()


def test_evaluate_names_the_file_and_line_of_an_unparseable_number(tmp_path, capsys):
    model = tmp_path / "m.txt"
    model.write_text("bias\t0.0\nfield\t0\tage\tnumerical\nfield\t1\tcity\tcategorical\n"
                     "edges\tage\t10\t30.0\nw\tage\tb0\t-1.0\nw\tage\tb1\t1.0\n")
    data = tmp_path / "d.csv"
    write_numeric_csv(data, bad_row=7)
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: ingest: {data}: line 9: age: cannot parse 'abc' as a number\n"


MULTILINE_BAD_ROWS = pytest.mark.parametrize(
    "bad, message",
    [("abc,c,1", "age: cannot parse 'abc' as a number"), ("3,c", "expected 3 cells, got 2")],
    ids=["unparseable", "ragged"],
)


def write_multiline_csv(path, bad):
    """A quoted city cell spanning lines 2 and 3, then ``bad`` as the record on line 5."""
    rows = "".join(f"{i},c{i % 3},{i % 2}\n" for i in range(6, 60))
    path.write_text(f'age,city,y\n1,"two\nlines",0\n2,c,1\n{bad}\n{rows}')


@MULTILINE_BAD_ROWS
def test_ingest_counts_the_lines_of_a_quoted_cell(tmp_path, capsys, bad, message):
    data = tmp_path / "d.csv"
    write_multiline_csv(data, bad)
    conf = tmp_path / "run.conf"
    conf.write_text(f"label = y\nfield.age = numerical\nfield.city = categorical\n"
                    f"data = {data}\nworkdir = {tmp_path / 'work'}\n")
    assert main(["ingest", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == f"error: ingest: {data}: line 5: {message}\n"


@MULTILINE_BAD_ROWS
def test_evaluate_counts_the_lines_of_a_quoted_cell(tmp_path, capsys, bad, message):
    model = tmp_path / "m.txt"
    model.write_text("bias\t0.0\nfield\t0\tage\tnumerical\nfield\t1\tcity\tcategorical\n"
                     "edges\tage\t10\t30.0\nw\tage\tb0\t-1.0\nw\tage\tb1\t1.0\n")
    data = tmp_path / "d.csv"
    write_multiline_csv(data, bad)
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 1
    assert capsys.readouterr().err == f"error: ingest: {data}: line 5: {message}\n"


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


@pytest.mark.parametrize("line", [
    "dnn.batch_size = 100",
    "dnn.hidden = 0",
    "dnn.hidden = 16,-3",
    "dnn.learning_rate = nan",
    "lr.epochs = 0",
    "lr.learning_rate = -1",
    "lr.l2 = inf",
    "split = 0.5,0.5",
    "lr.grid_tune = true",
])
@pytest.mark.parametrize("command", ["run-all", "ingest", "train-lr"])
def test_bad_settings_fail_before_any_stage(tmp_path, capsys, command, line):
    data_path = tmp_path / "planted.csv"
    write_planted_csv(data_path, k=400)
    conf_path = tmp_path / "run.conf"
    conf_path.write_text(make_config_text(data_path, tmp_path / "work") + line + "\n")
    assert main([command, "--config", str(conf_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"^error: config: ", err[0]), err
    assert line.split()[0] in err[0]
    assert not (tmp_path / "work").exists()


def _config_with(tmp_path, data="", workdir=""):
    """A planted-pair config whose data and workdir lines hold the given values."""
    write_planted_csv(tmp_path / "planted.csv", k=400)
    text = make_config_text("DATA", "WORKDIR")
    conf_path = tmp_path / "run.conf"
    conf_path.write_text(text.replace("DATA", data).replace("WORKDIR", workdir))
    return str(conf_path)


@pytest.mark.parametrize("argv", [
    lambda t: ["run-all", "--config", _config_with(t, workdir=str(t / "work"))],  # data =
    lambda t: ["ingest", "--config", _config_with(t, data=str(t), workdir=str(t / "work"))],
    lambda t: ["ingest", "--config", _config_with(t, data=str(t / "planted.csv"))],  # workdir =
    lambda t: ["ingest", "--config", str(t)],
    lambda t: ["evaluate", "--model", str(t / "missing.txt"), "--data", str(t)],
    lambda t: ["evaluate", "--model", str(t), "--data", str(t)],
], ids=["empty-data", "data-is-dir", "empty-workdir", "config-is-dir", "model-missing",
        "model-is-dir"])
def test_unusable_paths_fail_in_one_line(tmp_path, capsys, monkeypatch, argv):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"^error: [a-z]+: ", err[0]), err
    assert list(cwd.iterdir()) == [] and not (tmp_path / "work").exists()


def test_non_utf8_input_fails_in_one_line(tmp_path, capsys):
    noise = tmp_path / "noise.bin"
    noise.write_bytes(NOT_UTF8)
    data = tmp_path / "d.csv"
    data.write_text("f00,y\na,1\nb,0\n")
    conf = _config_with(tmp_path, data=str(noise), workdir=str(tmp_path / "work"))
    cases = [
        (["run-all", "--config", str(noise)], "config"),
        (["ingest", "--config", conf], "ingest"),
        (["evaluate", "--model", str(noise), "--data", str(data)], "ingest"),
    ]
    for argv, kind in cases:
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {kind}: {noise}: not UTF-8 text"], argv


def test_work_directory_that_is_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wfile").write_text("")
    conf = _config_with(tmp_path, data=str(tmp_path / "planted.csv"), workdir="work")
    assert main(["ingest", "--config", conf, "--workdir", "wfile"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: pipeline: work directory wfile: File exists"]
