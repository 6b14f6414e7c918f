"""Damaged artifacts: the next stage gives the clean answer or one error line.

An array container carries its own checks, so a damaged one must leave the
next stage's outputs as they were. A text file has none: a damaged one may be
a valid file of other content, so the next stage may also exit 0 with other
outputs, but never with a traceback.
"""

import contextlib
import io
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnn2lr.cli import main
from dnn2lr.data import save_csv
from dnn2lr.pipeline import STAGES
from dnn2lr.synth import generate_planted_cross

FILES = {attr: name for stage in STAGES.values() for attr, name in stage.writes.items()}


def next_stages() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Each file a stage reads -> the first stage reading it and the files it writes."""
    out: dict[str, tuple[str, tuple[str, ...]]] = {}
    for name, stage in STAGES.items():
        for attr in stage.reads:
            out.setdefault(FILES[attr], (name, tuple(stage.writes.values())))
    return out


NEXT_STAGE = next_stages()
CONTAINERS = sorted(name for name in NEXT_STAGE if name.endswith(".npz"))
TEXTS = sorted(name for name in NEXT_STAGE if not name.endswith(".npz"))
ERROR_LINE = re.compile(r"^error: [a-z]+: ")


def write_run(root: Path, n_fields: int) -> Path:
    """A finished small run over n_fields binary fields; returns its config file."""
    data = generate_planted_cross(k=600, n=n_fields, planted=(0, 1), strength=1.0, seed=3)
    save_csv(root / "data.csv", data.table, label="y")
    conf = root / "run.conf"
    conf.write_text(
        "label = y\n"
        + "".join(f"field.f{i:02d} = categorical\n" for i in range(n_fields))
        + f"data = {root / 'data.csv'}\nworkdir = {root / 'work'}\nseed = 5\n"
        "dnn.hidden = 8\ndnn.embedding_dim = 3\ndnn.epochs = 2\nlr.epochs = 3\n"
    )
    assert run_cli("run-all", "--config", str(conf))[0] == 0
    return conf


def run_cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a short candidate supply warns
            code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The clean run, and a run with another field count to swap files from."""
    clean, other = tmp_path_factory.mktemp("clean"), tmp_path_factory.mktemp("other")
    write_run(other, n_fields=5)
    return write_run(clean, n_fields=4), clean / "work", other / "work"


def bad_value(dtype: np.dtype, name: str) -> st.SearchStrategy:
    """Values the readers forbid: non-finite floats, D below 0, integers at their max or,
    if signed, at -1.

    A finite float changed in place is a valid artifact no reader can tell from the clean
    one, so the property draws none.
    """
    if dtype.kind == "f":
        return st.sampled_from([np.nan, np.inf, -np.inf] + ([-1.0] if name == "d" else []))
    return st.sampled_from([-1] * (dtype.kind == "i") + [int(np.iinfo(dtype).max)])


def corrupt(data, path: Path, other: Path, kinds: list[str]) -> None:
    raw = path.read_bytes()
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncate":
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    elif kind == "flip":
        at, mask = data.draw(st.integers(0, len(raw) - 1)), data.draw(st.integers(1, 255))
        path.write_bytes(raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :])
    elif kind == "cell":
        with np.load(path) as archive:
            arrays = dict(archive)
        name = data.draw(st.sampled_from(sorted(k for k, a in arrays.items() if a.size)))
        cell = data.draw(st.integers(0, arrays[name].size - 1))
        arrays[name].flat[cell] = data.draw(bad_value(arrays[name].dtype, name))
        np.savez(path, **arrays)
    else:
        shutil.copyfile(other / path.name, path)


@contextlib.contextmanager
def damaged_copy(runs, data, name: str, kinds: list[str]):
    """A copy of the clean work directory with ``name`` damaged, and a config reading it."""
    conf, clean, other = runs
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch) / "work"
        shutil.copytree(clean, work)
        corrupt(data, work / name, other, kinds)
        copy_conf = Path(scratch) / "run.conf"
        copy_conf.write_text(conf.read_text().replace(str(clean), str(work)))
        yield work, copy_conf


def assert_one_error_line(code: int, err: str) -> None:
    assert code == 1
    assert len(err.splitlines()) == 1 and ERROR_LINE.match(err), err


def test_every_container_the_pipeline_writes_is_damaged():
    assert CONTAINERS == sorted(n for n in FILES.values() if n.endswith(".npz"))


def test_every_text_file_a_stage_reads_is_damaged():
    assert TEXTS == ["candidates.tsv", "encoding.txt", "model_final.txt", "selected.tsv",
                     "test.csv"]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_damaged_container_fails_with_one_line_or_changes_nothing(runs, data):
    clean = runs[1]
    name = data.draw(st.sampled_from(CONTAINERS))
    stage, outputs = NEXT_STAGE[name]
    with damaged_copy(runs, data, name, ["truncate", "flip", "cell", "swap"]) as (work, conf):
        code, err = run_cli(stage, "--config", str(conf))
        if code == 0:
            for output in outputs:
                assert (work / output).read_bytes() == (clean / output).read_bytes(), output
        else:
            assert_one_error_line(code, err)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_damaged_text_file_fails_with_one_line_or_runs(runs, data):
    name = data.draw(st.sampled_from(TEXTS))
    standalone = name == "model_final.txt" and data.draw(st.booleans())  # evaluate --model
    with damaged_copy(runs, data, name, ["truncate", "flip", "swap"]) as (work, conf):
        if standalone:
            argv = ["evaluate", "--model", str(work / name), "--data", str(work / "test.csv")]
        else:
            argv = [NEXT_STAGE[name][0], "--config", str(conf)]
        code, err = run_cli(*argv)
        if code != 0:
            assert_one_error_line(code, err)
