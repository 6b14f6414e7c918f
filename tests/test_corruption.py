"""Damaged array containers: the next stage gives the clean answer or one error line."""

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
from dnn2lr.synth import generate_planted_cross

# Each container a stage reads, that stage and the files it writes. That is
# every container the pipeline writes.
NEXT_STAGE = {
    "encoded_train.npz": ("train-dnn", ("dnn.npz", "dnn_history.csv")),
    "encoded_valid.npz": ("train-dnn", ("dnn.npz", "dnn_history.csv")),
    "dnn.npz": ("inconsistency", ("inconsistency_d.npz",)),
    "inconsistency_d.npz": ("candidates", ("candidates.tsv",)),
    "lr_full.npz": ("search", ("selected.tsv", "search_log.txt")),
}
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
    """Values the readers forbid: non-finite floats, D below 0, integers at -1 or at their max.

    A finite float changed in place is a valid artifact no reader can tell from the clean
    one, so the property draws none.
    """
    if dtype.kind == "f":
        return st.sampled_from([np.nan, np.inf, -np.inf] + ([-1.0] if name == "d" else []))
    return st.sampled_from([-1, int(np.iinfo(dtype).max)])


def corrupt(data, path: Path, other: Path) -> None:
    raw = path.read_bytes()
    kind = data.draw(st.sampled_from(["truncate", "flip", "cell", "swap"]))
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


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_damaged_container_fails_with_one_line_or_changes_nothing(runs, data):
    conf, clean, other = runs
    name = data.draw(st.sampled_from(sorted(NEXT_STAGE)))
    stage, outputs = NEXT_STAGE[name]
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch) / "work"
        shutil.copytree(clean, work)
        corrupt(data, work / name, other)
        copy_conf = Path(scratch) / "run.conf"
        copy_conf.write_text(conf.read_text().replace(str(clean), str(work)))
        code, err = run_cli(stage, "--config", str(copy_conf))
        if code == 0:
            for output in outputs:
                assert (work / output).read_bytes() == (clean / output).read_bytes(), output
        else:
            assert code == 1
            assert len(err.splitlines()) == 1 and ERROR_LINE.match(err), err
