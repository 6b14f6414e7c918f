"""Config file parsing and validation."""

import re
from pathlib import Path

import pytest

from dnn2lr.config import (
    CONFIG_KEYS,
    DnnSettings,
    LrSettings,
    PipelineConfig,
    load_config,
    parse_config_text,
)
from dnn2lr.errors import ConfigError

# Every key a config file may set. The key table is derived from the
# dataclass fields, so a field added to or dropped from a settings type must
# show up here too.
ACCEPTED_KEYS = {
    "label", "data", "workdir", "seed", "eta", "epsilon", "split", "beam_width",
    "max_selected", "threads", "granularities", "feasible_cap",
    "dnn.embedding_dim", "dnn.hidden", "dnn.learning_rate", "dnn.l2", "dnn.batch_size",
    "dnn.epochs", "dnn.patience",
    "lr.learning_rate", "lr.l2", "lr.batch_size", "lr.epochs", "lr.patience",
}


GOOD = """\
# a comment
label = target
field.age = numerical
field.job = categorical
field.zip = categorical

data = loans.csv
workdir = out
seed = 42
eta = 0.1
epsilon = 5n
split = 0.7,0.15,0.15
beam_width = 3
dnn.hidden = 64,32
dnn.embedding_dim = 6
lr.batch_size = 128
"""


class TestParsing:
    def test_good_file(self):
        cfg = parse_config_text(GOOD)
        assert cfg.label == "target"
        assert [f.name for f in cfg.fields] == ["age", "job", "zip"]
        assert [f.kind for f in cfg.fields] == ["numerical", "categorical", "categorical"]
        assert [f.index for f in cfg.fields] == [0, 1, 2]
        assert cfg.data == Path("loans.csv")
        assert cfg.workdir == Path("out")
        assert cfg.seed == 42
        assert cfg.eta == 0.1
        assert cfg.split == (0.7, 0.15, 0.15)
        assert cfg.beam_width == 3
        assert cfg.dnn.hidden == (64, 32)
        assert cfg.dnn.embedding_dim == 6
        assert cfg.lr.batch_size == 128
        cfg.validate()

    def test_field_order_is_declaration_order(self):
        cfg = parse_config_text("field.b = categorical\nfield.a = categorical\n")
        assert [(f.name, f.index) for f in cfg.fields] == [("b", 0), ("a", 1)]

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("label = y\nwat = 1\n", origin="conf")
        assert "conf: line 2" in str(exc.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            parse_config_text("field.x = ordinal\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("seed = seven\n")
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("line", ["dnn.hidden = 16,x", "granularities = 10,,ten"])
    def test_bool_and_int_tuple_values_name_their_line(self, line):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"label = y\n{line}\n", origin="conf")
        assert f"conf: line 2: bad value for {line.split()[0]}" in str(exc.value)

    def test_comments_after_whitespace_only(self):
        cfg = parse_config_text(
            "# heading\n   # indented\ndata = a#b.csv\neta = 0.1\t# note\nseed = 3 #\n"
        )
        assert cfg.data == Path("a#b.csv")
        assert cfg.eta == 0.1
        assert cfg.seed == 3

    def test_readme_config_example_parses_and_validates(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config format", 1)[1]
        block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
        cfg = parse_config_text(block, origin="README.md")
        cfg.validate()
        assert cfg.eta == 0.05
        assert cfg.epsilon == "3n"
        assert cfg.beam_width == 1
        assert [f.name for f in cfg.fields] == ["age", "job", "zip"]

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.conf")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(GOOD)
        cfg = load_config(path)
        assert cfg.seed == 42


class TestKeys:
    def test_exactly_the_known_keys(self):
        assert set(CONFIG_KEYS) == ACCEPTED_KEYS
        assert len(ACCEPTED_KEYS) == 24

    def test_every_key_reaches_its_field(self):
        values = {
            "label": "t", "data": "d.csv", "workdir": "w", "seed": "4", "eta": "0.2",
            "epsilon": "7", "split": "0.5,0.25,0.25", "beam_width": "2", "max_selected": "3",
            "threads": "2", "granularities": "5,50", "feasible_cap": "6",
            "dnn.embedding_dim": "3", "dnn.hidden": "8,4", "dnn.learning_rate": "0.01",
            "dnn.l2": "0", "dnn.batch_size": "512", "dnn.epochs": "2", "dnn.patience": "1",
            "lr.learning_rate": "0.5", "lr.l2": "0.01", "lr.batch_size": "64",
            "lr.epochs": "3", "lr.patience": "2",
        }
        assert set(values) == ACCEPTED_KEYS
        text = "field.a = categorical\nfield.b = categorical\n"
        cfg = parse_config_text(text + "".join(f"{k} = {v}\n" for k, v in values.items()))
        cfg.validate()
        assert (cfg.label, cfg.data, cfg.workdir, cfg.seed, cfg.eta) == (
            "t", Path("d.csv"), Path("w"), 4, 0.2
        )
        assert (cfg.epsilon, cfg.split, cfg.beam_width, cfg.max_selected, cfg.threads) == (
            "7", (0.5, 0.25, 0.25), 2, 3, 2
        )
        assert (cfg.granularities, cfg.feasible_cap) == ((5, 50), 6)
        assert cfg.dnn == DnnSettings(3, (8, 4), 0.01, 0.0, 512, 2, 1)
        assert cfg.lr == LrSettings(0.5, 0.01, 64, 3, 2)

    @pytest.mark.parametrize("key", ["dnn.seed", "lr.seed", "fields", "dnn", "lr",
                                     "gradient_space", "inconsistency_mode", "lr.grid_tune"])
    def test_no_key_beyond_the_fields(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = 1\n")


class TestEpsilon:
    def test_multiples_of_n(self):
        cfg = PipelineConfig(epsilon="3n")
        assert cfg.resolve_epsilon(20) == 60
        assert PipelineConfig(epsilon="n").resolve_epsilon(7) == 7

    def test_plain_integer(self):
        assert PipelineConfig(epsilon="250").resolve_epsilon(10) == 250

    def test_garbage(self):
        with pytest.raises(ConfigError):
            PipelineConfig(epsilon="lots").resolve_epsilon(10)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(epsilon="0").resolve_epsilon(10)


class TestValidation:
    def base(self):
        return parse_config_text("field.a = categorical\nfield.b = categorical\n")

    def test_eta_bounds(self):
        cfg = self.base()
        cfg.eta = 1.0
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_split_must_sum_to_one(self):
        cfg = self.base()
        cfg.split = (0.5, 0.4, 0.2)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("split", [(0.5, 0.5), (0.2, 0.2, 0.2, 0.4), (float("nan"), 0.5, 0.5)])
    def test_split_needs_three_fractions(self, split):
        cfg = self.base()
        cfg.split = split
        with pytest.raises(ConfigError, match="split"):
            cfg.validate()

    @pytest.mark.parametrize("group, changes", [
        ("dnn", dict(batch_size=100)),
        ("dnn", dict(hidden=(0,))),
        ("dnn", dict(hidden=(16, -3))),
        ("dnn", dict(embedding_dim=0)),
        ("dnn", dict(learning_rate=float("nan"))),
        ("dnn", dict(learning_rate=0.0)),
        ("dnn", dict(l2=float("inf"))),
        ("dnn", dict(l2=-0.1)),
        ("dnn", dict(epochs=0)),
        ("dnn", dict(patience=0)),
        ("lr", dict(epochs=0)),
        ("lr", dict(patience=0)),
        ("lr", dict(learning_rate=-1.0)),
        ("lr", dict(learning_rate=float("inf"))),
        ("lr", dict(l2=float("inf"))),
        ("lr", dict(l2=float("nan"))),
        ("lr", dict(batch_size=0)),
    ])
    def test_trainer_settings_checked(self, group, changes):
        settings_type = DnnSettings if group == "dnn" else LrSettings
        with pytest.raises(ConfigError, match=rf"^{group}\."):
            settings_type(**changes).validate()
        cfg = self.base()
        setattr(cfg, group, settings_type(**changes))
        with pytest.raises(ConfigError, match=rf"^{group}\."):
            cfg.validate()

    def test_no_fields(self):
        with pytest.raises(ConfigError):
            PipelineConfig().validate()

    def test_defaults_are_valid(self):
        cfg = self.base()
        cfg.validate()
        assert cfg.eta == 0.05
        assert cfg.epsilon == "3n"
        assert cfg.beam_width == 1
