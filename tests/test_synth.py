"""Synthetic fixtures: algebraic formulations and planted parity crosses."""

import numpy as np
import pytest

from dnn2lr.errors import ConfigError
from dnn2lr.synth import (
    FORMULATIONS,
    STUDY_VOCAB_SIZE,
    generate_formulation_dataset,
    generate_planted_cross,
    get_formulation,
    run_inconsistency_study,
    save_study_csv,
)


class TestFormulations:
    def test_catalog_contents(self):
        # at least the headline interacting forms plus the additive control
        for name in ("mul_add", "exp_prod_quad", "log_mul", "div_offset", "add_all"):
            assert name in FORMULATIONS
        assert FORMULATIONS["add_all"].interacting is False
        assert FORMULATIONS["mul_add"].interacting is True

    def test_catalog_pinned(self):
        expressions = {
            "mul_add": "a*b + c",
            "mul_add_quad": "a*b + c^2",
            "mul_sq_add_cube": "a*b^2 + c^3",
            "cube_sq_add_cube": "a^3*b^2 + c^3",
            "div_damped": "a/(1+10b) + 1/(0.1+c)",
            "div_offset": "a/(0.1+b) + 1/(0.1+c)",
            "ratio_quad": "(1+a^2)/(0.5+b) + c^2",
            "log_mul": "ln(1+10ab) + c",
            "log_mul_quad": "ln(1+10ab) + c^2",
            "log_mul_exp": "ln(1+10ab) + e^(1+c)",
            "log_lin_mul": "ln(1+a)*b + c^2",
            "exp_mul_sq": "e^(1+a)*b^2 + c",
            "exp_prod_quad": "e^(1+ab) + c^2",
            "exp_prod_lin": "e^(1+ab) + 10c",
            "add_all": "a + b + c",
        }
        assert list(FORMULATIONS) == list(expressions)
        for name, form in FORMULATIONS.items():
            assert form.name == name
            assert form.expression == expressions[name]
            assert form.interacting is (name != "add_all")

    def test_expressions_evaluate(self):
        a, b, c = 0.5, 0.25, 0.75
        assert get_formulation("mul_add")(a, b, c) == pytest.approx(a * b + c)
        assert get_formulation("exp_prod_quad")(a, b, c) == pytest.approx(
            np.exp(1.0 + a * b) + c**2
        )
        assert get_formulation("add_all")(a, b, c) == pytest.approx(a + b + c)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            get_formulation("mystery")

    def test_all_finite_on_cube(self):
        grid = np.linspace(0.0, 1.0, 11)
        a, b, c = np.meshgrid(grid, grid, grid, indexing="ij")
        for form in FORMULATIONS.values():
            out = form(a.ravel(), b.ravel(), c.ravel())
            assert np.all(np.isfinite(out)), form.name


class TestFormulationData:
    def test_shapes_and_codes(self):
        data = generate_formulation_dataset("mul_add", k=500, seed=1)
        assert data.inputs.shape == (500, 3)
        assert data.codes.shape == (500, 3)
        # inputs quantized to 2 decimals, codes are value*100 shifted past
        # the two reserved ids
        assert np.allclose(data.inputs, np.round(data.inputs, 2))
        assert data.codes.min() >= 2
        assert data.codes.max() <= STUDY_VOCAB_SIZE - 1
        assert np.array_equal(data.codes, np.round(data.inputs * 100).astype(np.int32) + 2)

    def test_labels_split_at_median(self):
        data = generate_formulation_dataset("mul_add", k=1001, seed=2)
        assert set(data.labels.tolist()) == {0, 1}
        assert np.array_equal(data.labels, (data.target > np.median(data.target)).astype(np.int8))

    def test_deterministic_per_seed(self):
        a = generate_formulation_dataset("log_mul", k=100, seed=3)
        b = generate_formulation_dataset("log_mul", k=100, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        c = generate_formulation_dataset("log_mul", k=100, seed=4)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            generate_formulation_dataset("mul_add", k=0)


class TestStudy:
    def test_interacting_fields_stand_out(self):
        # small but real: the interacting pair must dominate the additive
        # field on a noiseless multiplicative target (K below ~5000 leaves
        # the network too undertrained for the gap to open reliably)
        rows = run_inconsistency_study(["mul_add"], seeds=[0], k=6000)
        (row,) = rows
        d_a, d_b, d_c = row.mean_d
        assert row.interaction_detected
        assert d_a > d_c and d_b > d_c

    def test_csv_format(self, tmp_path):
        rows = run_inconsistency_study(["add_all"], seeds=[1], k=500)
        path = tmp_path / "study.csv"
        save_study_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "formulation,seed,d_a,d_b,d_c,interaction_detected"
        cells = lines[1].split(",")
        assert cells[0] == "add_all" and cells[1] == "1"
        assert cells[5] in ("0", "1")
        for cell in cells[2:5]:
            float(cell)


class TestPlantedCross:
    def test_label_is_parity_when_noiseless(self):
        data = generate_planted_cross(k=400, n=6, planted=(1, 4), strength=1.0, seed=0)
        parity = data.bits[:, [1, 4]].sum(axis=1) % 2
        assert data.table.labels == parity.tolist()
        assert data.planted == (1, 4)

    def test_rows_render_bits(self):
        data = generate_planted_cross(k=10, n=3, planted=(0, 1), seed=1)
        for row, bits in zip(data.table.rows, data.bits):
            assert row == ["v1" if b else "v0" for b in bits]

    def test_field_names_and_schema(self):
        data = generate_planted_cross(k=5, n=4, planted=(0, 3), seed=2)
        assert [f.name for f in data.table.fields] == ["f00", "f01", "f02", "f03"]

    def test_proper_subset_uninformative(self):
        # a single planted field must be independent of the label
        data = generate_planted_cross(k=20000, n=5, planted=(1, 2), strength=1.0, seed=3)
        y = np.asarray(data.table.labels)
        for f in (1, 2):
            agree = np.mean(data.bits[:, f] == y)
            assert abs(agree - 0.5) < 0.02

    def test_strength_zero_detaches_label(self):
        data = generate_planted_cross(k=20000, n=4, planted=(0, 1), strength=0.0, seed=4)
        parity = data.bits[:, [0, 1]].sum(axis=1) % 2
        agree = np.mean(np.asarray(data.table.labels) == parity)
        assert abs(agree - 0.5) < 0.02

    def test_intermediate_strength_flip_rate(self):
        data = generate_planted_cross(k=40000, n=4, planted=(0, 1), strength=0.6, seed=5)
        parity = data.bits[:, [0, 1]].sum(axis=1) % 2
        agree = np.mean(np.asarray(data.table.labels) == parity)
        assert agree == pytest.approx(0.8, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_planted_cross(k=10, n=4, planted=(0,))
        with pytest.raises(ConfigError):
            generate_planted_cross(k=10, n=4, planted=(0, 9))
        with pytest.raises(ConfigError):
            generate_planted_cross(k=10, n=4, planted=(0, 1), strength=1.5)
        with pytest.raises(ConfigError):
            generate_planted_cross(k=0, n=4, planted=(0, 1))

    def test_triple_parity(self):
        data = generate_planted_cross(k=100, n=5, planted=(4, 0, 2), strength=1.0, seed=6)
        assert data.planted == (0, 2, 4)
        parity = data.bits[:, [0, 2, 4]].sum(axis=1) % 2
        assert data.table.labels == parity.tolist()
