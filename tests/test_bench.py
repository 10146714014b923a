import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_ARCH, kernel_graph
from dynglr import bench, dataio, pipeline
from dynglr.bench import (RESULT_FIELDS, ExperimentGrid, Report, error_rate, load_dataset,
                          mean_edge_weight_proportion, prepare_cell,
                          residual_noise, run_grid, subsample_dataset)
from dynglr.errors import ConfigError, DynglrError, SamplingError
from dynglr.graphs import Graph, knn_edges


class TestErrorRate:
    def test_perfect(self):
        assert error_rate(np.array([1, -1]), np.array([1, -1])) == 0.0

    def test_all_flipped(self):
        assert error_rate(np.array([1, -1]), np.array([-1, 1])) == 100.0

    def test_one_of_four(self):
        assert error_rate(np.array([1, 1, 1, 1]), np.array([1, 1, 1, -1])) == 25.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            error_rate(np.array([1]), np.array([1, 1]))


def two_edge_graph(w_same, w_opposite):
    return Graph(np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]),
                 np.array([w_same, w_same, w_opposite, w_opposite]),
                 np.ones(3, dtype=np.int64))


class TestMeanEdgeWeightProportion:
    def test_hand_evaluated_mix(self):
        # same-label edge w=0.5, opposite w=0.8 over 2 positive-weight edges
        g = two_edge_graph(0.5, 0.8)
        labels = np.array([1, 1, -1])
        assert mean_edge_weight_proportion(g, labels) == pytest.approx(0.4)

    def test_no_opposite_edges(self):
        g = two_edge_graph(0.5, 0.8)
        assert mean_edge_weight_proportion(g, np.array([1, 1, 1])) == 0.0

    def test_complete_same_label_graph(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(8, 2))
        g = kernel_graph(knn_edges(emb, 7), emb, 1.0)
        assert mean_edge_weight_proportion(g, np.ones(8)) == 0.0

    def test_scaling_property(self):
        g = two_edge_graph(0.5, 0.8)
        labels = np.array([1, 1, -1])
        base = mean_edge_weight_proportion(g, labels)
        for c in (0.25, 0.5, 0.9):
            scaled = dataclasses.replace(g, weights=g.weights * c)
            assert mean_edge_weight_proportion(scaled, labels) == pytest.approx(c * base)

    def test_edgeless_graph(self):
        none = np.zeros(0, dtype=np.int64)
        g = Graph(none, none, np.zeros(0), np.ones(2, dtype=np.int64))
        assert mean_edge_weight_proportion(g, np.array([1, -1])) == 0.0


class TestResidualNoise:
    def test_perfect_restoration(self):
        clean = np.array([1, -1, 1, -1])
        mask = np.ones(4, dtype=bool)
        assert residual_noise(clean.astype(float), clean, mask) == 0.0

    def test_unchanged_quarter_flip(self):
        clean = np.ones(100)
        noisy = clean.copy()
        noisy[:25] = -1
        assert residual_noise(noisy, clean, np.ones(100, dtype=bool)) == 0.25

    def test_one_of_ten(self):
        clean = np.ones(10)
        denoised = np.ones(10)
        denoised[3] = -0.2
        assert residual_noise(denoised, clean, np.ones(10, dtype=bool)) == 0.1

    def test_zeros_count_as_errors(self):
        clean = np.ones(4)
        denoised = np.array([1.0, 0.0, 1.0, 1.0])
        assert residual_noise(denoised, clean, np.ones(4, dtype=bool)) == 0.25

    def test_only_train_nodes_counted(self):
        clean = np.array([1, 1, -1, -1])
        denoised = np.array([1.0, -1.0, -1.0, 1.0])
        mask = np.array([True, False, True, False])
        assert residual_noise(denoised, clean, mask) == 0.0


class TestLoadDataset:
    def test_synthetic_fallback(self, tmp_path):
        ds, source = load_dataset("phoneme", data_dir=str(tmp_path), seed=0,
                                  desk_scale=True)
        assert source == "synthetic"
        assert ds.n_nodes <= bench.DESK_SCALE_MAX_NODES

    def test_csv_preferred_when_present(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = ["a,b,c,label"]
        for i in range(60):
            f = rng.normal(size=3)
            lines.append(f"{f[0]},{f[1]},{f[2]},{i % 2}")
        (tmp_path / "toy.csv").write_text("\n".join(lines) + "\n")
        ds, source = load_dataset("toy", data_dir=str(tmp_path), seed=0)
        assert source.startswith("csv:")
        assert ds.n_nodes == 60

    def test_env_var_honored(self, tmp_path, monkeypatch):
        (tmp_path / "mini.csv").write_text(
            "a,label\n" + "\n".join(f"{i}.5,{i % 2}" for i in range(20)) + "\n")
        monkeypatch.setenv(bench.DATA_DIR_ENV, str(tmp_path))
        ds, source = load_dataset("mini")
        assert source.startswith("csv:")

    def test_subsample_stratified(self):
        ds = dataio.synthetic_dataset("phoneme", seed=0, max_nodes=1000)
        small = subsample_dataset(ds, 300, seed=1)
        assert small.n_nodes <= 300
        frac_before = (ds.clean_labels > 0).mean()
        frac_after = (small.clean_labels > 0).mean()
        assert abs(frac_before - frac_after) < 0.05


def tiny_grid(tmp_path, **kw):
    defaults = dict(datasets=("toy",), noise_levels=(0.0, 0.25), repeats=1,
                    variants=("DML-KNN", "G-12"), base_seed=3,
                    data_dir=str(tmp_path))
    defaults.update(kw)
    return ExperimentGrid(**defaults)


@pytest.fixture()
def toy_csv_dir(tmp_path):
    rng = np.random.default_rng(5)
    half = 150
    lines = ["a,b,c,label"]
    for cls in (0, 1):
        mean = -2.0 if cls == 0 else 2.0
        for _ in range(half):
            f = rng.normal(mean, 1.0, size=3)
            lines.append(f"{f[0]},{f[1]},{f[2]},{cls}")
    (tmp_path / "toy.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


TINY_OVERRIDES = dict(arch=TINY_ARCH, rank_sample_k=24, rank_sample_batches=6,
                      rank_coverage=1.0)


class TestRunGrid:
    @pytest.mark.parametrize("override, message", [
        ({"rank_sample_k": 25}, "rank_sample_k must divide"),
        # what a grid.json can hold: a plain object, not a preset
        ({"arch": {"metric_hidden": [8, 4]}}, "arch must be an ArchPreset, not dict"),
        ({"rank_sample_batches": 0}, "must be at least 1"),
        ({"rank_sample_batches": -6}, "must be at least 1"),
        ({"rank_sample_k": -12}, "must be at least 1"),
        ({"rank_coverage": float("nan")}, "rank_coverage must be a finite number above 0"),
        ({"rank_coverage": -5.0}, "rank_coverage must be a finite number above 0"),
        ({"rank_coverage": 0.0}, "rank_coverage must be a finite number above 0"),
        ({"rank_coverage": "3"}, "rank_coverage must be a finite number above 0")])
    def test_invalid_override_value_rejected_before_any_cell(self, toy_csv_dir, tmp_path,
                                                             override, message):
        grid = tiny_grid(toy_csv_dir, variants=("DML-KNN",))
        out = tmp_path / "results.csv"
        with pytest.raises(ConfigError, match=message):
            run_grid(grid, out, {**TINY_OVERRIDES, **override})
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("repeats", "2", "grid key 'repeats' must be an integer, not '2'"),
        ("base_seed", True, "grid key 'base_seed' must be an integer, not True"),
        ("noise_levels", ("x",), "grid key 'noise_levels' must hold numbers"),
        ("noise_levels", (0.1, True), "grid key 'noise_levels' must hold numbers"),
    ], ids=["repeats-str", "base-seed-bool", "noise-str", "noise-bool"])
    def test_grid_fields_checked_on_construction(self, tmp_path, field, value, message):
        with pytest.raises(ConfigError, match=message):
            tiny_grid(tmp_path, **{field: value})

    def test_cell_count(self, toy_csv_dir, tmp_path):
        grid = tiny_grid(toy_csv_dir, noise_levels=(0.0, 0.25), repeats=1,
                         variants=("DML-KNN",))
        out = tmp_path / "results.csv"
        report = run_grid(grid, out, TINY_OVERRIDES)
        ok = [r for r in report.rows if r["status"] == "ok"]
        assert len(ok) == 2

    def test_resume_skips_completed_cells(self, toy_csv_dir, tmp_path):
        grid = tiny_grid(toy_csv_dir, variants=("DML-KNN",))
        # an empty file is what a process killed before its first row leaves behind
        (tmp_path / "empty.csv").touch()
        for out in (tmp_path / "results.csv", tmp_path / "empty.csv"):
            first = run_grid(grid, out, TINY_OVERRIDES)
            assert out.read_text().splitlines()[0] == ",".join(RESULT_FIELDS)
            n_lines = len(out.read_text().splitlines())
            second = run_grid(grid, out, TINY_OVERRIDES)
            assert len(out.read_text().splitlines()) == n_lines
            assert len(second.rows) == len(first.rows)

    def test_identical_flip_sets_across_variants(self, toy_csv_dir):
        ds, _ = load_dataset("toy", str(toy_csv_dir), seed=3)
        grid = tiny_grid(toy_csv_dir)
        a = prepare_cell(ds, grid, "toy", 0.25, 0)
        b = prepare_cell(ds, grid, "toy", 0.25, 0)
        assert np.array_equal(a.noisy_labels, b.noisy_labels)
        assert np.array_equal(a.split, b.split)

    def test_determinism_bit_for_bit(self, toy_csv_dir, tmp_path):
        grid = tiny_grid(toy_csv_dir, variants=("G-12",), noise_levels=(0.25,))
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        rep1 = run_grid(grid, out1, TINY_OVERRIDES)
        rep2 = run_grid(grid, out2, TINY_OVERRIDES)
        # wall-clock runtime differs; the error table must not
        assert [r["error_rate"] for r in rep1.rows] == [r["error_rate"] for r in rep2.rows]
        assert rep1.to_csv() == rep2.to_csv()

    def test_diagnostics_recorded_for_glr_variants(self, toy_csv_dir, tmp_path):
        grid = tiny_grid(toy_csv_dir, noise_levels=(0.25,))
        report = run_grid(grid, tmp_path / "diag.csv", TINY_OVERRIDES)
        by_variant = {r["variant"]: r for r in report.rows}
        assert by_variant["DML-KNN"]["diag_residual_noise"] == ""
        assert 0.0 <= float(by_variant["G-12"]["diag_residual_noise"]) <= 1.0
        assert float(by_variant["G-12"]["diag_rho"]) >= 0.0

    def test_failed_cell_recorded_and_grid_continues(self, toy_csv_dir, tmp_path,
                                                     monkeypatch):
        calls = {"n": 0}
        real = bench.run_cell

        def flaky(ds_cell, cfg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return real(ds_cell, cfg)

        monkeypatch.setattr(bench, "run_cell", flaky)
        grid = tiny_grid(toy_csv_dir, variants=("DML-KNN",))
        report = run_grid(grid, tmp_path / "res.csv", TINY_OVERRIDES)
        statuses = sorted(r["status"] for r in report.rows)
        assert statuses == ["error:RuntimeError", "ok"]

    def test_rerun_of_failed_cell_replaces_its_row(self, toy_csv_dir, tmp_path,
                                                   monkeypatch):
        real = bench.run_cell

        def failing(*args, **kwargs):
            raise RuntimeError("boom")

        grid = tiny_grid(toy_csv_dir, variants=("DML-KNN",), noise_levels=(0.25,))
        out = tmp_path / "res.csv"
        monkeypatch.setattr(bench, "run_cell", failing)
        assert [r["status"] for r in run_grid(grid, out, TINY_OVERRIDES).rows] == [
            "error:RuntimeError"]
        monkeypatch.setattr(bench, "run_cell", real)
        report = run_grid(grid, out, TINY_OVERRIDES)
        assert [r["status"] for r in report.rows] == ["ok"]
        assert [r["status"] for r in bench._read_results(out)] == ["ok"]


class TestReport:
    def _rows(self):
        return [
            {"dataset": "toy", "noise": "0", "repeat": "0", "variant": "G-12",
             "status": "ok", "error_rate": "10.0"},
            {"dataset": "toy", "noise": "0", "repeat": "1", "variant": "G-12",
             "status": "ok", "error_rate": "20.0"},
            {"dataset": "toy", "noise": "0.25", "repeat": "0", "variant": "G-12",
             "status": "ok", "error_rate": "30.0"},
            {"dataset": "toy", "noise": "0", "repeat": "0", "variant": "DML-KNN",
             "status": "ok", "error_rate": "12.0"},
            {"dataset": "toy", "noise": "0", "repeat": "1", "variant": "DML-KNN",
             "status": "error:X", "error_rate": ""},
        ]

    def test_mean_over_ok_repeats(self):
        report = Report(rows=self._rows())
        means = report.mean_errors()
        assert means[("toy", "G-12", 0.0)] == pytest.approx(15.0)
        assert means[("toy", "DML-KNN", 0.0)] == pytest.approx(12.0)

    def test_markdown_orders_variants_by_ladder(self):
        text = Report(rows=self._rows()).to_markdown()
        assert text.index("DML-KNN") < text.index("G-12")
        assert "15.00" in text

    def test_csv_rendering(self):
        text = Report(rows=self._rows()).to_csv()
        lines = text.splitlines()
        assert lines[0].startswith("dataset,variant,")
        assert any("G-12" in ln for ln in lines)

    def test_off_ladder_variants_follow_ladder_by_name(self):
        # parse_variant accepts variants off the ladder, such as "G-2s"
        variants = ("G-1232s", "G-2s", "G-12", "G-2", "G-12312s", "DML-KNN-s")
        report = Report(rows=[{"dataset": d, "noise": "0.25", "repeat": "0", "variant": v,
                               "status": "ok", "error_rate": "5.0"}
                              for d in ("toy", "alpha") for v in variants])
        order = ["DML-KNN-s", "G-2", "G-12", "G-12312s", "G-1232s", "G-2s"]
        csv_rows = [ln.split(",")[:2] for ln in report.to_csv().splitlines()[1:]]
        assert csv_rows == [["alpha", v] for v in order] + [["toy", v] for v in order]
        md_variants = [ln.split(" | ")[0].removeprefix("| ")
                       for ln in report.to_markdown().splitlines()
                       if ln.startswith("| ") and not ln.startswith("| variant")]
        assert md_variants == order + order

    def test_rendering_independent_of_hash_seed(self):
        # two off-ladder variants once came out in string-hash order
        rows = [{"dataset": "toy", "noise": "0.25", "repeat": "0", "variant": v,
                 "status": "ok", "error_rate": "5.0"} for v in ("G-2s", "G-1232s")]
        script = ("import json, sys\n"
                  "from dynglr.bench import Report\n"
                  "report = Report(rows=json.loads(sys.argv[1]))\n"
                  "print(report.to_csv())\n"
                  "print(report.to_markdown())\n")
        src = str(Path(bench.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outputs.append(subprocess.run([sys.executable, "-c", script, json.dumps(rows)],
                                          env=env, capture_output=True, text=True,
                                          check=True).stdout)
        assert outputs[0] == outputs[1]


ONE_EPOCH = dataclasses.replace(TINY_ARCH, embed_epochs=1, weight1_epochs=1,
                                update_epochs=1, weight2_epochs=1)


@st.composite
def degenerate_cells(draw):
    """(features, labels, noise rate, variant): a tiny dataset with classes of
    4-25 nodes, or a minority of at most 2 or none; normal, constant (all
    columns but one), duplicated (rows in pairs) or 1-D features; 0% or 40%
    noise; and a variant of each chain type, rank sampling included. The
    sizes come from the seed: a drawn 0 would be hypothesis's favourite and
    spend a third of the examples on the one-class file from_arrays refuses."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(4, 26), rng.integers(0, 3) if rng.random() < 0.5 else rng.integers(4, 26)
    labels = rng.permutation(np.repeat([1.0, -1.0], sizes))
    kind = draw(st.sampled_from(["normal", "constant", "duplicated", "1-D"]))
    features = rng.normal(size=(labels.size, 1 if kind == "1-D" else 3)) + labels[:, None]
    if kind == "constant":
        features[:, 1:] = 2.0
    elif kind == "duplicated":
        features = features[np.arange(labels.size) // 2 * 2]
    return (features, labels, draw(st.sampled_from([0.0, 0.4])),
            draw(st.sampled_from(["DML-KNN-s", "G-2", "G-12s", "G-12312s"])))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(degenerate_cells())
def test_degenerate_cell_raises_or_predicts_every_test_node(cell):
    """A cell on degenerate data fails loudly, with a DynglrError, or gives
    one +-1 prediction per test node; a raw numpy or Python error fails here
    by name instead of as an opaque error row of a grid."""
    features, labels, noise, variant = cell
    preds = []

    def recorded_predict(*args):
        preds.append(pipeline.predict(*args))
        return preds[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "predict", recorded_predict)
        try:
            ds = dataio.inject_label_noise(dataio.from_arrays(features, labels, seed=1),
                                           dataio.NoiseSpec(rate=noise, seed=2))
            cfg = pipeline.PipelineConfig(variant=variant, seed=3, arch=ONE_EPOCH,
                                          rank_sample_k=8, rank_sample_batches=2)
            result = bench.run_cell(ds, cfg)
        except DynglrError:
            return
    (pred,) = preds
    assert result["n_test"] == pred.size == ds.indices(dataio.TEST).size
    assert np.isin(pred, (-1, 1)).all()


@pytest.mark.parametrize("variant", ["DML-KNN-s", "G-12s"])
def test_empty_reference_batch_fails_before_prediction(variant):
    """Rank sampling clamps k to 2 on this cell's 4 train nodes and keeps one
    node of each class, which fill only the first of 2 reference batches: the
    cell raises before predict transduces from any reference set."""
    rng = np.random.default_rng(1)
    labels = rng.permutation(np.repeat([1.0, -1.0], 6))
    ds = dataio.from_arrays(rng.normal(size=(12, 3)) + labels[:, None], labels, seed=1)
    cfg = pipeline.PipelineConfig(variant=variant, seed=3, arch=ONE_EPOCH,
                                  rank_sample_k=8, rank_sample_batches=2)
    calls = []
    real_transduce, real_rank = pipeline._transduce, pipeline.rank_sampling

    def transduce(*args):
        calls.append("transduce")
        return real_transduce(*args)

    def ranked(*args):
        top = real_rank(*args)
        calls.append("rank_sampling")
        return top

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_transduce", transduce)
        mp.setattr(pipeline, "rank_sampling", ranked)
        with pytest.raises(SamplingError, match=r"keeps k=2 train nodes \(1 positive, 1 "
                           r"negative\), so reference batch 1 of batches 0-1 would be empty"):
            bench.run_cell(ds, cfg)
    assert ds.indices(dataio.TRAIN).size == 4 and calls[-1] == "rank_sampling"
