import json

import numpy as np
import pytest

from dynglr.cli import main
from dynglr.metricnet import load_checkpoint


@pytest.fixture()
def toy_data_dir(tmp_path):
    rng = np.random.default_rng(8)
    lines = ["a,b,c,label"]
    for cls in (0, 1):
        mean = -2.0 if cls == 0 else 2.0
        for _ in range(150):
            f = rng.normal(mean, 1.0, size=3)
            lines.append(f"{f[0]},{f[1]},{f[2]},{cls}")
    data = tmp_path / "data"
    data.mkdir()
    (data / "toy.csv").write_text("\n".join(lines) + "\n")
    return data


class TestPrepare:
    def test_writes_only_the_manifest(self, toy_data_dir, tmp_path, capsys):
        out = tmp_path / "prepared"
        rc = main(["prepare", str(toy_data_dir / "toy.csv"), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "dataset.json").read_text())
        assert manifest["n_nodes"] == 300
        assert [p.name for p in out.iterdir()] == ["dataset.json"]
        assert "300 nodes" in capsys.readouterr().out

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["prepare", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_single_class_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,label\n1,1\n2,1\n")
        rc = main(["prepare", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 4


class TestTrainEvalSpectrumReport:
    def test_full_workflow(self, toy_data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc = main(["train", "--dataset", "toy", "--variant", "G-2",
                   "--noise", "0.1", "--seed", "1", "--out", str(run_dir),
                   "--data-dir", str(toy_data_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "test error" in out
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["variant"] == "G-2"
        assert "test_error_rate" in manifest
        # the bits depend on numpy and its BLAS, the runtime's only native code
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["numpy"]["version"] == np.__version__
        assert manifest["numpy"]["blas"].split() == [blas["name"], blas["version"]]

        rc = main(["eval", "--run", str(run_dir)])
        assert rc == 0
        assert "test error" in capsys.readouterr().out

        spec_csv = tmp_path / "spec.csv"
        rc = main(["spectrum", "--run", str(run_dir), "--out", str(spec_csv)])
        assert rc == 0
        assert spec_csv.read_text().startswith("lambda,")

    def test_eval_matches_recorded_error(self, toy_data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run2"
        main(["train", "--dataset", "toy", "--variant", "G-2", "--noise", "0.0",
              "--seed", "2", "--out", str(run_dir), "--data-dir", str(toy_data_dir)])
        recorded = json.loads((run_dir / "manifest.json").read_text())["test_error_rate"]
        main(["eval", "--run", str(run_dir)])
        out = capsys.readouterr().out
        assert f"test error {recorded:.2f}%" in out

    def test_eval_refuses_a_retired_checkpoint(self, toy_data_dir, tmp_path, capsys):
        run_dir = tmp_path / "run3"
        main(["train", "--dataset", "toy", "--variant", "G-2", "--seed", "3",
              "--out", str(run_dir), "--data-dir", str(toy_data_dir)])
        path = run_dir / "net_embed.npz"
        net = load_checkpoint(path)
        meta = {"version": 3, "in_dim": net.in_dim, "config": {}}
        arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
        arrays.update({f"w{k}": w for k, w in enumerate(net.weights)})
        arrays.update({f"b{k}": b for k, b in enumerate(net.biases)})
        np.savez(path, **arrays)
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir)]) == 2
        assert "not a version-2 checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "spectrum"])
    @pytest.mark.parametrize("missing", ["manifest.json"])  # a run's one JSON file
    def test_missing_run_file_is_a_usage_error(self, tmp_path, capsys, command, missing):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        argv = [command, "--run", str(run_dir)]
        rc = main(argv + (["--out", str(tmp_path / "spec.csv")] if command == "spectrum" else []))
        assert rc == 5
        assert f"holds no {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("{}\n", "has no 'dataset.dataset_id'"),
        ("[1, 2]\n", "is not a JSON object"),
        ('{"dataset": {"dataset_id": "toy", "noise": {}}}\n', "has no 'dataset.noise.rate'"),
        ("{not json\n", "is not JSON"),
    ], ids=["empty", "not-an-object", "no-noise-rate", "not-json"])
    def test_malformed_manifest_is_a_config_error(self, tmp_path, capsys, text, message):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(text)
        assert main(["eval", "--run", str(run_dir)]) == 2
        assert f"manifest.json {message}" in capsys.readouterr().err

    def test_malformed_state_is_a_config_error(self, toy_data_dir, tmp_path, capsys):
        # a run directory written before the neighbor budget moved into
        # manifest.json has the same manifest less gamma0
        run_dir = tmp_path / "run4"
        main(["train", "--dataset", "toy", "--variant", "G-2", "--seed", "4",
              "--out", str(run_dir), "--data-dir", str(toy_data_dir)])
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["gamma0"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir)]) == 2
        assert "manifest.json has no 'gamma0'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("gamma0", "x"), ("variant", 5), ("seed", "x"), ("seed", True),
        ("dataset.noise.rate", "0.1"), ("data_dir", 5), ("desk_scale", "no"),
    ], ids=["gamma0-str", "variant-int", "seed-str", "seed-bool", "noise-rate-str",
            "data-dir-int", "desk-scale-str"])
    def test_mistyped_manifest_key_is_a_config_error(self, toy_data_dir, tmp_path, capsys,
                                                     key, value):
        run_dir = tmp_path / "run5"
        main(["train", "--dataset", "toy", "--variant", "G-2", "--seed", "5",
              "--out", str(run_dir), "--data-dir", str(toy_data_dir)])
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        *parents, leaf = key.split(".")
        node = manifest
        for part in parents:
            node = node[part]
        node[leaf] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir)]) == 2
        assert f"manifest.json: {key!r} must be" in capsys.readouterr().err


class TestAblateReport:
    def test_grid_and_report(self, toy_data_dir, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({
            "datasets": ["toy"],
            "noise_levels": [0.0],
            "repeats": 1,
            "variants": ["DML-KNN"],
            "base_seed": 5,
            "data_dir": str(toy_data_dir),
            "config_overrides": {"rank_coverage": 1.0},
        }))
        results = tmp_path / "results.csv"
        rc = main(["ablate", "--grid", str(grid_file), "--out", str(results)])
        assert rc == 0
        assert "1 rows" in capsys.readouterr().out or results.exists()

        rc = main(["report", "--grid-results", str(results), "--format", "md"])
        assert rc == 0
        assert "DML-KNN" in capsys.readouterr().out

        report_file = tmp_path / "report.csv"
        rc = main(["report", "--grid-results", str(results), "--format", "csv",
                   "--out", str(report_file)])
        assert rc == 0
        assert report_file.read_text().startswith("dataset,variant")

    def test_report_on_a_missing_file_is_a_parse_error(self, tmp_path, capsys):
        rc = main(["report", "--grid-results", str(tmp_path / "nope.csv")])
        assert rc == 3
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [{"esp1": 0.5}, {"eps1": 0.5, "rank_coverage": 1.0},
                                           {"seed": 3}])
    def test_unknown_override_rejected_before_any_cell(self, toy_data_dir, tmp_path,
                                                       capsys, overrides):
        # eps1 was settable once; the method's thresholds are constants now
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({
            "datasets": ["toy"], "noise_levels": [0.0], "repeats": 1,
            "variants": ["DML-KNN"], "data_dir": str(toy_data_dir),
            "config_overrides": overrides,
        }))
        results = tmp_path / "results.csv"
        rc = main(["ablate", "--grid", str(grid_file), "--out", str(results)])
        assert rc == 2
        err = capsys.readouterr().err
        unknown = sorted(set(overrides) - {"rank_coverage"})
        assert f"unknown config_overrides {unknown}" in err
        assert ("settable: ['rank_sample_k', 'rank_sample_batches', 'rank_coverage', "
                "'arch']") in err
        assert not results.exists()

    def test_unknown_grid_key_rejected_before_any_cell(self, tmp_path, capsys):
        # "repeat" and "variant" misspell repeats and variants; ignored, they
        # would leave a listed dataset to 20 repeats of the whole ladder
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"datasets": [], "repeat": 1, "variant": ["G-2"]}))
        results = tmp_path / "results.csv"
        rc = main(["ablate", "--grid", str(grid_file), "--out", str(results)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown grid keys ['repeat', 'variant']" in err
        assert ("allowed: ['datasets', 'noise_levels', 'repeats', 'variants', 'base_seed', "
                "'data_dir', 'desk_scale', 'config_overrides']") in err
        assert not results.exists()

    @pytest.mark.parametrize("key,value", [("repeats", "2"), ("repeats", 1.5),
                                           ("base_seed", True)])
    def test_non_integer_count_rejected(self, tmp_path, capsys, key, value):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"datasets": [], key: value}))
        rc = main(["ablate", "--grid", str(grid_file), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert f"grid key {key!r} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("text, code, message", [
        ("{not json\n", 2, "is not JSON"),
        ('["toy"]\n', 2, "is not a JSON object"),
        (None, 3, "no such file"),
        ('{"datasets": ["toy"], "noise_levels": ["x"]}\n', 2,
         "grid key 'noise_levels' must hold numbers"),
        ('{"datasets": ["toy"], "variants": ["G-9"]}\n', 2, "unknown variant 'G-9'"),
    ], ids=["not-json", "not-an-object", "missing", "noise-not-a-number", "unknown-variant"])
    def test_malformed_grid_fails_before_any_cell(self, tmp_path, capsys, text, code,
                                                  message):
        grid_file = tmp_path / "grid.json"
        if text is not None:
            grid_file.write_text(text)
        results = tmp_path / "results.csv"
        assert main(["ablate", "--grid", str(grid_file), "--out", str(results)]) == code
        assert message in capsys.readouterr().err
        assert not results.exists()

    def test_data_dir_flag_used_when_grid_names_none(self, toy_data_dir, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({
            "datasets": ["toy"], "noise_levels": [0.0], "repeats": 1,
            "variants": ["DML-KNN"], "config_overrides": {"rank_coverage": 1.0},
        }))
        results = tmp_path / "results.csv"
        rc = main(["ablate", "--grid", str(grid_file), "--out", str(results),
                   "--data-dir", str(toy_data_dir)])
        # "toy" has no synthetic stand-in, so the cell passes only on the CSV
        assert rc == 0
        assert "1 rows, 0 failed" in capsys.readouterr().out
