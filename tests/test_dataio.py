import numpy as np
import pytest

from dynglr import dataio
from dynglr.dataio import NoiseSpec, TRAIN, VAL, TEST
from dynglr.errors import ConfigError, ParseError, ValidationError


def write_csv(tmp_path, rows, header="a,b,label", name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestLoadCsv:
    def test_zero_one_labels_map_to_signs(self, tmp_path):
        path = write_csv(tmp_path, ["1,2,0", "3,4,1", "5,6,1"])
        ds = dataio.load_csv(path)
        assert sorted(ds.clean_labels.tolist()) == [-1, 1, 1]

    def test_duplicate_rows_reduce_n(self, tmp_path):
        path = write_csv(tmp_path, ["1,2,0", "1,2,0", "3,4,1"])
        ds = dataio.load_csv(path)
        assert ds.n_nodes == 2

    def test_keel_header_lines_are_stripped(self, tmp_path):
        body = "@relation toy\n@attribute a real\n@data\na,b,label\n1,2,0\n3,4,1\n"
        path = tmp_path / "toy.dat"
        path.write_text(body)
        ds = dataio.load_csv(path)
        assert ds.n_nodes == 2

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, ["1,2,0", "3,oops,1"])
        with pytest.raises(ParseError, match="line 3"):
            dataio.load_csv(path)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, ["1,2,0", "3,1"])
        with pytest.raises(ParseError, match="line 3"):
            dataio.load_csv(path)

    def test_single_class_file_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["1,2,1", "3,4,1"])
        with pytest.raises(ValidationError):
            dataio.load_csv(path)

    def test_constant_columns_dropped(self, tmp_path):
        path = write_csv(tmp_path, ["1,7,0", "2,7,1", "3,7,1", "6,7,0"])
        ds = dataio.load_csv(path)
        assert ds.n_features == 1


def toy_dataset(n_per_class=20, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = np.vstack([rng.normal(-2, 1, (n_per_class, dim)),
                       rng.normal(2, 1, (n_per_class, dim))])
    labels = np.concatenate([-np.ones(n_per_class), np.ones(n_per_class)])
    return dataio.from_arrays(feats, labels, seed=seed)


class TestSplit:
    def test_exact_stratification_on_ten_samples(self):
        ds = toy_dataset(n_per_class=5)
        sizes = [int(ds.mask(c).sum()) for c in (TRAIN, VAL, TEST)]
        assert sizes == [4, 2, 4]
        for cls in (-1, 1):
            cls_split = ds.split[ds.clean_labels == cls]
            assert [int((cls_split == c).sum()) for c in (TRAIN, VAL, TEST)] == [2, 1, 2]

    def test_same_seed_gives_identical_assignment(self):
        ds = toy_dataset()
        a = dataio.stratified_split(ds, seed=7)
        b = dataio.stratified_split(ds, seed=7)
        assert np.array_equal(a.split, b.split)

    def test_phoneme_sized_train_split(self):
        # 5404 rows at 40% -> 2161.6, so per-class rounding lands in {2161, 2162}
        labels = np.concatenate([np.ones(1586), -np.ones(3818)])
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(5404, 5)) + labels[:, None]
        ds = dataio.from_arrays(feats, labels, seed=3)
        assert abs(int(ds.mask(TRAIN).sum()) - 2162) <= 1

    def test_split_is_a_partition(self):
        ds = toy_dataset(seed=5)
        counts = np.zeros(ds.n_nodes, dtype=int)
        for code in (TRAIN, VAL, TEST):
            counts += ds.mask(code).astype(int)
        assert (counts == 1).all()

    def test_standardized_on_train_stats(self):
        ds = toy_dataset(n_per_class=50, seed=2)
        train = ds.features[ds.mask(TRAIN)]
        assert np.abs(train.mean(axis=0)).max() < 1e-9
        assert np.abs(train.std(axis=0) - 1).max() < 1e-9


class TestNoise:
    def test_exact_flip_count(self):
        ds = toy_dataset(n_per_class=125)  # 100 train nodes at 40%
        assert int(ds.mask(TRAIN).sum()) == 100
        noisy = dataio.inject_label_noise(ds, NoiseSpec(rate=0.25, seed=3))
        train = ds.mask(TRAIN)
        flips = (noisy.noisy_labels[train] != ds.clean_labels[train]).sum()
        assert flips == 25

    def test_rate_zero_is_identity_on_train_val(self):
        ds = toy_dataset()
        noisy = dataio.inject_label_noise(ds, NoiseSpec(rate=0.0, seed=3))
        keep = ~ds.mask(TEST)
        assert np.array_equal(noisy.noisy_labels[keep], ds.clean_labels[keep].astype(float))

    def test_double_flip_restores(self):
        ds = toy_dataset(seed=4)
        spec = NoiseSpec(rate=0.2, seed=11)
        once = dataio.inject_label_noise(ds, spec)
        twice = dataio.inject_label_noise(once, spec)
        assert np.array_equal(twice.noisy_labels, ds.noisy_labels)

    def test_test_labels_zeroed(self):
        ds = toy_dataset()
        noisy = dataio.inject_label_noise(ds, NoiseSpec(rate=0.1, seed=0))
        assert (noisy.noisy_labels[ds.mask(TEST)] == 0).all()

    def test_clean_labels_untouched(self):
        ds = toy_dataset()
        noisy = dataio.inject_label_noise(ds, NoiseSpec(rate=0.25, seed=9))
        assert np.array_equal(noisy.clean_labels, ds.clean_labels)

    def test_bad_rate_rejected(self):
        ds = toy_dataset()
        with pytest.raises(ConfigError):
            dataio.inject_label_noise(ds, NoiseSpec(rate=1.5, seed=0))

    @pytest.mark.parametrize("rate,seed", [(0.05, 0), (0.1, 1), (0.25, 2)])
    def test_hamming_distance_matches_round(self, rate, seed):
        ds = toy_dataset(n_per_class=60, seed=seed)
        noisy = dataio.inject_label_noise(ds, NoiseSpec(rate=rate, seed=seed))
        train = ds.mask(TRAIN)
        flips = int((noisy.noisy_labels[train] != ds.clean_labels[train]).sum())
        assert flips == round(rate * int(train.sum()))


class TestManifest:
    def test_manifest_roundtrip(self, tmp_path):
        ds = toy_dataset()
        manifest = dataio.dataset_manifest(ds, NoiseSpec(0.1, 5), seed=2)
        dataio.write_manifest(manifest, tmp_path / "m.json")
        assert (tmp_path / "m.json").exists()
        assert manifest["split_sizes"]["train"] == int(ds.mask(TRAIN).sum())
        assert manifest["noise"] == {"rate": 0.1, "seed": 5}


import os


def _real_csv(name):
    data_dir = os.environ.get("DYNGLR_DATA_DIR")
    if not data_dir:
        return None
    path = os.path.join(data_dir, f"{name}.csv")
    return path if os.path.exists(path) else None


@pytest.mark.skipif(_real_csv("spambase") is None,
                    reason="real spambase CSV not available")
def test_real_spambase_shape():
    ds = dataio.load_csv(_real_csv("spambase"))
    assert ds.n_nodes == 4597
    assert ds.n_features == 57


class TestSynthetic:
    def test_shapes_match_registry(self):
        ds = dataio.synthetic_dataset("spambase", seed=0)
        assert ds.n_nodes == 4597
        assert ds.n_features == 57

    def test_deterministic(self):
        a = dataio.synthetic_dataset("phoneme", seed=1, max_nodes=300)
        b = dataio.synthetic_dataset("phoneme", seed=1, max_nodes=300)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.split, b.split)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            dataio.synthetic_dataset("nope")
