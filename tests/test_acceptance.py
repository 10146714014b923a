"""Acceptance suite: ten criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 6-9 train full pipelines; they share five seeded runs per
dataset through session fixtures and finish in roughly ten minutes on a
desktop CPU. When the real benchmark CSVs are available (set
$DYNGLR_DATA_DIR), criterion 6 additionally asserts the dataset-specific
absolute error windows; on the synthetic stand-ins those windows are printed
as informational lines and the binding relational check is asserted.
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dynglr import bench, dataio
from dynglr.bench import (ExperimentGrid, cell_seed, error_rate, load_dataset,
                          mean_edge_weight_proportion, residual_noise, run_grid,
                          split_seed, subsample_dataset)
from dynglr.dataio import NoiseSpec, TEST, TRAIN
from dynglr.glr import denoise, mu_max
from dynglr.graphs import auto_sigma, build_laplacian, gft_spectrum, knn_edges
from dynglr.metricnet import MetricNet, NetConfig, triplet_loss_E, triplet_loss_W
from dynglr.pipeline import PipelineConfig, predict, rank_sampling, run_variant
from conftest import dense, edge_sq, kernel_graph, kernel_margin, n_params, pair_graph
from test_metricnet import fd_gradient, kink_free_inputs, rel_err

BASE_SEED = 2026
N_REPEATS = 5
NOISE = 0.25


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:02d} {verdict} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def info(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} INFO - {detail}", flush=True)


def real_csv(dataset_id: str) -> bool:
    data_dir = os.environ.get(bench.DATA_DIR_ENV)
    return bool(data_dir) and (Path(data_dir) / f"{dataset_id}.csv").exists()


def random_lap(rng, n, gamma, sigma=1.0):
    emb = rng.normal(size=(n, 3))
    g = kernel_graph(knn_edges(emb, gamma), emb, sigma)
    return build_laplacian(g)


# ---------------------------------------------------------------------------
# criterion 1: CG solution matches a dense direct solve

def test_criterion_1_solver_oracle_equivalence():
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(20, 201))
        gamma = int(rng.integers(2, 9))
        lap = random_lap(rng, n, gamma)
        y = rng.uniform(-1, 1, n)
        mu = 0.67 * mu_max(60.0, dense(lap).diagonal().max())
        # CG on I + mu L in the backing of L (dense up to 150 nodes, an edge
        # list above) from y, to SOLVER_TOL within 10 n steps, else SolverError
        x_cg = denoise(lap, y, mu=mu)
        x_direct = np.linalg.solve(np.eye(n) + mu * dense(lap), y)
        worst = max(worst, np.linalg.norm(x_cg - x_direct) / np.linalg.norm(x_direct))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-8 and elapsed < 5.0,
           f"50 graphs, worst CG-vs-dense relative error {worst:.2e} "
           f"(<= 1e-8), runtime {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 2: conditioning of I + mu L stays within kappa = 60

def test_criterion_2_conditioning():
    rng = np.random.default_rng(BASE_SEED + 1)
    lo, hi = np.inf, -np.inf
    for _ in range(20):
        n = int(rng.integers(30, 501))
        lap = random_lap(rng, n, int(rng.integers(2, 9)))
        mu = 0.67 * mu_max(60.0, dense(lap).diagonal().max())
        eig = np.linalg.eigvalsh(np.eye(n) + mu * dense(lap))
        lo, hi = min(lo, eig.min()), max(hi, eig.max())
    report(2, lo >= 1.0 - 1e-6 and hi <= 60.0 + 1e-6,
           f"20 graphs, eigenvalue range [{lo:.6f}, {hi:.4f}] within [1, 60] (tol 1e-6)")


# ---------------------------------------------------------------------------
# criterion 3: analytic gradients match central finite differences

def test_criterion_3_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(BASE_SEED + 10 + seed)
        widths = tuple(int(w) for w in rng.integers(2, 7, size=rng.integers(1, 3)))
        skip = 1 if (seed % 3 == 0 and len(widths) == 2) else None
        net = MetricNet(3, NetConfig(layer_widths=widths, embedding_dim=2,
                                     seed=seed, skip_to_layer=skip))
        assert n_params(net) <= 1000
        x = kink_free_inputs(net, rng, 9)
        trips = rng.integers(0, 9, size=(5, 3))
        if seed % 2 == 0:
            _, grads = triplet_loss_E(net, x, trips, margin=10.0)
            loss_fn = lambda: triplet_loss_E(net, x, trips, margin=10.0)[0]
        else:
            att = rng.integers(0, 2, size=(9, 9)).astype(float)
            _, grads = triplet_loss_W(net, x, trips, margin=10.0, attention=att)
            loss_fn = lambda: triplet_loss_W(net, x, trips, margin=10.0,
                                             attention=att)[0]
        analytic = np.concatenate([g.ravel() for g in grads])
        fd = fd_gradient(net, loss_fn, step=1e-5)
        worst = max(worst, float(rel_err(analytic, fd).max()))
    report(3, worst <= 1e-4,
           f"20 configurations, worst relative gradient error {worst:.2e} (<= 1e-4)")


# ---------------------------------------------------------------------------
# criterion 4: denoiser identity / preservation / bounds / smoothness

def test_criterion_4_glr_properties():
    rng = np.random.default_rng(BASE_SEED + 2)
    checks = {"identity": 0.0, "constant": 0.0, "bounds": 0.0, "smoothness": 0.0}
    for _ in range(100):
        n = int(rng.integers(10, 120))
        lap = random_lap(rng, n, int(rng.integers(2, 7)))
        y = rng.uniform(-1, 1, n)
        ident = denoise(lap, y, mu=0.0)
        checks["identity"] = max(checks["identity"], float(np.abs(ident - y).max()))
        c = float(rng.uniform(-1, 1))
        const = denoise(lap, np.full(n, c))
        checks["constant"] = max(checks["constant"], float(np.abs(const - c).max()))
        out = denoise(lap, y)
        checks["bounds"] = max(checks["bounds"],
                               float(max(y.min() - out.min(), out.max() - y.max())))
        before = float(y @ (lap @ y))
        after = float(out @ (lap @ out))
        checks["smoothness"] = max(checks["smoothness"], after - before)
    ok = (checks["identity"] == 0.0 and checks["constant"] <= 1e-9
          and checks["bounds"] <= 1e-9 and checks["smoothness"] <= 1e-9)
    report(4, ok, "100 instances: identity exact, constant drift "
           f"{checks['constant']:.1e}, bound excess {checks['bounds']:.1e}, "
           f"smoothness increase {checks['smoothness']:.1e} (all <= 1e-9)")


# ---------------------------------------------------------------------------
# criterion 5: closed-form sigma vs 1-D grid search

def test_criterion_5_auto_sigma_optimality():
    rng = np.random.default_rng(BASE_SEED + 3)
    worst_gap = 0.0
    for _ in range(50):
        w_p = float(rng.uniform(0.2, 2.5))
        w_q = w_p + float(rng.uniform(0.05, 3.0))
        g = pair_graph(3, [(0, 1), (0, 2)])
        same, opposite = np.array([True, False]), np.array([False, True])
        emb = np.array([[0.0], [w_p], [w_q]])
        sigma = auto_sigma(g, edge_sq(g, emb), same, opposite)
        grid = np.arange(1e-4, 4.0 * w_q, 1e-4)
        margins = (np.exp(-w_p**2 / (2 * grid**2))
                   - np.exp(-w_q**2 / (2 * grid**2)))
        best_grid = float(margins.max())
        worst_gap = max(worst_gap, best_grid - kernel_margin(sigma, w_p, w_q))
    report(5, worst_gap <= 1e-6,
           f"50 configurations, worst margin shortfall vs grid {worst_gap:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# criteria 6-9: shared heavy runs (five seeded repeats per dataset)

def _cell(ds, dataset_id, noise, repeat):
    ds_r = dataio.stratified_split(ds, seed=split_seed(BASE_SEED, dataset_id, repeat))
    spec = NoiseSpec(rate=noise, seed=cell_seed(BASE_SEED, dataset_id, noise, repeat))
    return dataio.inject_label_noise(ds_r, spec), cell_seed(BASE_SEED, dataset_id,
                                                            noise, repeat)


def _predict_error(state, cfg, variant, ds_cell):
    cfg_v = dataclasses.replace(cfg, variant=variant)
    test_idx = ds_cell.indices(TEST)
    pred = predict(state, test_idx, cfg_v)
    return error_rate(pred, ds_cell.clean_labels[test_idx])


@pytest.fixture(scope="session")
def spambase_runs():
    """Per repeat: the full chain at 25% noise (stages shared by criteria
    6-8) and the weighting chain at 0% noise (criterion 6's clean column).
    Stage training is variant-independent, so the full-chain state predicts
    as G-12 or DML-KNN exactly as standalone runs would."""
    ds, source = load_dataset("spambase", seed=BASE_SEED)
    runs = []
    for repeat in range(N_REPEATS):
        ds25, seed25 = _cell(ds, "spambase", NOISE, repeat)
        cfg25 = PipelineConfig.for_dataset("spambase", variant="G-12312", seed=seed25)
        state25 = run_variant(ds25, cfg25)
        ds0, seed0 = _cell(ds, "spambase", 0.0, repeat)
        cfg0 = PipelineConfig.for_dataset("spambase", variant="G-12", seed=seed0)
        state0 = run_variant(ds0, cfg0)
        runs.append({"ds25": ds25, "cfg25": cfg25, "state25": state25,
                     "ds0": ds0, "cfg0": cfg0, "state0": state0})
    return {"source": source, "runs": runs}


@pytest.fixture(scope="session")
def phoneme_runs():
    ds, source = load_dataset("phoneme", seed=BASE_SEED)
    runs = []
    for repeat in range(N_REPEATS):
        ds25, seed25 = _cell(ds, "phoneme", NOISE, repeat)
        cfg = PipelineConfig.for_dataset("phoneme", variant="G-12312", seed=seed25)
        runs.append({"ds25": ds25, "cfg": cfg, "state": run_variant(ds25, cfg)})
    return {"source": source, "runs": runs}


def test_criterion_6_desk_scale_regression(spambase_runs):
    start = time.perf_counter()
    err = {("G-12", n): [] for n in (0.0, NOISE)}
    err.update({("DML-KNN", n): [] for n in (0.0, NOISE)})
    for run in spambase_runs["runs"]:
        for variant in ("G-12", "DML-KNN"):
            err[(variant, NOISE)].append(
                _predict_error(run["state25"], run["cfg25"], variant, run["ds25"]))
            err[(variant, 0.0)].append(
                _predict_error(run["state0"], run["cfg0"], variant, run["ds0"]))
    means = {k: float(np.mean(v)) for k, v in err.items()}
    deg_g12 = means[("G-12", NOISE)] - means[("G-12", 0.0)]
    deg_knn = means[("DML-KNN", NOISE)] - means[("DML-KNN", 0.0)]
    elapsed = time.perf_counter() - start
    source = spambase_runs["source"]
    info(6, f"dataset source: {source}; mean errors over {N_REPEATS} repeats: "
         f"G-12 {means[('G-12', 0.0)]:.2f}% @0%, {means[('G-12', NOISE)]:.2f}% @25%; "
         f"DML-KNN {means[('DML-KNN', 0.0)]:.2f}% @0%, {means[('DML-KNN', NOISE)]:.2f}% @25%")
    in_window_0 = abs(means[("G-12", 0.0)] - 7.73) <= 2.5
    in_window_25 = abs(means[("G-12", NOISE)] - 9.82) <= 2.5
    if real_csv("spambase"):
        report(6, in_window_0 and in_window_25 and deg_g12 < deg_knn,
               f"real CSV: windows 7.73+-2.5 / 9.82+-2.5 {'met' if in_window_0 and in_window_25 else 'MISSED'}; "
               f"degradation G-12 {deg_g12:.2f} < DML-KNN {deg_knn:.2f}")
    else:
        info(6, f"absolute windows on synthetic stand-in (informational): "
             f"@0% {'in' if in_window_0 else 'out of'} 7.73+-2.5, "
             f"@25% {'in' if in_window_25 else 'out of'} 9.82+-2.5")
        report(6, deg_g12 < deg_knn and elapsed < 1800,
               f"binding relational check: mean degradation G-12 {deg_g12:.2f} "
               f"< DML-KNN {deg_knn:.2f} over {N_REPEATS} repeats; "
               f"prediction time {elapsed:.0f}s (< 1800s)")


def test_criterion_7_denoising_trend(spambase_runs):
    residuals, residuals_top = [], []
    for run in spambase_runs["runs"]:
        ds25, state = run["ds25"], run["state25"]
        clean_w = ds25.clean_labels[state.work_ids]
        train_m = ds25.split[state.work_ids] == TRAIN
        residuals.append(residual_noise(state.stages[1].y, clean_w, train_m))
        cfg_rank = dataclasses.replace(run["cfg25"], variant="G-12s")
        top = rank_sampling(state, cfg_rank.rank_sample_k, cfg_rank)
        top_mask = np.zeros(state.work_ids.size, dtype=bool)
        top_mask[np.searchsorted(state.work_ids, top)] = True
        residuals_top.append(residual_noise(state.stages[1].y, clean_w, top_mask))
    mean_res = float(np.mean(residuals))
    mean_top = float(np.mean(residuals_top))
    report(7, mean_res <= 0.20 and mean_top <= mean_res,
           f"mean residual noise after first pass {mean_res:.3f} (<= 0.20); "
           f"rank-sampled subset {mean_top:.3f} <= full-train {mean_res:.3f}")


def test_criterion_8_graph_cleaning_trend(spambase_runs, phoneme_runs):
    details = []
    ok = True
    for name, bundle in (("spambase", spambase_runs), ("phoneme", phoneme_runs)):
        before, after = [], []
        for run in bundle["runs"]:
            ds25 = run["ds25"]
            state = run.get("state25") or run.get("state")
            clean_w = ds25.clean_labels[state.work_ids]
            before.append(mean_edge_weight_proportion(state.stages[1].graph, clean_w))
            after.append(mean_edge_weight_proportion(state.stages[2].graph, clean_w))
        mb, ma = float(np.mean(before)), float(np.mean(after))
        ok = ok and ma < mb
        details.append(f"{name}: {mb:.4f} -> {ma:.4f}")
    report(8, ok, "mean edge-weight proportion before -> after update at 25% noise: "
           + "; ".join(details))


def test_criterion_9_spectral_smoothing_trend():
    ds_full, _ = load_dataset("phoneme", seed=BASE_SEED)
    gains = []
    fractions = []
    for repeat in range(N_REPEATS):
        ds = subsample_dataset(ds_full, 500, seed=BASE_SEED + repeat)
        ds25 = dataio.inject_label_noise(
            ds, NoiseSpec(rate=NOISE, seed=cell_seed(BASE_SEED, "phoneme500",
                                                     NOISE, repeat)))
        cfg = PipelineConfig.for_dataset("phoneme", variant="G-12312",
                                         seed=BASE_SEED + repeat)
        state = run_variant(ds25, cfg)

        def low_quartile_fraction(rec):
            lam, mag = gft_spectrum(rec.graph.laplacian, rec.y)
            cutoff = np.quantile(lam, 0.25)
            energy = mag**2
            return float(energy[lam <= cutoff].sum() / energy.sum())

        f0 = low_quartile_fraction(state.stages[0])
        f2 = low_quartile_fraction(state.stages[2])
        fractions.append((f0, f2))
        gains.append(f2 - f0)
    m0 = float(np.mean([f[0] for f in fractions]))
    m2 = float(np.mean([f[1] for f in fractions]))
    report(9, m2 > m0,
           f"low-quartile spectral energy fraction {m0:.4f} -> {m2:.4f} "
           f"over {N_REPEATS} seeds (strict increase)")


# ---------------------------------------------------------------------------
# criterion 10: bit-for-bit reproducibility of the error table

def test_criterion_10_determinism(tmp_path):
    grid = ExperimentGrid(datasets=("spambase",), noise_levels=(0.0, NOISE),
                          repeats=1, variants=("DML-KNN", "G-2"),
                          base_seed=BASE_SEED)
    rep1 = run_grid(grid, tmp_path / "run1.csv")
    rep2 = run_grid(grid, tmp_path / "run2.csv")
    errors1 = [r["error_rate"] for r in rep1.rows]
    errors2 = [r["error_rate"] for r in rep2.rows]
    same_rows = errors1 == errors2
    same_table = rep1.to_csv() == rep2.to_csv()
    statuses_ok = all(r["status"] == "ok" for r in rep1.rows + rep2.rows)
    report(10, same_rows and same_table and statuses_ok,
           f"two runs of a {len(rep1.rows)}-cell grid produced identical error "
           f"tables ({'bit-for-bit' if same_table else 'MISMATCH'})")
