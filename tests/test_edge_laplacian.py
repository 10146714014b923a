"""The working-set Laplacian as an edge list, held to the csr code it replaced.

Above DENSE_BACKING_MAX nodes build_laplacian returns an EdgeLaplacian and
denoise takes its product with I + mu L as one np.bincount. The csr
Laplacian and the CG loop that ran on it are kept here as the oracle, and
both must agree bit for bit: a degree summed in another order, or a
diagonal entry out of column order, shows as a changed byte. scipy is a
test dependency only, so the runtime must not import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import dynglr
from conftest import dense, kernel_graph
from dynglr.errors import SolverError
from dynglr.glr import KAPPA, MAX_ITER_FACTOR, MU_FRACTION, SOLVER_TOL, denoise, mu_max
from dynglr.graphs import EdgeLaplacian, build_laplacian, knn_edges


def csr_laplacian(g):
    """D - W as the csr matrix that build_laplacian returned before."""
    n = g.n_nodes
    indptr = np.concatenate(([0], np.cumsum(np.bincount(g.rows, minlength=n))))
    w = sp.csr_matrix((g.weights, g.cols, indptr), shape=(n, n))
    degrees = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(degrees) - w).tocsr()


def csr_denoise(lap, y):
    """denoise's CG loop on one csr system at the default mu, as it ran before."""
    n = y.size
    mu = MU_FRACTION * mu_max(KAPPA, float(lap.diagonal().max(initial=0.0)))
    matvec = (sp.identity(n, format="csr") + mu * lap).tocsr().dot
    bound = SOLVER_TOL * np.sqrt(np.vecdot(y, y))
    x, r = y.copy(), y - matvec(y)
    d, rr = r.copy(), np.vecdot(r, r)
    for _ in range(MAX_ITER_FACTOR * n):
        if np.sqrt(rr) <= bound:
            return x
        sd = matvec(d)
        alpha = float(rr / np.vecdot(d, sd))
        x += alpha * d
        r -= alpha * sd
        rr_next = np.vecdot(r, r)
        d = r + float(rr_next / rr) * d
        rr = rr_next
    raise SolverError("oracle CG did not converge")


def working_set_graph():
    """A 2,760-node 16-dim KNN graph at sigma 1 with per-node budgets of 1 to
    29, node 0 so far away that its kernel weights underflow (an isolated
    node), and node 1 at the origin, which many nodes choose (a hub)."""
    rng = np.random.default_rng(16)
    emb = rng.normal(size=(2760, 16))
    emb[0], emb[1] = 1e3, 0.0
    return kernel_graph(knn_edges(emb, rng.integers(1, 30, 2760)), emb, 1.0)


def test_entries_are_the_csr_laplacian():
    g = working_set_graph()
    degree = np.bincount(g.rows, minlength=2760)
    assert degree[0] == 0 and degree[1] > 100
    lap = build_laplacian(g)
    assert isinstance(lap, EdgeLaplacian) and lap.n_nodes == 2760
    want = csr_laplacian(g)
    assert dense(lap).tobytes() == want.toarray().tobytes()
    # row-major with each diagonal entry in column order: csr's entries,
    # plus the isolated node's explicit 0
    keys = lap.rows * 2760 + lap.cols
    assert (np.diff(keys) > 0).all()
    explicit = np.isin(keys, np.repeat(np.arange(2760), np.diff(want.indptr)) * 2760 + want.indices)
    assert keys[~explicit].tolist() == [0] and lap.values[~explicit].tolist() == [0.0]
    assert lap.values[explicit].tobytes() == want.data.tobytes()


def test_denoise_equals_csr_cg():
    g = working_set_graph()
    rng = np.random.default_rng(17)
    # the working set's signal: train labels +-1, val nodes 0
    y = np.where(rng.random(2760) < 0.5, -1.0, 1.0) * (rng.random(2760) < 0.8)
    y[0] = 1.0
    residuals = []
    got = denoise(build_laplacian(g), y, residual_log=residuals)
    assert len(residuals) > 20
    assert got.tobytes() == csr_denoise(csr_laplacian(g), y).tobytes()
    assert got[0] == 1.0  # the isolated node's system row is exactly 1


def test_runtime_does_not_import_scipy():
    """Importing the command line and solving a working-set-size system, a 100-node
    dense system and a 10-block stack loads no scipy module."""
    code = ("import sys, numpy as np, dynglr.cli\n"
            "from dynglr import glr, graphs\n"
            "emb = np.random.default_rng(0).normal(size=(1000, 4))\n"
            "for n, blocks in ((400, 1), (100, 1), (1000, 10)):\n"
            "    g = graphs.knn_edges(emb[:n], 5, blocks)\n"
            "    glr.denoise(graphs.build_laplacian(g), np.sign(emb[:n, 0]))\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    src = str(Path(dynglr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
