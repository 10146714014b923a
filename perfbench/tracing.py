"""Span tracing of dynglr from outside the program.

A `Tracer` rebinds named functions of the dynglr modules to wrappers that
record one span per call: name, start, end, parent span, and a tag (the
graph's size class, or the weighting round). Rebinding is done in every
dynglr module namespace that holds the function, because `pipeline` and
`bench` import functions by name and `graphs.graph_update` reaches
`knn_edges` through the `graphs` globals. From the spans it derives call
counts, self time (duration minus time covered by child spans) and work
counts, and a handler on the ``dynglr`` logger turns the program's fallback
log lines into counters.

Helpers called only from inside a traced function (``directed_knn``,
``edge_distances``, ``surviving_edge_budgets``, the CG loop) stay unwrapped,
so their time is the caller's self time.
"""

from __future__ import annotations

import functools
import json
import logging
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Graph calls on at most this many nodes are per-batch or frozen-chain graphs
# (<= 100 nodes); the train+val working-set graphs have thousands.
BATCH_MAX_NODES = 1000

# module -> names wrapped in a traced run ("Class.method" wraps a method).
TRACED = {
    "dataio": ("synthetic_dataset", "stratified_split", "inject_label_noise"),
    "metricnet": ("triplet_loss_E", "triplet_loss_W", "adam_step", "sample_triplets",
                  "node_attention_matrix", "MetricNet.forward_batch"),
    "graphs": ("pairwise_sq_dists", "knn_edges", "build_laplacian", "assign_weights",
               "partition_edges", "auto_sigma", "graph_update"),
    "glr": ("denoise",),
    "pipeline": ("run_variant", "predict", "run_stage_gnet", "run_stage_wnet",
                 "run_stage_unet", "grid_search_gamma", "unet_inputs", "rank_sampling"),
}

# Spans of these are tagged "batch" or "workset" by the node count of their
# first argument.
SIZED = frozenset({
    "graphs.knn_edges", "graphs.build_laplacian", "graphs.assign_weights",
    "graphs.partition_edges", "graphs.auto_sigma", "graphs.graph_update",
    "glr.denoise", "pipeline.unet_inputs",
})
SIZES = ("batch", "workset")
# Self time of layer calls is also summed per phase of the cell.
PHASES = {"pipeline.run_variant": "train", "pipeline.predict": "predict"}

# (logger name, start of the message template) -> counter, and whether the
# counter adds the record's first argument (a node count) instead of 1.
LOG_COUNTERS = (
    ("dynglr.graphs", "empty edge class", "graphs.auto_sigma.fallbacks", False),
    ("dynglr.graphs", "degenerate zero same-label distance", "graphs.auto_sigma.fallbacks", False),
    ("dynglr.graphs", "wQ <= wP", "graphs.auto_sigma.fallbacks", False),
    ("dynglr.graphs", "floored %d node budgets", "graphs.floored_budgets", True),
    ("dynglr.glr", "CG did not converge", "glr.dense_fallbacks", False),
    ("dynglr.pipeline", "embed stage: single-class batch skipped", "pipeline.skipped_batches", False),
    ("dynglr.pipeline", "%s: batch without both edge classes skipped", "pipeline.skipped_batches", False),
    ("dynglr.pipeline", "%s: single-class batch skipped", "pipeline.skipped_batches", False),
    ("dynglr.pipeline", "update stage: single-class batch skipped", "pipeline.skipped_batches", False),
    ("dynglr.pipeline", "split of %d cannot fill", "pipeline.replacement_draws", False),
    ("dynglr.pipeline", "padded neighbor lists for %d nodes", "pipeline.padded_lists", True),
    ("dynglr.pipeline", "rank_sampling k=%d exceeds train size", "pipeline.rank_k_clamps", False),
)
COUNTERS = tuple(dict.fromkeys(c for _, _, c, _ in LOG_COUNTERS))


class TraceSetupError(RuntimeError):
    """A named function is missing, or some module would still call the
    unwrapped function, so a layer would silently read zero."""


def node_count(arg) -> int:
    """Nodes of a graph, Laplacian system or row matrix."""
    n = getattr(arg, "n_nodes", None)
    if n is None and hasattr(arg, "degrees"):
        n = len(arg.degrees)
    return int(n if n is not None else arg.shape[0])


class _CountingHandler(logging.Handler):
    def __init__(self, counters: dict):
        super().__init__(logging.INFO)
        self.counters = counters

    def emit(self, record):
        for logger_name, prefix, counter, by_arg in LOG_COUNTERS:
            if record.name == logger_name and str(record.msg).startswith(prefix):
                self.counters[counter] += int(record.args[0]) if by_arg else 1
                return


class Tracer:
    """Records spans of the functions named in `traced` while installed."""

    def __init__(self, traced: dict = TRACED):
        self.traced = traced
        self.spans = []  # (id, parent id, name, tag, start, end)
        self._stack = []  # [span id, child seconds] of open spans
        self.calls = {}  # (name, tag) -> count
        self.self_s = {}  # (name, tag) -> seconds
        self.incl_s = {}  # (name, tag) -> seconds
        self.durations = {}  # (name, tag) -> per-call seconds, for percentiles
        self.work = {}  # counter -> count
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.phase_self_s = {}  # (module, "train" | "predict") -> seconds
        self._phase = None
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _tag(self, name: str, args, kwargs) -> str:
        if name in SIZED:
            return "batch" if node_count(args[0]) <= BATCH_MAX_NODES else "workset"
        if name == "pipeline.run_stage_wnet":
            return f"r{args[1] if len(args) > 1 else kwargs['r']}"
        return ""

    def _add(self, table: dict, key, value) -> None:
        table[key] = table.get(key, 0) + value

    def call(self, name: str, fn, args, kwargs):
        tag = self._tag(name, args, kwargs)
        residuals = None
        if name == "glr.denoise" and kwargs.get("residual_log") is None and len(args) < 5:
            residuals = kwargs["residual_log"] = []
            fallbacks = self.counters["glr.dense_fallbacks"]
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        outer_phase = self._phase
        self._phase = PHASES.get(name, outer_phase)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            if self._phase is not None:
                self._add(self.phase_self_s, (name.partition(".")[0], self._phase),
                          duration - frame[1])
            self._phase = outer_phase
            key = (name, tag)
            self._add(self.calls, key, 1)
            self._add(self.self_s, key, duration - frame[1])
            self._add(self.incl_s, key, duration)
            self.durations.setdefault(key, []).append(duration)
            self.spans[span_id] = (span_id, parent, name, tag,
                                   start - self._t0, end - self._t0)
        if residuals is not None:
            # one residual is logged per CG iteration plus the converged check
            converged = self.counters["glr.dense_fallbacks"] == fallbacks
            self._add(self.work, f"glr.cg_iters.{tag}",
                      max(len(residuals) - converged, 0))
        elif name == "graphs.knn_edges":
            self._add(self.work, f"graphs.knn_edges.{tag}.edges", result.edges.nnz // 2)
        elif name == "metricnet.forward_batch":
            self._add(self.work, "metricnet.forward_batch.rows", node_count(args[1]))
        return result

    def _wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every named function, count fallback log lines, and undo
        both on exit. Raises TraceSetupError before any cell runs if a named
        function is gone or a module would bypass a wrapper."""
        modules = {m: sys.modules.get(f"dynglr.{m}") for m in self.traced}
        missing = [m for m, mod in modules.items() if mod is None]
        if missing:
            raise TraceSetupError(f"dynglr modules not imported: {missing}")
        namespaces = [mod for key, mod in sys.modules.items()
                      if mod is not None and (key == "dynglr" or key.startswith("dynglr."))]
        undo = []
        try:
            for mod_name, names in self.traced.items():
                for name in names:
                    self._install(modules[mod_name], mod_name, name, namespaces, undo)
            counting = _CountingHandler(self.counters)
            root = logging.getLogger("dynglr")
            level = root.level
            root.addHandler(counting)
            root.setLevel(logging.INFO)
            undo.append(lambda: (root.removeHandler(counting), root.setLevel(level)))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _install(self, module, mod_name: str, name: str, namespaces, undo) -> None:
        qual = f"dynglr.{mod_name}.{name}"
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(getattr(owner, attr, None)):
            raise TraceSetupError(f"{qual} is gone; its layer would read zero")
        original = getattr(owner, attr)
        wrapper = self._wrapper(f"{mod_name}.{attr}", original)
        if owner_name:
            setattr(owner, attr, wrapper)
            undo.append(lambda: setattr(owner, attr, original))
            return
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    undo.append(lambda ns=ns, key=key: setattr(ns, key, original))
        for ns in namespaces:
            bound = vars(ns).get(attr)
            if callable(bound) and bound is not wrapper:
                raise TraceSetupError(
                    f"{ns.__name__}.{attr} is not {qual}; its calls would not be traced")

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}

        def total(table, name, tag=None):
            return sum(v for (n, t), v in table.items()
                       if n == name and (tag is None or t == tag))

        def pct_ms(name, tag, q):
            values = sorted(self.durations.get((name, tag), ()))
            if len(values) < 2:
                return 1e3 * values[0] if values else 0.0
            return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        for fn in ("knn_edges", "build_laplacian", "assign_weights", "partition_edges",
                   "auto_sigma", "graph_update"):
            for size in SIZES:
                out[f"graphs.{fn}.{size}.calls"] = (total(self.calls, f"graphs.{fn}", size), "count")
                out[f"graphs.{fn}.{size}.self_s"] = (total(self.self_s, f"graphs.{fn}", size), "s")
        for size in SIZES:
            out[f"graphs.knn_edges.{size}.edges"] = (
                self.work.get(f"graphs.knn_edges.{size}.edges", 0), "count")
        out["graphs.pairwise_sq_dists.self_s"] = (total(self.self_s, "graphs.pairwise_sq_dists"), "s")
        for q in (50, 99):
            out[f"graphs.knn_edges.batch.p{q}_ms"] = (pct_ms("graphs.knn_edges", "batch", q), "ms")
        for size in SIZES:
            out[f"glr.denoise.{size}.calls"] = (total(self.calls, "glr.denoise", size), "count")
            out[f"glr.denoise.{size}.self_s"] = (total(self.self_s, "glr.denoise", size), "s")
        for q in (50, 99):
            out[f"glr.denoise.batch.p{q}_ms"] = (pct_ms("glr.denoise", "batch", q), "ms")
        for size in SIZES:
            out[f"glr.cg_iters.{size}"] = (self.work.get(f"glr.cg_iters.{size}", 0), "count")
        for fn in ("triplet_loss_E", "triplet_loss_W", "adam_step", "sample_triplets",
                   "forward_batch", "node_attention_matrix"):
            out[f"metricnet.{fn}.calls"] = (total(self.calls, f"metricnet.{fn}"), "count")
            out[f"metricnet.{fn}.self_s"] = (total(self.self_s, f"metricnet.{fn}"), "s")
        out["metricnet.forward_batch.rows"] = (self.work.get("metricnet.forward_batch.rows", 0), "count")
        stages = {"embed_s": ("pipeline.run_stage_gnet", None),
                  "weight1_s": ("pipeline.run_stage_wnet", "r1"),
                  "update_s": ("pipeline.run_stage_unet", None),
                  "weight2_s": ("pipeline.run_stage_wnet", "r2"),
                  "rank_sampling_s": ("pipeline.rank_sampling", None)}
        for metric, (name, tag) in stages.items():
            out[f"pipeline.{metric}"] = (total(self.incl_s, name, tag), "s")
        # predict's and rank sampling's own time: frozen-chain glue, reference
        # sets and vote accumulation outside the traced layer calls
        for fn in ("grid_search_gamma", "predict", "rank_sampling"):
            out[f"pipeline.{fn}.self_s"] = (total(self.self_s, f"pipeline.{fn}"), "s")
        for size in SIZES:
            out[f"pipeline.unet_inputs.{size}.self_s"] = (
                total(self.self_s, "pipeline.unet_inputs", size), "s")
        for fn in ("synthetic_dataset", "stratified_split", "inject_label_noise"):
            out[f"dataio.{fn}.self_s"] = (total(self.self_s, f"dataio.{fn}"), "s")
        for module in ("graphs", "glr", "metricnet"):
            for phase in ("train", "predict"):
                out[f"{module}.{phase}_self_s"] = (
                    self.phase_self_s.get((module, phase), 0.0), "s")
        for counter in COUNTERS:
            out[counter] = (self.counters[counter], "count")
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; times in seconds since the tracer was made."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                if span is None:  # still open: the run was interrupted inside it
                    continue
                span_id, parent, name, tag, start, end = span
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "tag": tag, "start": round(start, 7),
                                     "end": round(end, 7)}) + "\n")
