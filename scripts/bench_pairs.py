"""Alternating parent/change runs of perfbench, summarised in one JSON file.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --pairs spambase-sampled=31-40 phoneme-train=31-40 magic-workset=31-40 \\
        --claim spambase-sampled:predict_s --out BENCH_10.json

PARENT_DIR and CHANGE_DIR are checkouts of the two commits (for example made
with `git archive`), each with its own perfbench/. For every seed of a
workload the script runs `perfbench/run.py --seconds 40 --trace 0` (the run
length BENCHMARK.json sets) once from each checkout, one process at a time,
and alternates which side goes first from pair to pair. It then runs each
side once with `--trace 1` at seed 21, for the per-layer figures, and once at
`--seconds 1` for each of seeds 21 and 22, for the cell-0 prediction digests.

Per workload and end-to-end metric the output holds every run's value, each
side's median and quartiles, and the number of pairs the change won (ties
count for neither side). It also holds the signed relative change of the
medians (positive means worse), whether that change is inside the metric's
`bound` in BENCHMARK.json, and whether the two sides' quartile ranges are
apart: where they overlap, the runs cannot tell the sides apart, and the
metric is unresolved rather than unchanged. Next to the run medians stand the
median and quartiles of the per-pair signed relative change, (change -
parent) / parent with positive meaning worse, over the pairs whose parent
value is not 0: a drift that scales both runs of a pair alike cancels in
these figures, though not in the medians. A claimed metric is met when the
change wins at least nine tenths of the pairs and its median is better than
the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SECONDS = 40
TRACE_SEED = 21
DIGEST_SEEDS = (21, 22)
END_TO_END = {"setup_s": "lower", "train_s": "lower", "predict_s": "lower",
              "cell_s": "lower", "peak_rss_mb": "lower", "ok_frac": "higher"}
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> list:
    """The JSON lines one perfbench run prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = [json.loads(ln) for ln in out.stdout.splitlines() if ln.startswith("{")]
    if not lines or "metrics" not in lines[-1]:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} printed no result:\n{out.stderr}")
    return lines


def metrics(lines: list) -> dict:
    return {k: v["value"] for k, v in lines[-1]["metrics"].items()}


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    return statistics.quantiles(values, n=4, method="inclusive")[::2]


def bounds() -> dict:
    """Each end-to-end metric's bound on a relative regression, from BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def summarise(runs: list) -> dict:
    """Medians, quartiles, wins, the per-pair relative changes and the change
    against the bound per end-to-end metric over the pairs."""
    out = {"pairs": len(runs)}
    bound = bounds()
    for name, better in END_TO_END.items():
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        sign = 1 if better == "lower" else -1
        q_parent, q_change = quartiles(parent), quartiles(change)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        worse = sign * (c_med - p_med)
        # relative to the parent's median; None where that median is 0
        rel = worse / abs(p_med) if p_med else None
        # each pair's signed relative change, positive where the change is worse
        paired = [sign * (c - p) / abs(p) for p, c in zip(parent, change) if p]
        out[name] = {"parent_median": p_med, "change_median": c_med,
                     "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                     "parent_q1_q3": q_parent, "change_q1_q3": q_change,
                     "parent_iqr": q_parent[1] - q_parent[0],
                     "pair_change_median": statistics.median(paired) if paired else None,
                     "pair_change_q1_q3": quartiles(paired) if paired else None,
                     "worse_by": rel, "bound": bound[name],
                     "within_bound": worse <= 0 if rel is None else rel <= bound[name],
                     "resolved": q_change[1] < q_parent[0] or q_change[0] > q_parent[1]}
    return out


def judge(summary: dict, name: str) -> dict:
    """A claimed metric's summary, and whether the claim is met: the change
    won at least nine tenths of the pairs, and its median beats the parent's
    by more than the parent's interquartile range."""
    m = summary[name]
    sign = 1 if END_TO_END[name] == "lower" else -1
    gain = sign * (m["parent_median"] - m["change_median"])
    return {**m, "met": m["change_wins"] >= 0.9 * summary["pairs"] and gain > m["parent_iqr"]}


def command(args) -> str:
    """The invocation, with the checkouts written as PARENT_DIR and CHANGE_DIR
    so that the record names no directory of the machine that ran it."""
    parts = ["python3", "scripts/bench_pairs.py", "--parent", "PARENT_DIR",
             "--change", "CHANGE_DIR", "--pairs", *args.pairs]
    if args.claim:
        parts += ["--claim", args.claim]
    return " ".join(parts + ["--out", args.out.name])


def parse_pairs(specs: list) -> dict:
    """{"workload": [seeds]} from "workload=first-last" arguments."""
    pairs = {}
    for spec in specs:
        workload, _, seeds = spec.partition("=")
        first, _, last = seeds.partition("-")
        pairs[workload] = list(range(int(first), int(last or first) + 1))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=FIRST-LAST")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = parse_pairs(args.pairs)
    result = {"command": command(args),
              "protocol": f"perfbench/run.py --seconds {SECONDS} --trace 0 from each "
                          "checkout, one run at a time, alternating which side goes first",
              "end_to_end": {}}
    started = time.time()
    for workload, seeds in pairs.items():
        runs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            record = {"seed": seed, "first": order[0]}
            for side in order:
                lines = run(sides[side], workload, seed, SECONDS, 0)
                result.setdefault("machine", lines[0].get("env"))
                record[side] = metrics(lines)
                record[side]["correct"] = lines[-1]["correct"]
            runs.append(record)
            print(f"{workload} seed {seed}: predict_s {record['parent']['predict_s']:.3f} -> "
                  f"{record['change']['predict_s']:.3f}", file=sys.stderr, flush=True)
        result["end_to_end"][workload] = {"summary": summarise(runs), "runs": runs}
    result["outside_bounds"] = [f"{workload}:{name}"
                                for workload, rec in result["end_to_end"].items()
                                for name in END_TO_END if not rec["summary"][name]["within_bound"]]
    if args.claim:
        workload, _, name = args.claim.partition(":")
        result["claim"] = {"workload": workload, "metric": name,
                           **judge(result["end_to_end"][workload]["summary"], name)}
    result["per_layer_trace"] = {"seed": TRACE_SEED}
    for workload in pairs:
        result["per_layer_trace"][workload] = {}
        for side, checkout in sides.items():
            lines = run(checkout, workload, TRACE_SEED, SECONDS, 1)
            traced = next(ln for ln in lines if ln.get("traced"))
            result["per_layer_trace"][workload][side] = {
                "correct": lines[-1]["correct"], "cell0_pred_sha256": traced["pred_sha256"],
                **metrics(lines)}
    result["cell0_digests"] = {}
    for seed in DIGEST_SEEDS:
        digests = {}
        for workload in pairs:
            for side, checkout in sides.items():
                lines = run(checkout, workload, seed, 1, 0)
                cell0 = next(ln for ln in lines if ln.get("cell") == 0)
                digests.setdefault(workload, {})[side] = cell0["pred_sha256"]
        result["cell0_digests"][f"seed{seed}"] = {
            "digests": digests, "equal": all(d["parent"] == d["change"] for d in digests.values())}
    result["elapsed_s"] = round(time.time() - started, 1)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
