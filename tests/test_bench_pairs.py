"""scripts/bench_pairs.py: pair parsing, per-metric summaries, the per-pair
relative changes, the change against BENCHMARK.json's bounds, the claim rule
and the recorded command line. The script is loaded by path; nothing here
runs perfbench."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = ("setup_s", "train_s", "predict_s", "cell_s", "peak_rss_mb", "ok_frac")


def runs_of(parent, change, name="peak_rss_mb"):
    """Pair records with the given values of one metric and 1.0 for the others."""
    def side(value):
        return {**dict.fromkeys(METRICS, 1.0), name: value}
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent, change)]


def test_parse_pairs(bp):
    assert bp.parse_pairs(["magic-workset=31-33", "phoneme-train=7"]) == {
        "magic-workset": [31, 32, 33], "phoneme-train": [7]}


def test_summarise_counts_ties_for_neither_side(bp):
    s = bp.summarise(runs_of([10, 10, 10, 10], [9, 10, 11, 9]))
    m = s["peak_rss_mb"]
    assert s["pairs"] == 4
    assert m["change_wins"] == 2
    assert m["parent_median"] == 10 and m["change_median"] == 9.5
    assert s["train_s"]["change_wins"] == 0  # all tied
    # higher is better for ok_frac
    assert bp.summarise(runs_of([0.5, 1.0], [1.0, 1.0], "ok_frac"))["ok_frac"]["change_wins"] == 1


def test_change_against_the_bound(bp):
    # the bounds BENCHMARK.json sets: 0.25 on times and memory, 0.05 on ok_frac
    assert bp.bounds()["train_s"] == 0.25 and bp.bounds()["ok_frac"] == 0.05
    m = bp.summarise(runs_of([10] * 4, [12] * 4, "train_s"))["train_s"]
    assert m["worse_by"] == pytest.approx(0.2)
    assert m["within_bound"] and m["resolved"]
    m = bp.summarise(runs_of([10] * 4, [13] * 4, "train_s"))["train_s"]
    assert m["worse_by"] == pytest.approx(0.3) and not m["within_bound"]
    # a better median reads negative
    assert bp.summarise(runs_of([10] * 4, [8] * 4, "train_s"))["train_s"]["worse_by"] == \
        pytest.approx(-0.2)
    # higher is better for ok_frac: a fall of a tenth is worse by 0.1, past its bound
    m = bp.summarise(runs_of([1.0] * 4, [0.9] * 4, "ok_frac"))["ok_frac"]
    assert m["worse_by"] == pytest.approx(0.1) and not m["within_bound"]
    # overlapping quartile ranges leave the metric unresolved
    m = bp.summarise(runs_of([9, 10, 11, 12], [10, 11, 12, 13], "train_s"))["train_s"]
    assert m["worse_by"] == pytest.approx(0.095238, rel=1e-4)
    assert m["within_bound"] and not m["resolved"]
    # a parent median of 0 has no relative change; any rise is outside the bound
    m = bp.summarise(runs_of([0.0] * 2, [0.1] * 2, "setup_s"))["setup_s"]
    assert m["worse_by"] is None and not m["within_bound"]


def test_summarise_reports_the_per_pair_relative_change(bp):
    # the parent drifts from 10 to 40 and each change run sits 10% under its
    # pair's parent: the run medians overlap, every pair's change reads -0.1
    parent = [10, 20, 30, 40]
    m = bp.summarise(runs_of(parent, [0.9 * p for p in parent], "train_s"))["train_s"]
    assert not m["resolved"]
    assert m["pair_change_median"] == pytest.approx(-0.1)
    assert m["pair_change_q1_q3"] == pytest.approx([-0.1, -0.1])
    # positive means worse, for ok_frac too, where higher is better
    m = bp.summarise(runs_of([1.0, 1.0, 0.5], [0.5, 1.0, 1.0], "ok_frac"))["ok_frac"]
    assert m["pair_change_median"] == pytest.approx(0.0)
    assert m["pair_change_q1_q3"] == pytest.approx([-0.5, 0.25])
    # a pair whose parent value is 0 has no relative change and is left out
    m = bp.summarise(runs_of([0.0, 2.0, 4.0], [1.0, 3.0, 2.0], "setup_s"))["setup_s"]
    assert m["pair_change_median"] == pytest.approx(0.0)
    assert bp.summarise(runs_of([0.0], [1.0], "setup_s"))["setup_s"]["pair_change_median"] is None


def test_claim_needs_nine_tenths_of_pairs_and_a_gain_above_the_parent_iqr(bp):
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    met = bp.summarise(runs_of(parent, [90] * 10))
    assert bp.judge(met, "peak_rss_mb")["met"]
    # nine wins of ten still meets it; eight does not
    assert bp.judge(bp.summarise(runs_of(parent, [90] * 9 + [120])), "peak_rss_mb")["met"]
    assert not bp.judge(bp.summarise(runs_of(parent, [90] * 8 + [120] * 2)), "peak_rss_mb")["met"]
    # every pair won, but by less than the parent's interquartile range (4.5)
    close = bp.summarise(runs_of(parent, [p - 1 for p in parent]))
    assert close["peak_rss_mb"]["parent_iqr"] == pytest.approx(4.5)
    assert close["peak_rss_mb"]["change_wins"] == 10
    assert not bp.judge(close, "peak_rss_mb")["met"]


def test_command_names_no_checkout(bp, tmp_path):
    args = bp.argparse.Namespace(parent=tmp_path / "a", change=tmp_path / "b",
                                 pairs=["magic-workset=31-40"], claim="magic-workset:peak_rss_mb",
                                 out=tmp_path / "BENCH_15.json")
    cmd = bp.command(args)
    assert cmd == ("python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR "
                   "--pairs magic-workset=31-40 --claim magic-workset:peak_rss_mb "
                   "--out BENCH_15.json")
    assert str(tmp_path) not in cmd
