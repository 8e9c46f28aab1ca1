"""Tests of the benchmark itself: output checks, traced spans, counts.

Run from the root of the repository (about two minutes on 2 cores):

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads as wl  # noqa: E402
from tracer import COUNT_METRICS, Tracer  # noqa: E402

WORKLOADS = ("overlap-law", "small-calls", "large-arrays")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of every workload with the same seed."""
    return {w: [parsed(run_bench(w, 3, 1)) for _ in range(2)]
            for w in WORKLOADS}


# ------------------------------------------------------------ spec

def test_spec_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(wl.WORKLOADS) == set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


# ------------------------------------------------------------ checks

def _deff_output(d_eff: int) -> str:
    return (f"# command=deff\n# d_eff={d_eff}\n"
            f"energy,width,d_eff\n10.0,1.0,{d_eff}\n")


def _overlap_output(n=50000, mean=1 / 1024, passed="true", ks=0.001,
                    threshold=None, binned=None):
    if threshold is None:
        threshold = math.sqrt(0.5 * math.log(200) / n)
    return (f"# empirical_mean={mean!r}\n# ks_pass={passed}\n"
            f"# ks_statistic={ks!r}\n# ks_threshold={threshold!r}\n"
            f"# n_samples={n}\nbin_left,bin_right,count\n"
            f"0.0,0.5,{n - 1 if binned is None else binned}\n0.5,1.0,1\n")


def _decohere_output(trials, k, overlap, ratio=None, n=10, rows=None):
    pairs = [f"{i}-{j}" for i in range(k) for j in range(i + 1, k)]
    if ratio is None:
        ratio = overlap * 2 ** n
    body = "".join(f"{t},{p},{overlap!r},0.01\n"
                   for t in range(trials) for p in pairs)
    if rows is not None:
        body = "".join(body.splitlines(keepends=True)[:rows])
    return (f"# pointer_count={k}\n# trials={trials}\n"
            f"# typicality_ratio={ratio!r}\n"
            f"trial,pair,squared_overlap,max_coherence\n{body}")


def _rate_output(failed, trials, argv_trials=None, m=111, passed="true"):
    return (f"# description=random-coding success rate at d=100, eps=0.1, "
            f"M={m}: failed {failed}/{trials}, union bound 0.18\n"
            "d,eps,M,trials,failure_fraction,success_fraction,"
            "union_bound_plus_3se,pass\n"
            f"100,0.1,{m},{argv_trials or trials},{failed / trials!r},"
            f"{1 - failed / trials!r},0.21,{passed}\n")


def _random_build_output(max_pairwise, success, pair=""):
    return ("d,eps,M_requested,success,max_pairwise,failure_pair,union_bound\n"
            f"64,0.3,6000,{success},{max_pairwise!r},{pair},0.003\n")


def test_check_classifies_outputs():
    deff = ["deff", "--spectrum", "s.txt", "--energy", "10", "--width", "1"]
    assert wl.check(deff, 0, _deff_output(184756))[0] == wl.OK
    assert wl.check(deff, 0, _deff_output(184755))[0] == wl.FAIL
    assert wl.check(deff, 2, _deff_output(184756))[0] == wl.FAIL
    assert wl.check(deff, 3, "")[0] == wl.FAIL
    assert wl.check(deff, 0, "not,a\ncsv")[0] == wl.FAIL


def test_checks_fix_the_amount_of_work():
    overlap = ["overlap-dist", "--d", "1024", "--trials", "50000"]
    assert wl.check(overlap, 0, _overlap_output())[0] == wl.OK
    # fewer samples than asked, with the threshold to match
    assert wl.check(overlap, 0, _overlap_output(n=5000))[0] == wl.FAIL
    assert wl.check(overlap, 0, _overlap_output(threshold=0.02))[0] == wl.FAIL
    assert wl.check(overlap, 0, _overlap_output(binned=4000))[0] == wl.FAIL

    haar = ["decohere", "--n", "10", "--k", "3", "--dynamics", "exact-haar",
            "--trials", "40"]
    assert wl.check(haar, 0, _decohere_output(40, 3, 1 / 1024))[0] == wl.OK
    assert wl.check(haar, 0, _decohere_output(4, 3, 1 / 1024))[0] == wl.FAIL
    assert wl.check(haar, 0, _decohere_output(40, 3, 1 / 1024, rows=100))[0] \
        == wl.FAIL
    # a ratio that does not come from the rows
    assert wl.check(haar, 0, _decohere_output(40, 3, 1 / 1024, ratio=1.2))[0] \
        == wl.FAIL
    assert wl.check(haar, 0, _decohere_output(40, 3, 2 / 1024))[0] == wl.FAIL

    rate = ["packing", "build", "--d", "100", "--eps", "0.1", "--M", "111",
            "--trials", "1000"]
    assert wl.check(rate, 0, _rate_output(165, 1000))[0] == wl.OK
    assert wl.check(rate, 0, _rate_output(16, 100, argv_trials=1000))[0] \
        == wl.FAIL
    assert wl.check(rate, 0, _rate_output(165, 1000, m=50))[0] == wl.FAIL
    # a build that certifies too few pairs fails too rarely
    assert wl.check(rate, 0, _rate_output(20, 1000))[0] == wl.FAIL
    assert wl.check(rate, 0, _rate_output(165, 1000, passed="false"))[0] \
        == wl.FAIL


def test_random_build_failure_is_statistical_only_in_the_plausible_tail():
    argv = ["packing", "build", "--d", "64", "--eps", "0.3", "--M", "6000"]
    lo, hi = wl.max_pairwise_range(64, 6000)
    assert 0.19 < lo < 0.21 and 0.38 < hi < 0.39
    assert wl.check(argv, 0, _random_build_output(0.23, "true"))[0] == wl.OK
    chance = _random_build_output(0.35, "false", "17-4021")
    assert wl.check(argv, 1, chance)[0] == wl.STAT_FAIL
    assert wl.check(argv, 0, chance)[0] == wl.FAIL
    # unnormalised or real rows put a pair near 1 on every seed
    broken = _random_build_output(0.9, "false", "0-1")
    assert wl.check(argv, 1, broken)[0] == wl.FAIL
    # certifying only some pairs leaves the maximum implausibly low
    assert wl.check(argv, 0, _random_build_output(0.05, "true"))[0] == wl.FAIL
    assert wl.check(argv, 1, _random_build_output(0.35, "false", "9-9000"))[0] \
        == wl.FAIL


def test_ks_rejection_is_a_statistical_failure_not_an_error():
    argv = ["overlap-dist", "--d", "1024", "--trials", "50000"]
    se = math.sqrt(1023 / (1024 ** 2 * 1025) / 50000)
    ok_mean = 1 / 1024 + se
    rejected = _overlap_output(mean=ok_mean, passed="false", ks=0.008)
    assert wl.check(argv, 1, rejected)[0] == wl.STAT_FAIL
    assert wl.check(argv, 0, rejected)[0] == wl.FAIL
    far = _overlap_output(mean=ok_mean, passed="false", ks=0.02)
    assert wl.check(argv, 1, far)[0] == wl.FAIL
    biased = _overlap_output(mean=1 / 1024 + 7 * se)
    assert wl.check(argv, 0, biased)[0] == wl.FAIL


def test_integrable_overlaps_are_checked_against_the_closed_form():
    argv = ["decohere", "--n", "10", "--dynamics", "integrable",
            "--theta", "0.0", "0.2", "--trials", "1"]
    exact = math.cos(0.1) ** 20
    assert wl.check(argv, 0, _decohere_output(1, 2, exact))[0] == wl.OK
    assert wl.check(argv, 0, _decohere_output(1, 2, exact + 1e-9))[0] == wl.FAIL


def test_spectrum_is_the_popcount_spectrum(tmp_path):
    path = tmp_path / wl.SPECTRUM_FILE
    wl.write_spectrum(str(path))
    levels = [float(x) for x in path.read_text().split()]
    assert len(levels) == 2 ** 20 and levels == sorted(levels)
    assert levels.count(10.0) == math.comb(20, 10)


def test_percentiles_are_reported_whenever_a_span_has_calls():
    tracer = Tracer()
    tracer.spans = [("states.haar_unitary", 0.0, 20e-6, -1),
                    ("states.haar_unitary", 1.0, 1.0 + 40e-6, -1),
                    ("rng.substream", 2.0, 2.0 + 5e-6, -1)]
    out = tracer.layer_metrics()
    assert 20 <= out["states.haar_unitary.p50_us"] <= 40
    assert out["states.haar_unitary.p99_us"] >= out["states.haar_unitary.p50_us"]
    assert out["rng.substream.p50_us"] == pytest.approx(5)
    assert out["rng.substream.p99_us"] == pytest.approx(5)
    assert out["states.apply_local.p50_us"] == 0.0  # no calls


# ------------------------------------------------------------ runs

# span or count -> workloads on which it must be non-zero
NONZERO = {
    "states.complex_gaussians.calls": WORKLOADS,
    "cli.main.calls": WORKLOADS,
    "cli.cmd.self_s": WORKLOADS,
    "overlap.sample_overlaps.samples": ("overlap-law",),
    "overlap.ks_test.self_s": ("overlap-law",),
    "rng.substream.calls": ("small-calls", "large-arrays"),
    "states.haar_unitary.calls": ("small-calls",),
    "states.Unitary.validate.calls": ("small-calls", "large-arrays"),
    "states.haar_state.calls": ("small-calls", "large-arrays"),
    "states.apply_local.calls": ("small-calls", "large-arrays"),
    "states.StateVector.validate.calls": ("small-calls", "large-arrays"),
    "packing.success_rate_experiment.trials": ("small-calls",),
    "packing.random_coding_construct.self_s": ("large-arrays",),
    "packing.greedy_construct.attempts": ("large-arrays",),
    "packing.pairs_certified": ("small-calls", "large-arrays"),
    "decoherence.generate_branches.calls": ("small-calls", "large-arrays"),
    "decoherence.reduced_density.calls": ("small-calls", "large-arrays"),
    "decoherence.branches": ("small-calls", "large-arrays"),
    "effective_dim.levels_read": ("large-arrays",),
    "effective_dim.Spectrum.from_file.self_s": ("large-arrays",),
}

# The control: overlap-law bypasses these layers entirely.
ZERO_ON_OVERLAP_LAW = [
    m["name"] for m in SPEC["per_layer"]
    if m["name"].startswith(("packing.", "decoherence.", "rng.substream.",
                             "states.apply_local.", "states.haar_unitary."))
]


def test_traced_runs_are_correct_and_report_every_layer_metric(traced_runs):
    wanted = {m["name"] for m in SPEC["per_layer"]}
    for workload, runs in traced_runs.items():
        for record, result in runs:
            assert result["correct"], (workload, record["failures"])
            assert set(result["metrics"]) == wanted, workload


def test_spans_have_calls_where_predicted(traced_runs):
    for name, workloads in NONZERO.items():
        for workload in workloads:
            _, result = traced_runs[workload][0]
            assert result["metrics"][name]["value"] > 0, (name, workload)


def test_overlap_law_bypasses_packing_decoherence_and_gates(traced_runs):
    _, result = traced_runs["overlap-law"][0]
    assert ZERO_ON_OVERLAP_LAW
    for name in ZERO_ON_OVERLAP_LAW:
        assert result["metrics"][name]["value"] == 0, name


def test_counts_repeat_exactly_with_the_same_seed(traced_runs):
    for workload, ((rec_a, res_a), (rec_b, res_b)) in traced_runs.items():
        assert rec_a["counts_repeat"] and rec_b["counts_repeat"]
        for name in COUNT_METRICS:
            assert res_a["metrics"][name] == res_b["metrics"][name], \
                (workload, name)


def test_trace_overhead_is_reported_for_every_workload(traced_runs):
    for workload, runs in traced_runs.items():
        for record, result in runs:
            assert record["traced_passes"] >= 1
            assert record["untraced_passes"] >= 1
            overhead = result["metrics"]["trace.overhead_frac"]["value"]
            assert math.isfinite(overhead) and overhead > -1.0, workload


def test_untraced_run_reports_every_end_to_end_metric():
    record, result = parsed(run_bench("overlap-law", 5, 0))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name in ("python", "numpy", "scipy", "blas", "nproc", "cpu_model",
                 "l2_cache", "l3_cache", "rng.floor_ns_per_normal"):
        assert name in record["environment"]


def test_fails_without_the_program():
    bare = os.path.join(BENCH, "_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_run", "__pycache__"))
        proc = run_bench("overlap-law", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
