"""quasiortho benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass runs the workload's CLI
invocations in a fresh interpreter (``one_pass.py``), passes repeat while
the next one should end within S seconds (at least MIN_PASSES), every pass
is scaled by its speed probes, and every output is checked
(see ``workloads.check``) and compared byte for byte across passes. The
last stdout line is the result object; the line before it is the run
record (environment, per-pass figures, failures). With ``--trace 1`` odd
passes are traced and the per-layer metrics are reported instead of the
end-to-end ones. See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import workloads as wl
from tracer import COUNT_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")

MIN_PASSES = 2          # the byte-identity check needs two
PASS_TIMEOUT_S = 60     # one pass is 4-10 s on 2 cores; keeps a run under 180 s
FLOOR_DRAWS = 1 << 22   # normals per timing of the raw RNG rate
FLOOR_REPEATS = 7
# one_pass.probe_s of a calibration run on the machine in README.md.
# Scaled times read as seconds on that machine running at that speed.
PROBE_REF_S = 0.0226


def rng_floor_ns_per_normal(seed: int) -> float:
    """Median ns per raw PCG64 ``standard_normal`` draw into a buffer."""
    gen = np.random.Generator(np.random.PCG64(seed))
    buf = np.empty(FLOOR_DRAWS)
    gen.standard_normal(out=buf)  # warm the buffer's pages
    times = []
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        gen.standard_normal(out=buf)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / FLOOR_DRAWS


def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    return {k.strip(): v.strip() for k, v in fields.items()}


def environment(floor_ns: float) -> dict:
    """Everything besides the code that fixes the outputs or the timings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = _lscpu()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name", platform.processor() or "unknown"),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "rng.floor_ns_per_normal": floor_ns,
    }


def run_pass(workdir: str, workload: str, seed: int, traced: bool,
             spans_path: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), SRC, workdir,
           workload, str(seed), "1" if traced else "0", spans_path]
    n_inv = len(wl.WORKLOADS[workload])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        why = f"pass exceeded {PASS_TIMEOUT_S} s"
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            record = None
        if record is not None:
            record["traced"] = traced
            return record
        why = f"pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return {"traced": traced, "crashed": why,
            "invocations": [{"status": wl.FAIL, "why": why, "sha256": ""}
                            for _ in range(n_inv)]}


def scaled_setup_s(p: dict) -> float:
    """Set-up time at the reference speed, by the probes on either side."""
    probe = p["probe_s"]
    return p["setup_s"] * 2 * PROBE_REF_S / (probe[0] + probe[1])


def scaled_invocation_s(p: dict) -> list[float]:
    """Invocation times at the reference speed: each is scaled by the mean
    of the probes just before and just after it."""
    probe = p["probe_s"]
    return [t * 2 * PROBE_REF_S / (probe[i + 1] + probe[i + 2])
            for i, t in enumerate(p["invocation_s"])]


def pass_time_s(passes: list[dict]) -> float:
    """Sum over the invocations of the median of their scaled times; the
    speed drifts within a pass, so each invocation is taken separately."""
    per_invocation = zip(*(scaled_invocation_s(p) for p in passes))
    return sum(statistics.median(times) for times in per_invocation)


def mark_byte_mismatches(passes: list[dict]) -> None:
    """Fail every invocation whose output bytes differ from the first pass's."""
    ref = [r["sha256"] for r in passes[0]["invocations"]]
    for p in passes[1:]:
        for i, r in enumerate(p["invocations"]):
            if r["status"] != wl.FAIL and r["sha256"] != ref[i]:
                r["status"] = wl.FAIL
                r["why"] = "output bytes differ from the first pass"


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten passes above it."""
    n = len(values)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    return {"percentile": pct,
            "value": statistics.quantiles(values, n=100)[pct - 1]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "quasiortho", "cli.py")):
        print(f"error: no quasiortho sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RUN_DIR)
    spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}.csv")
    try:
        if wl.needs_spectrum(args.workload):
            wl.write_spectrum(os.path.join(workdir, wl.SPECTRUM_FILE))
        floor_ns = rng_floor_ns_per_normal(args.seed)
        # untimed: compiles bytecode, which users pay once, not per run
        subprocess.run([sys.executable, "-c", "import quasiortho.cli"],
                       env={**os.environ, "PYTHONPATH": SRC}, cwd=ROOT,
                       check=True, capture_output=True, timeout=PASS_TIMEOUT_S)
        passes = []
        t0 = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(workdir, args.workload, args.seed, traced,
                                   spans_path))
            # start another pass only if it should end within --seconds
            elapsed = time.perf_counter() - t0
            if (len(passes) >= MIN_PASSES
                    and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mark_byte_mismatches(passes)
    statuses = [r["status"] for p in passes for r in p["invocations"]]
    attempted, failed = len(statuses), statuses.count(wl.FAIL)
    ok = [p for p in passes if "crashed" not in p]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    walls = [sum(scaled_invocation_s(p)) for p in plain]
    setups = [scaled_setup_s(p) for p in ok]

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes),
        "untraced_passes": len(plain), "traced_passes": len(traced),
        "wall_s_per_pass": walls,
        "wall_s_tail": tail_percentile(walls),
        "setup_s_per_pass": setups,
        "unscaled_wall_s_per_pass": [p["wall_s"] for p in plain],
        "invocation_s_per_pass": [p["invocation_s"] for p in plain],
        "unscaled_setup_s_per_pass": [p["setup_s"] for p in ok],
        "probe_s_per_pass": [p["probe_s"] for p in ok],
        "fail_frac": failed / attempted,
        "stat_fail": statuses.count(wl.STAT_FAIL),
        "failures": [r["why"] for p in passes for r in p["invocations"]
                     if r["status"] == wl.FAIL],
        "environment": environment(floor_ns),
    }

    if not args.trace:
        metrics = {
            "wall_s": (pass_time_s(plain) if plain else 0.0, "s"),
            "setup_s": (statistics.median(setups) if ok else 0.0, "s"),
            "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in ok) / 1024
                            if ok else 0.0, "MB"),
            "verified_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = {}
        if traced:
            layers = [p["layers"] for p in traced]
            record["counts_repeat"] = all(
                lay[k] == layers[0][k] for lay in layers for k in COUNT_METRICS)
            for key in layers[0]:
                value = (layers[0][key] if key in COUNT_METRICS
                         else statistics.median(lay[key] for lay in layers))
                metrics[key] = (value, _unit(key))
            overhead = (pass_time_s(traced) / pass_time_s(plain) - 1.0
                        if plain else 0.0)
        else:
            overhead = 0.0
        metrics["process.cpu_s"] = (
            statistics.median(p["cpu_s"] for p in plain) if plain else 0.0, "s")
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics["rng.floor_ns_per_normal"] = (floor_ns, "ns")

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and len(ok) == len(passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(key: str) -> str:
    suffix = key.rsplit(".", 1)[-1]
    return {"self_s": "s", "p50_us": "us", "p99_us": "us", "ns_per_normal": "ns",
            "accept_ratio": "ratio", "gram_bytes_computed": "B",
            "bytes_written": "B"}.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
