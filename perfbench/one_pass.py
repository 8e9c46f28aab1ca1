"""One benchmark pass in a fresh interpreter; prints one JSON object.

    python3 one_pass.py SRC_DIR WORK_DIR WORKLOAD SEED TRACE SPANS_PATH

Times the import of ``quasiortho.cli`` plus ``build_parser()`` (set-up),
then runs the workload's invocations in-process through
``quasiortho.cli.main(argv)`` and checks each output (the pass). With
TRACE=1 the layers are wrapped first and the spans are written to
SPANS_PATH at the end. Only the standard library is imported before the
set-up is timed.

A speed probe runs before the set-up and after the set-up and each
invocation, outside the timed intervals, so that run.py can scale every
interval by the machine's speed at the time (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

PROBE_LOOP = 400_000
PROBE_REPEATS = 3
# Idle time before a probe. Right after a large BLAS call, OpenBLAS worker
# threads keep spinning for up to about 0.1 s, and on 2 vCPUs the probe
# loop then runs about twice as slowly; without the idle time the scale
# would depend on the code under test.
PROBE_IDLE_S = 0.15


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def probe_s() -> float:
    """Median seconds of a fixed pure-Python loop: the machine's speed now."""
    time.sleep(PROBE_IDLE_S)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[PROBE_REPEATS // 2]


def main(argv: list[str]) -> int:
    src, workdir, workload, seed, trace, spans_path = argv
    import workloads as wl  # this script's directory is on sys.path

    probes = [probe_s()]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import quasiortho.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0
    probes.append(probe_s())

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results, durations = [], []
    cpu_s = 0.0
    for argv_i in wl.invocations(workload, int(seed), workdir):
        out_path = argv_i[argv_i.index("--output") + 1]
        if os.path.exists(out_path):
            os.remove(out_path)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        results.append(_run_and_check(cli, wl, argv_i, out_path))
        durations.append(time.perf_counter() - t0)
        cpu_s += _cpu_s() - cpu0
        probes.append(probe_s())

    record = {
        "setup_s": setup_s,
        "wall_s": sum(durations),
        "invocation_s": durations,
        "probe_s": probes,
        "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "invocations": results,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = sum(r["bytes"] for r in results)
        layers["cli.stat_fail"] = sum(r["status"] == wl.STAT_FAIL for r in results)
        record["layers"] = layers
        tracer.write_spans(spans_path)
    print(json.dumps(record))
    return 0


def _run_and_check(cli, wl, argv: list[str], out_path: str) -> dict:
    """Run one invocation through ``cli.main`` and classify its output."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any raise is a failed invocation
        return {"status": wl.FAIL, "why": f"raised {exc!r}", "sha256": "",
                "bytes": 0}
    try:
        with open(out_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return {"status": wl.FAIL, "why": f"no output: {exc}", "sha256": "",
                "bytes": 0}
    status, why = wl.check(argv, code, data.decode("utf-8", "replace"))
    return {"status": status, "why": why,
            "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
