"""Layer spans recorded from outside the library.

``Tracer.install`` wraps the public functions of each ``quasiortho``
module in every ``quasiortho.*`` namespace that holds them (``decoherence``
imports ``haar_state`` and friends by name, ``packing`` and ``overlap``
import ``complex_gaussians``), plus ``StateVector``/``Unitary`` validation
through ``__post_init__``, ``RngStream.substream`` and
``Spectrum.from_file`` on their classes. Nothing under ``src/`` changes.

Each call records a span (name, start, end, parent) in memory; work
counts are taken from the arguments and return values at the same
boundary. ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time

# span name -> (module, attribute path)
TARGETS = {
    "rng.substream": ("quasiortho.rng", "RngStream.substream"),
    "states.complex_gaussians": ("quasiortho.states", "complex_gaussians"),
    "states.haar_unitary": ("quasiortho.states", "haar_unitary"),
    "states.haar_state": ("quasiortho.states", "haar_state"),
    "states.apply_local": ("quasiortho.states", "apply_local"),
    "states.StateVector.validate": ("quasiortho.states", "StateVector.__post_init__"),
    "states.Unitary.validate": ("quasiortho.states", "Unitary.__post_init__"),
    "overlap.sample_overlaps": ("quasiortho.overlap", "sample_overlaps"),
    "overlap.ks_test": ("quasiortho.overlap", "ks_test"),
    "packing.success_rate_experiment": ("quasiortho.packing", "success_rate_experiment"),
    "packing.random_coding_construct": ("quasiortho.packing", "random_coding_construct"),
    "packing.greedy_construct": ("quasiortho.packing", "greedy_construct"),
    "decoherence.suppression_experiment": ("quasiortho.decoherence", "suppression_experiment"),
    "decoherence.generate_branches": ("quasiortho.decoherence", "generate_branches"),
    "decoherence.reduced_density": ("quasiortho.decoherence", "reduced_density"),
    "decoherence.max_coherence": ("quasiortho.decoherence", "max_coherence"),
    "effective_dim.Spectrum.from_file": ("quasiortho.effective_dim", "Spectrum.from_file"),
    "effective_dim.microcanonical_dim": ("quasiortho.effective_dim", "microcanonical_dim"),
    "cli.main": ("quasiortho.cli", "main"),
}
# Every cmd_* function of the CLI shares this span name.
CMD_SPAN = "cli.cmd"

# Spans that report calls / self_s (the rest report self_s only).
COUNTED = ("rng.substream", "states.complex_gaussians", "states.haar_unitary",
           "states.haar_state", "states.apply_local",
           "states.StateVector.validate", "states.Unitary.validate",
           "decoherence.generate_branches", "decoherence.reduced_density",
           "cli.main")
# Spans that report per-call p50_us / p99_us, which read 0 only when the
# span has no calls.
PER_CALL = ("rng.substream", "states.complex_gaussians", "states.haar_unitary",
            "states.apply_local", "states.StateVector.validate",
            "states.Unitary.validate")

# Work counts kept at the span boundaries.
COUNTS = ("states.complex_gaussians.normals", "overlap.sample_overlaps.samples",
          "overlap.sample_overlaps.normals",
          "packing.success_rate_experiment.trials", "packing.greedy_construct.accepted",
          "packing.pairs_certified", "packing.gram_bytes_computed",
          "decoherence.branches", "effective_dim.levels_read")

# Reported metrics that are exact counts: with one seed they must repeat
# in every traced pass and every run. The cli.* ones come from the pass.
COUNT_METRICS = frozenset(
    [f"{name}.calls" for name in COUNTED]
    + [c for c in COUNTS if c not in ("overlap.sample_overlaps.normals",
                                      "packing.greedy_construct.accepted")]
    + ["packing.greedy_construct.attempts", "cli.bytes_written", "cli.stat_fail"])


def _certified(counts: dict, m: int, times: int = 1) -> None:
    """One exact all-pairs certification of m vectors: M(M-1)/2 pairs from
    a 16*M^2-byte complex Gram (bytes computed, not bytes moved)."""
    counts["packing.pairs_certified"] += times * (m * (m - 1) // 2)
    counts["packing.gram_bytes_computed"] += times * 16 * m * m


def _count_gaussians(counts, args, kwargs):
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    counts["states.complex_gaussians.normals"] += 2 * math.prod(
        shape if isinstance(shape, (tuple, list)) else (shape,))


def _count_sample_overlaps(counts, bound, result):
    n = int(bound["n_samples"])
    counts["overlap.sample_overlaps.samples"] += n
    counts["overlap.sample_overlaps.normals"] += 2 * int(bound["d"]) * n


def _count_rate(counts, bound, result):
    trials = int(bound["trials"])
    counts["packing.success_rate_experiment.trials"] += trials
    _certified(counts, int(bound["m"]), trials)


def _count_random(counts, bound, result):
    _certified(counts, int(bound["m"]))


def _count_greedy(counts, bound, result):
    counts["packing.greedy_construct.accepted"] += result.size
    _certified(counts, result.size)


def _count_branches(counts, bound, result):
    counts["decoherence.branches"] += bound["model"].pointer_count


def _count_levels(counts, bound, result):
    counts["effective_dim.levels_read"] += result.size


# Counters that need named arguments; they run on the rare, coarse calls.
_BOUND_COUNTERS = {
    "overlap.sample_overlaps": _count_sample_overlaps,
    "packing.success_rate_experiment": _count_rate,
    "packing.random_coding_construct": _count_random,
    "packing.greedy_construct": _count_greedy,
    "decoherence.generate_branches": _count_branches,
    "effective_dim.Spectrum.from_file": _count_levels,
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index or -1)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    # ---------------------------------------------------------- wrapping

    def _counter(self, name, fn):
        """``f(args, kwargs, result)`` that updates the counts, or None."""
        counts = self.counts
        if name == "states.complex_gaussians":  # hot: no signature binding
            return lambda args, kwargs, result: _count_gaussians(counts, args, kwargs)
        count = _BOUND_COUNTERS.get(name)
        if count is None:
            return None
        bind = inspect.signature(fn).bind
        return lambda args, kwargs, result: count(
            counts, bind(*args, **kwargs).arguments, result)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = self._counter(name, fn)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; raises if a target no longer exists."""
        import quasiortho.cli as cli

        modules = [m for n, m in list(sys.modules.items())
                   if n == "quasiortho" or n.startswith("quasiortho.")]
        targets = [(name, mod, path) for name, (mod, path) in TARGETS.items()]
        targets += [(CMD_SPAN, "quasiortho.cli", attr) for attr in vars(cli)
                    if attr.startswith("cmd_")]
        for name, mod_name, path in targets:
            mod = sys.modules[mod_name]
            if "." in path:  # a method, replaced on its class
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                wrapped = self._wrap(name, raw.__func__ if is_classmethod else raw)
                setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)
            else:  # a function, replaced in every namespace that holds it
                fn = getattr(mod, path)
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)

    # ---------------------------------------------------------- results

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the recorded spans (see README.md)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s, durations = {}, {}, {}, {}
        greedy_draws = 0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            total_s[name] = total_s.get(name, 0.0) + dur
            if name in PER_CALL:
                durations.setdefault(name, []).append(dur)
            # each greedy attempt draws one candidate row
            if (name == "states.complex_gaussians" and parent >= 0
                    and spans[parent][0] == "packing.greedy_construct"):
                greedy_draws += 1

        out = {}
        for name in list(TARGETS) + [CMD_SPAN]:
            if name in COUNTED:
                out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in PER_CALL:
            durs = durations.get(name, [])
            if len(durs) >= 2:
                q = statistics.quantiles(durs, n=100)
                p50, p99 = q[49], q[98]
            else:  # one call is its own percentiles; 0 only without calls
                p50 = p99 = durs[0] if durs else 0.0
            out[f"{name}.p50_us"] = p50 * 1e6
            out[f"{name}.p99_us"] = p99 * 1e6

        c = self.counts
        normals = c["overlap.sample_overlaps.normals"]
        accepted = c["packing.greedy_construct.accepted"]
        out.update({
            "states.complex_gaussians.normals": c["states.complex_gaussians.normals"],
            "overlap.sample_overlaps.samples": c["overlap.sample_overlaps.samples"],
            "overlap.sample_overlaps.ns_per_normal":
                total_s.get("overlap.sample_overlaps", 0.0) * 1e9 / normals
                if normals else 0.0,
            "packing.success_rate_experiment.trials":
                c["packing.success_rate_experiment.trials"],
            "packing.greedy_construct.attempts": greedy_draws,
            "packing.greedy_construct.accept_ratio":
                accepted / greedy_draws if greedy_draws else 0.0,
            "packing.pairs_certified": c["packing.pairs_certified"],
            "packing.gram_bytes_computed": c["packing.gram_bytes_computed"],
            "decoherence.branches": c["decoherence.branches"],
            "effective_dim.levels_read": c["effective_dim.levels_read"],
        })
        return out
