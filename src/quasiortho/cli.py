"""Command-line front end: configure, seed, run, and serialize experiments.

Subcommands: overlap-dist, levy-check, packing (bound|build), decohere,
deff. Every output, the --family-csv file included, embeds a provenance
header (command, seed, parameters, and the quasiortho, Python and numpy
versions); identical command lines reproduce byte-identical output
apart from the timestamp, which --no-timestamp suppresses. Only this
module writes files.

Exit codes: 0 pass, 1 statistical test failed, 2 usage error,
3 resource/IO error. Non-finite, non-integer or out-of-range input is a
usage error: the library functions reject it with ValueError
(:mod:`quasiortho.validate`), and the CLI repeats none of their checks;
it only calls them early where a late rejection would waste a full draw.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import itertools
import json
import math
import platform
import sys

import numpy as np

from . import __version__
from . import effective_dim as ed
from . import overlap as ov
from . import packing as pk
from . import decoherence as dc
from .limits import ResourceLimitError
from .rng import RngStream
from .validate import integer

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

LEVY_GRID_D = (2, 16, 128, 1024, 4096)
LEVY_GRID_DELTA = (0.01, 0.05, 0.1, 0.5, 1.0)


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip representation
    if value is None:
        return ""
    return str(value)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(np.random.SeedSequence().entropy)


def _provenance(args, seed: int | None, params: dict) -> dict:
    # the normalized parameter set, not raw argv: output paths and
    # formatting flags must not break byte-identical reproducibility
    # numpy fixes the PCG64 and normal-draw streams
    command = f"{args.command} {getattr(args, 'mode', '')}".rstrip()
    prov = {"command": command, "version": __version__,
            "python": platform.python_version(), "numpy": np.__version__}
    if seed is not None:
        prov["seed"] = seed
    prov.update({f"param_{k}": v for k, v in sorted(params.items())})
    if not args.no_timestamp:
        prov["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds")
    return prov


class _RowList(list):
    """A JSON array whose items are made as json's encoder iterates it.

    It holds only the first item, so ``not rows`` is still true only of
    no rows, and iterating it yields that item and then the rest of the
    iterable. json's pure-Python encoder, the one it runs whenever
    ``indent`` is set, reads a list only through those two.
    """

    def __init__(self, items):
        items = iter(items)
        super().__init__(itertools.islice(items, 1))
        self._rest = items

    def __iter__(self):
        return itertools.chain(super().__iter__(), self._rest)


def _write(path, fmt: str, prov: dict, summary: dict, columns: list,
           rows) -> None:
    """Write one artifact as CSV or JSON to ``path``, or stdout if None.

    ``rows`` is any iterable of row lists. It is written as it yields
    rows, so a generator of rows is never held whole: CSV line by line,
    and JSON in the chunks of ``json.dumps(obj, indent=2,
    sort_keys=True)``, with the same bytes.
    """
    if fmt == "json":
        obj = {
            "provenance": prov,
            "summary": summary,
            "columns": columns,
            "rows": _RowList(dict(zip(columns, row)) for row in rows),
        }
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        chunks = itertools.chain(encoder.iterencode(obj), ["\n"])
    else:
        lines = itertools.chain(
            (f"# {k}={_fmt_cell(v)}" for k, v in sorted(prov.items())),
            (f"# {k}={_fmt_cell(v)}" for k, v in sorted(summary.items())),
            [",".join(columns)],
            (",".join(_fmt_cell(c) for c in row) for row in rows))
        chunks = (line + "\n" for line in lines)
    with (open(path, "w", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(chunks)


def _write_family(path, prov: dict, family: pk.QuasiOrthogonalFamily) -> None:
    """The certified family as CSV, one row of re/im pairs per vector."""
    summary = {"dim": family.dim, "eps": family.eps, "size": family.size,
               "max_pairwise": family.max_pairwise}
    columns = [f"{part}{k}" for k in range(family.dim) for part in ("re", "im")]
    # a complex128 row viewed as float64 is (re0, im0, re1, im1, ...)
    _write(path, "csv", prov, summary, columns,
           (row.tolist() for row in family.rows.view(np.float64)))


def cmd_overlap_dist(args) -> tuple:
    # checked before the draw, which would otherwise run to completion;
    # more bins than samples leave bins empty, and an unbounded count
    # runs out of memory only after the whole draw
    trials = integer("--trials", args.trials, ov.KS_MIN_SAMPLES)
    integer("--bins", args.bins, 1, trials)
    ov.ks_critical_value(args.alpha)
    seed = _resolve_seed(args)
    sample = ov.sample_overlaps(args.d, trials, RngStream(seed))
    report = ov.ks_test(sample, alpha=args.alpha)

    hi = max(float(sample.values[-1]), 1e-12)
    edges = np.linspace(0.0, hi, args.bins + 1)
    counts, _ = np.histogram(sample.values, bins=edges)
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    emp_density = counts / (sample.count * widths)
    emp_cdf = np.searchsorted(sample.values, edges[1:], side="right") / sample.count

    columns = ["bin_left", "bin_right", "count", "empirical_density",
               "empirical_cdf", "analytic_pdf", "analytic_cdf"]
    rows = (
        [float(edges[b]), float(edges[b + 1]), int(counts[b]),
         float(emp_density[b]), float(emp_cdf[b]),
         float(ov.pdf(args.d, min(mids[b], 1.0))),
         float(ov.cdf(args.d, min(edges[b + 1], 1.0)))]
        for b in range(args.bins)
    )
    summary = {
        "d": args.d,
        "n_samples": sample.count,
        "empirical_mean": float(sample.values.mean()),
        "analytic_mean": ov.mean(args.d),
        "ks_statistic": report.statistic,
        "ks_threshold": report.threshold,
        "ks_alpha": report.alpha,
        "ks_pass": report.passed,
    }
    params = {"d": args.d, "trials": args.trials, "bins": args.bins,
              "alpha": args.alpha}
    return seed, params, summary, columns, rows, report.passed, None


def cmd_levy_check(args) -> tuple:
    if (args.d is None) != (args.delta is None):
        raise ValueError("single-point mode needs both --d and --delta")
    if args.d is not None:
        grid = [(args.d, args.delta)]
    else:
        grid = [(d, x) for d in LEVY_GRID_D for x in LEVY_GRID_DELTA]

    columns = ["d", "delta", "exact_tail", "levy_bound", "vacuous", "ok"]
    rows = []
    violations = 0
    for d, delta in grid:
        exact = ov.two_sided_exact_tail(d, delta)
        bound = ov.overlap_tail_bound(d, delta)
        ok = exact <= bound
        violations += 0 if ok else 1
        rows.append([d, float(delta), exact, bound, ov.is_vacuous(bound), ok])
    summary = {"grid_points": len(grid), "violations": violations}
    return (None, {"d": args.d, "delta": args.delta}, summary, columns, rows,
            violations == 0, None)


def cmd_packing_bound(args) -> tuple:
    if (args.d is None) == (args.qubits is None):
        raise ValueError("give exactly one of --d or --qubits")
    by_qubits = args.qubits is not None
    # qubit_capacity_log checks the qubit count before 2**n is formed
    log_m = pk.qubit_capacity_log(args.qubits, args.eps) if by_qubits \
        else pk.log_lower_bound(args.d, args.eps)
    d = 2 ** args.qubits if by_qubits else args.d
    try:
        m = pk.lower_bound(d, args.eps)
    except OverflowError:
        m = None
    columns = ["d", "qubits", "eps", "lower_bound", "log_lower_bound"]
    rows = [[f"2^{args.qubits}" if by_qubits else d, args.qubits, args.eps,
             m, log_m]]
    summary = {"log_lower_bound": log_m, "lower_bound": m}
    params = {"d": args.d, "qubits": args.qubits, "eps": args.eps}
    return None, params, summary, columns, rows, True, None


def cmd_packing_build(args) -> tuple:
    seed = _resolve_seed(args)
    rng = RngStream(seed)
    params = {"d": args.d, "eps": args.eps, "M": args.M, "method": args.method,
              "trials": args.trials, "max_attempts": args.max_attempts}

    if args.max_attempts is not None and args.method != "greedy":
        raise ValueError("--max-attempts applies to the greedy method only")
    if args.trials is not None:
        if args.method != "random" or args.family_csv:
            raise ValueError("--trials runs a random-method rate experiment; "
                             "it takes no --method greedy or --family-csv")
        report = pk.success_rate_experiment(args.d, args.eps, args.M,
                                            args.trials, rng)
        success_fraction = 1.0 - report.statistic
        # the gate's tail: P(at least this many failures) under the bound
        ub = pk.union_bound_failure(args.d, args.eps, args.M)
        tail = pk._binomial_tail(round(report.statistic * args.trials),
                                 args.trials, ub)
        columns = ["d", "eps", "M", "trials", "failure_fraction",
                   "success_fraction", "tail_probability", "pass"]
        rows = [[args.d, args.eps, args.M, args.trials, report.statistic,
                 success_fraction, tail, report.passed]]
        summary = {"description": report.description,
                   "success_fraction": success_fraction,
                   "pass": report.passed}
        return seed, params, summary, columns, rows, report.passed, None

    if args.method == "greedy":
        attempts = 100 * args.M if args.max_attempts is None \
            else args.max_attempts
        family = pk.greedy_construct(args.d, args.eps, args.M, attempts, rng)
        success = family.size == args.M
        columns = ["d", "eps", "M_requested", "size", "max_pairwise", "success"]
        rows = [[args.d, args.eps, args.M, family.size,
                 family.max_pairwise, success]]
        summary = {"success": success, "size": family.size,
                   "max_pairwise": family.max_pairwise}
        return seed, params, summary, columns, rows, success, family

    report = pk.random_coding_construct(args.d, args.eps, args.M, rng)
    columns = ["d", "eps", "M_requested", "success", "max_pairwise",
               "failure_pair", "union_bound"]
    pair = None if report.failure_pair is None else \
        f"{report.failure_pair[0]}-{report.failure_pair[1]}"
    rows = [[args.d, args.eps, args.M, report.success, report.max_pairwise,
             pair, report.union_bound]]
    summary = dict(zip(columns, rows[0]))  # the one row, keyed by column
    return (seed, params, summary, columns, rows, report.success,
            report.family)


def _build_model(args) -> tuple[dc.MeasurementModel, dict]:
    """The model of a decohere command line, and the provenance keys of
    its model inputs beyond n, k, dynamics, depth and theta: the pointer
    amplitudes of ``--coeffs``, or the SHA-256 of the ``--config`` file's
    bytes, which covers every key the file sets."""
    if args.config:
        flags = {"--n": args.n, "--k": args.k, "--dynamics": args.dynamics,
                 "--theta": args.theta, "--depth": args.depth,
                 "--coeffs": args.coeffs}
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ValueError(f"--config sets the whole model; it takes no "
                             f"{', '.join(given)}")
        with open(args.config, "rb") as fh:
            data = fh.read()
        model = dc.MeasurementModel.from_config(json.loads(data.decode("utf-8")))
        return model, {"config_sha256": hashlib.sha256(data).hexdigest()}
    dynamics = {None: "exact-haar", "integrable": "integrable-product"}.get(
        args.dynamics, args.dynamics)
    k = args.k
    if k is None:
        k = len(args.theta) if args.theta else \
            (len(args.coeffs) if args.coeffs else 2)
    if args.coeffs:
        coeffs = np.asarray(args.coeffs, dtype=complex)
    else:
        # uniform amplitudes; for k < 1 the vector is empty and the model
        # reports the pointer count
        coeffs = np.ones(max(k, 0), dtype=complex) / math.sqrt(max(k, 1))
    model = dc.MeasurementModel(
        pointer_count=k,
        coefficients=coeffs,
        env_qubits=args.n,
        dynamics=dynamics,
        depth=args.depth,
        thetas=args.theta,
    )
    return model, ({"coeffs": list(args.coeffs)} if args.coeffs else {})


def cmd_decohere(args) -> tuple:
    if not args.config and args.n is None:
        raise ValueError("give --n (environment qubits) or --config")
    model, model_inputs = _build_model(args)
    seed = _resolve_seed(args)
    result = dc.suppression_experiment(model, args.trials, RngStream(seed))

    k = model.pointer_count
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    columns = ["trial", "pair", "squared_overlap", "max_coherence"]
    rows = ([t, f"{i}-{j}", float(result.pair_overlaps[t, p]),
             float(result.max_coherences[t])]
            for t in range(result.trials) for p, (i, j) in enumerate(pairs))
    params = {
        "n": model.env_qubits, "k": k, "dynamics": model.dynamics,
        "depth": model.depth, "trials": args.trials,
        "theta": None if model.thetas is None else list(model.thetas),
        **model_inputs,
    }
    return seed, params, result.summary(), columns, rows, True, None


def cmd_deff(args) -> tuple:
    try:
        # one read, so a pipe works and the hash is of the bytes parsed:
        # the spectrum's content, not its path, determines the output
        with open(args.spectrum, "rb") as fh:
            data = fh.read()
        spectrum = ed.Spectrum.from_text(data.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise OSError(f"cannot read spectrum: {exc}") from exc
    d_eff = ed.microcanonical_dim(spectrum, args.energy, args.width)
    columns = ["energy", "width", "d_eff", "entropy",
               "overlap_sq_scale", "amplitude_scale"]
    if d_eff == 0:
        summary = {
            "d_eff": 0,
            "warning": "zero-shell: no eigenvalues in window; entropy omitted",
        }
        rows = [[args.energy, args.width, 0, None, None, None]]
    else:
        entropy = ed.entropy_of(d_eff)
        summary = {"d_eff": d_eff, "entropy": entropy,
                   "method": "microcanonical-shell"}
        rows = [[args.energy, args.width, d_eff, entropy,
                 *ed.suppression_scale(d_eff)]]
    params = {"spectrum_sha256": hashlib.sha256(data).hexdigest(),
              "energy": args.energy, "width": args.width}
    return None, params, summary, columns, rows, True, None


def _add_common(parser: argparse.ArgumentParser, with_seed: bool = True) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", metavar="PATH", default=None)
    parser.add_argument("--no-timestamp", action="store_true")
    if with_seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="RNG seed; drawn from system entropy and "
                                 "recorded when omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiortho",
        description="Haar overlap statistics, quasi-orthogonal packing, "
                    "and decoherence-record experiments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"quasiortho {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap-dist",
                       help="sample Haar overlaps and test the analytic law")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--alpha", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=cmd_overlap_dist)

    p = sub.add_parser("levy-check",
                       help="tabulate exact tails against the concentration bound")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_levy_check)

    packing = sub.add_parser("packing",
                             help="quasi-orthogonal family bounds and builds")
    packing_sub = packing.add_subparsers(dest="mode", required=True)

    p = packing_sub.add_parser("bound", help="evaluate the random-coding bound")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("--eps", type=float, required=True)
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_packing_bound)

    p = packing_sub.add_parser("build", help="construct and certify a family")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--method", choices=("random", "greedy"), default="random")
    p.add_argument("--trials", type=int, default=None,
                   help="run a success-rate experiment instead of one build")
    p.add_argument("--max-attempts", type=int, default=None)
    p.add_argument("--family-csv", metavar="PATH", default=None,
                   help="also export the certified family as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_packing_build)

    p = sub.add_parser("decohere",
                       help="branch-record suppression experiment")
    p.add_argument("--n", type=int, default=None, help="environment qubits")
    p.add_argument("--k", type=int, default=None, help="pointer outcomes")
    p.add_argument("--dynamics",
                   choices=dc.DYNAMICS + ("integrable",),
                   default=None, help="default exact-haar")
    p.add_argument("--theta", type=float, nargs="+", default=None,
                   help="per-pointer rotation angles (integrable dynamics)")
    p.add_argument("--depth", type=int, default=None,
                   help="circuit depth (chaotic dynamics; default 4n)")
    p.add_argument("--coeffs", type=float, nargs="+", default=None,
                   help="pointer amplitudes (default uniform)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--config", metavar="PATH", default=None,
                   help="JSON measurement-model config; takes no model flags")
    _add_common(p)
    p.set_defaults(func=cmd_decohere)

    p = sub.add_parser("deff",
                       help="microcanonical shell dimension from a spectrum")
    p.add_argument("--spectrum", metavar="PATH", required=True,
                   help="one energy per line, or a JSON array")
    p.add_argument("--energy", type=float, required=True,
                   help="window lower edge E")
    p.add_argument("--width", type=float, required=True,
                   help="window width dE; the shell is [E, E+dE)")
    _add_common(p, with_seed=False)
    p.set_defaults(func=cmd_deff)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        # each cmd_* returns (seed or None, params, summary, columns, rows,
        # passed, certified family or None), written here as one artifact
        seed, params, summary, columns, rows, passed, family = args.func(args)
        prov = _provenance(args, seed, params)
        if family is not None and args.family_csv:
            _write_family(args.family_csv, prov, family)
        _write(args.output, args.format, prov, summary, columns, rows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_PASS if passed else EXIT_STAT_FAIL


if __name__ == "__main__":
    sys.exit(main())
