"""Benchmark workloads: CLI invocation lists and the analytic check of each output.

Each workload is a list of ``quasiortho`` command lines chosen so that each
optimisable layer does most of its work in one workload and little or none
in another (see README.md for the reasons and the predictions). The runner
appends ``--seed``, ``--output`` and ``--no-timestamp``.

This module imports only the standard library: the pass worker imports it
before timing the import of ``quasiortho.cli``.
"""

from __future__ import annotations

import math
import re

# Written by the runner into its work directory; see write_spectrum.
SPECTRUM_FILE = "popcount_spectrum.txt"
SPECTRUM_QUBITS = 20
SPECTRUM_TOKEN = "{spectrum}"

# Shapes are the README reference invocations or scaled-up versions of
# them. Trial counts are half of the shapes in the benchmark's design so
# that a pass takes 3-6 s on 2 cores and a run holds several passes;
# every --trials in a workload is scaled by the same factor.
WORKLOADS = {
    "overlap-law": [
        ["overlap-dist", "--d", "1024", "--trials", "50000"],
    ],
    "small-calls": [
        ["decohere", "--n", "10", "--k", "2", "--dynamics", "chaotic-circuit",
         "--trials", "100"],
        ["packing", "build", "--d", "100", "--eps", "0.1", "--M", "111",
         "--trials", "1000"],
        ["decohere", "--n", "10", "--dynamics", "integrable",
         "--theta", "0.0", "0.2", "--trials", "100"],
        ["decohere", "--n", "10", "--k", "2", "--dynamics", "exact-haar",
         "--trials", "100"],
    ],
    "large-arrays": [
        ["packing", "build", "--d", "64", "--eps", "0.3", "--M", "6000"],
        ["packing", "build", "--d", "128", "--eps", "0.06", "--M", "2000",
         "--method", "greedy"],
        ["decohere", "--n", "14", "--dynamics", "integrable", "--theta",
         "0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "--trials", "100"],
        ["decohere", "--n", "14", "--k", "8", "--dynamics", "exact-haar",
         "--trials", "100"],
        ["deff", "--spectrum", SPECTRUM_TOKEN, "--energy", "10", "--width", "1"],
    ],
}

# Subcommands that take no --seed.
_UNSEEDED = {"deff"}


def invocations(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """Complete argv lists of one pass; output i goes to ``workdir/out-i.csv``."""
    out = []
    for i, base in enumerate(WORKLOADS[workload]):
        argv = [workdir + "/" + SPECTRUM_FILE if a == SPECTRUM_TOKEN else a
                for a in base]
        if base[0] not in _UNSEEDED:
            argv += ["--seed", str(1000 * seed + i)]
        argv += ["--output", f"{workdir}/out-{i}.csv", "--no-timestamp"]
        out.append(argv)
    return out


def needs_spectrum(workload: str) -> bool:
    return any(SPECTRUM_TOKEN in argv for argv in WORKLOADS[workload])


def write_spectrum(path: str) -> None:
    """Sorted popcounts of 0 .. 2**20 - 1, one float per line.

    The benchmark builds its own input rather than calling the library's
    ``noninteracting_qubit_spectrum``, so a library change cannot change
    the input it is checked on.
    """
    levels = sorted(bin(i).count("1") for i in range(1 << SPECTRUM_QUBITS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{float(v)!r}\n" for v in levels))


# ---------------------------------------------------------------- checks

OK, STAT_FAIL, FAIL = "ok", "stat_fail", "fail"

# Probability, under correct code, below which an outcome counts as wrong.
IMPLAUSIBLE = 1e-6


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """Split CLI CSV output into its ``# key=value`` header and its rows."""
    header, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if not sep:
                raise ValueError(f"bad header line {line!r}")
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"row has {len(cells)} cells, "
                                 f"expected {len(columns)}")
            rows.append(dict(zip(columns, cells)))
    if columns is None:
        raise ValueError("no column line")
    return header, rows


def _flag(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"not a boolean: {value!r}")
    return value == "true"


def _option(argv: list[str], name: str) -> list[str]:
    """Values following ``name`` up to the next flag."""
    i = argv.index(name) + 1
    values = []
    while i < len(argv) and not argv[i].startswith("--"):
        values.append(argv[i])
        i += 1
    return values


def _pair_tail(d: int, eps: float) -> float:
    """P(|<u|v>|^2 > eps) for independent Haar states in C^d: Beta(1, d-1)."""
    return (1.0 - eps) ** (d - 1)


def max_pairwise_range(d: int, m: int) -> tuple[float, float]:
    """Range that the largest of the M(M-1)/2 squared overlaps of M Haar
    states leaves with probability below IMPLAUSIBLE on either side.

    Above: union bound, (M^2/2)(1-x)^(d-1) = IMPLAUSIBLE. Below: the pair
    events are pairwise independent, so the count above y is close to
    Poisson and P(max < y) = exp(-C(M,2)(1-y)^(d-1)) = IMPLAUSIBLE.
    """
    hi = 1.0 - (IMPLAUSIBLE / (0.5 * m * m)) ** (1.0 / (d - 1))
    lo = 1.0 - (-math.log(IMPLAUSIBLE) / math.comb(m, 2)) ** (1.0 / (d - 1))
    return lo, hi


def _check_overlap_dist(argv, header, rows):
    d = int(_option(argv, "--d")[0])
    trials = int(_option(argv, "--trials")[0])
    alpha = float(_option(argv, "--alpha")[0]) if "--alpha" in argv else 0.01
    n = int(header["n_samples"])
    if n != trials:
        return f"{n} samples for --trials {trials}"
    binned = sum(int(row["count"]) for row in rows)
    if binned != n:
        return f"histogram holds {binned} of {n} samples"
    # asymptotic Kolmogorov critical value sqrt(ln(2/alpha)/2) / sqrt(n)
    critical = math.sqrt(0.5 * math.log(2.0 / alpha) / n)
    threshold = float(header["ks_threshold"])
    if not math.isclose(threshold, critical, rel_tol=1e-9):
        return f"KS threshold {threshold} != {critical} for n={n}"
    # Beta(1, d-1): variance (d-1) / (d^2 (d+1))
    se = math.sqrt((d - 1) / (d * d * (d + 1)) / n)
    mean_err = abs(float(header["empirical_mean"]) - 1.0 / d)
    ks = float(header["ks_statistic"])
    if mean_err > 6.0 * se:
        return f"mean off 1/d by {mean_err / se:.2f} standard errors"
    if ks > 1.5 * threshold:
        return f"KS statistic {ks} above 1.5 x threshold {threshold}"
    return None


def _check_decohere(argv, header, rows):
    dynamics = _option(argv, "--dynamics")[0]
    n = int(_option(argv, "--n")[0])
    trials = int(_option(argv, "--trials")[0])
    thetas = ([float(t) for t in _option(argv, "--theta")]
              if dynamics == "integrable" else None)
    k = len(thetas) if thetas else int(_option(argv, "--k")[0])
    if (int(header["trials"]), int(header["pointer_count"])) != (trials, k):
        return (f"{header['trials']} trials of {header['pointer_count']} "
                f"pointers, expected {trials} of {k}")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    expected = [(str(t), f"{i}-{j}") for t in range(trials) for i, j in pairs]
    if [(row["trial"], row["pair"]) for row in rows] != expected:
        return f"{len(rows)} rows, expected {trials} trials x {len(pairs)} pairs"
    overlaps = [float(row["squared_overlap"]) for row in rows]
    if thetas is None:
        ratio = float(header["typicality_ratio"])
        # mean pair overlap times d_eff = 2^n, recomputed from the rows
        from_rows = math.fsum(overlaps) / len(overlaps) * 2 ** n
        if not math.isclose(ratio, from_rows, rel_tol=1e-9):
            return f"typicality_ratio {ratio} != {from_rows} from the rows"
        if not 0.5 <= ratio <= 1.5:
            return f"typicality_ratio {ratio} outside [0.5, 1.5]"
        return None
    for got, (_, pair) in zip(overlaps, expected):
        i, j = (int(p) for p in pair.split("-"))
        exact = math.cos((thetas[j] - thetas[i]) / 2.0) ** (2 * n)
        if abs(got - exact) > 1e-12:
            return f"pair {i}-{j} overlap {got} != cos^2n = {exact}"
    return None


def _check_rate_experiment(argv, header, row, d, eps, m):
    trials = int(_option(argv, "--trials")[0])
    if (int(row["d"]), float(row["eps"]), int(row["M"]),
            int(row["trials"])) != (d, eps, m, trials):
        return f"row {row} does not match d={d} eps={eps} M={m} trials={trials}"
    match = re.search(r"failed (\d+)/(\d+)", header["description"])
    failed, ran = int(match[1]), int(match[2])
    if ran != trials:
        return f"ran {ran} trials for --trials {trials}"
    if float(row["failure_fraction"]) != failed / ran:
        return f"failure_fraction {row['failure_fraction']} != {failed}/{ran}"
    # Pair events are pairwise independent, so the failure probability is
    # 1 - exp(-C(M,2) p) up to a Chen-Stein error far below 0.01.
    p = 1.0 - math.exp(-math.comb(m, 2) * _pair_tail(d, eps))
    se = math.sqrt(p * (1.0 - p) / trials)
    if abs(failed / ran - p) > 6.0 * se + 0.01:
        return f"failure fraction {failed / ran} is not near {p:.4f}"
    return None if _flag(row["pass"]) else "rate experiment did not pass"


def _check_packing(argv, header, rows):
    (row,) = rows
    d = int(_option(argv, "--d")[0])
    eps = float(_option(argv, "--eps")[0])
    m = int(_option(argv, "--M")[0])
    if "pass" in row:
        return _check_rate_experiment(argv, header, row, d, eps, m)
    if (int(row["d"]), float(row["eps"]), int(row["M_requested"])) != (d, eps, m):
        return f"row {row} does not match d={d} eps={eps} M={m}"
    max_pairwise = float(row["max_pairwise"])
    if "size" in row:  # greedy: every accepted pair is certified <= eps
        if int(row["size"]) != m or not _flag(row["success"]):
            return f"greedy build reached size {row['size']} of {m}"
        if max_pairwise > eps:
            return f"max_pairwise {max_pairwise} > eps {eps}"
        return None
    lo, hi = max_pairwise_range(d, m)
    if not lo <= max_pairwise <= hi:
        return (f"max_pairwise {max_pairwise} of {m} Haar states outside "
                f"[{lo:.4f}, {hi:.4f}]")
    if _flag(row["success"]):
        return None if max_pairwise <= eps else \
            f"success but max_pairwise {max_pairwise} > eps {eps}"
    # a chance failure: the first pair above eps is a real pair
    i, j = (int(p) for p in row["failure_pair"].split("-"))
    if max_pairwise <= eps or not 0 <= i < j < m:
        return f"failure at pair {i}-{j} with max_pairwise {max_pairwise}"
    return None


def _check_deff(argv, header, rows):
    expected = math.comb(SPECTRUM_QUBITS, SPECTRUM_QUBITS // 2)
    if int(header["d_eff"]) != expected:
        return f"d_eff {header['d_eff']} != C(20, 10) = {expected}"
    return None


_CHECKS = {
    "overlap-dist": _check_overlap_dist,
    "decohere": _check_decohere,
    "packing": _check_packing,
    "deff": _check_deff,
}


def _chance_failure(argv, header, rows):
    """Why correct code may exit 1 with this output, else None.

    A KS rejection happens for 1% of seeds at alpha = 0.01. A single
    random-coding build fails with at most the union-bound probability
    (about 0.3% at d=64, eps=0.3, M=6000). The invocation's own check
    still applies, and bounds how far such an outcome may go.
    """
    if argv[0] == "overlap-dist" and not _flag(header["ks_pass"]):
        return "KS rejected"
    if (argv[:2] == ["packing", "build"] and "--trials" not in argv
            and "--method" not in argv and not _flag(rows[0]["success"])):
        return "random-coding build found a pair above eps"
    return None


def check(argv: list[str], exit_code: int, text: str) -> tuple[str, str]:
    """Classify one invocation as OK, STAT_FAIL or FAIL, with a reason.

    Exit 1 is STAT_FAIL, not a failure, only where correct code reaches it
    by chance (see _chance_failure) and the output passes its check.
    """
    if exit_code not in (0, 1):
        return FAIL, f"exit code {exit_code}"
    try:
        header, rows = parse_csv(text)
        chance = _chance_failure(argv, header, rows)
        if (exit_code == 1) != (chance is not None):
            return FAIL, f"exit code {exit_code} with {chance or 'no chance failure'}"
        problem = _CHECKS[argv[0]](argv, header, rows)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return FAIL, f"output does not parse: {exc!r}"
    if problem:
        return FAIL, problem
    return (STAT_FAIL, chance) if chance else (OK, "")
