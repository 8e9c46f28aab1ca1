"""Golden outputs of the README reference invocations.

Each fixture in ``fixtures/`` holds the parsed summary and rows that
``quasiortho.cli.main`` wrote for one command line, its exit code, the
argv used and the numpy version that made it (numpy fixes the PCG64 and
normal-draw streams). Numeric cells are compared at rtol 1e-12, so a
changed draw order or formula fails while a last-bit BLAS difference
does not; every other cell is compared exactly. Provenance is left out
except ``seed`` and ``param_*``. On another numpy version the cases
skip.

Re-record (only for an intended and documented output change) with::

    PYTHONPATH=src python tests/golden/test_golden.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from quasiortho.cli import main

FIXTURES = Path(__file__).with_name("fixtures")
RTOL = 1e-12
# argv placeholders for files the test writes itself
SPECTRUM = "{spectrum}"
FAMILY_CSV = "{family_csv}"

CASES = {
    "overlap_dist": ["overlap-dist", "--d", "1024", "--trials", "10000",
                     "--seed", "7"],
    "levy_check_grid": ["levy-check"],
    "levy_check_point": ["levy-check", "--d", "16", "--delta", "0.5"],
    "packing_bound_d": ["packing", "bound", "--d", "100", "--eps", "0.1"],
    "packing_bound_qubits": ["packing", "bound", "--qubits", "20",
                             "--eps", "0.1"],
    "packing_build_rate": ["packing", "build", "--d", "100", "--eps", "0.1",
                           "--M", "111", "--trials", "200", "--seed", "3"],
    "packing_build_greedy": ["packing", "build", "--d", "64", "--eps", "0.2",
                             "--M", "50", "--method", "greedy", "--seed", "1",
                             "--family-csv", FAMILY_CSV],
    "decohere_exact_haar": ["decohere", "--n", "10", "--k", "2", "--dynamics",
                            "exact-haar", "--trials", "200", "--seed", "11"],
    "decohere_integrable": ["decohere", "--n", "10", "--dynamics",
                            "integrable", "--theta", "0.0", "0.2",
                            "--seed", "11"],
    "decohere_chaotic": ["decohere", "--n", "4", "--k", "2", "--dynamics",
                         "chaotic-circuit", "--trials", "30", "--seed", "11"],
    "deff": ["deff", "--spectrum", SPECTRUM, "--energy", "6", "--width", "1"],
}


def _write_spectrum(path: Path) -> None:
    """2**12 levels of 12 non-interacting qubits: energy = popcount."""
    levels = sorted(bin(i).count("1") for i in range(2 ** 12))
    path.write_text("".join(f"{e}\n" for e in levels), encoding="utf-8")


def _parse_family_csv(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = dict(item.split("=", 1) for item in lines[0][2:].split())
    return {
        "header": {k: float(v) if v else None for k, v in header.items()},
        "columns": lines[1].split(","),
        "rows": [[float(c) for c in ln.split(",")] for ln in lines[2:]],
    }


def run_case(argv: list, workdir: Path) -> dict:
    """Run one command line and return its parsed, comparable output."""
    paths = {SPECTRUM: workdir / "levels.txt",
             FAMILY_CSV: workdir / "family.csv"}
    if SPECTRUM in argv:
        _write_spectrum(paths[SPECTRUM])
    out = workdir / "out.json"
    real = [str(paths.get(a, a)) for a in argv]
    code = main(real + ["--format", "json", "--output", str(out),
                        "--no-timestamp"])
    obj = json.loads(out.read_text(encoding="utf-8"))
    back = {str(p): token for token, p in paths.items()}
    prov = {k: back.get(v, v) if isinstance(v, str) else v
            for k, v in obj["provenance"].items()
            if k == "seed" or k.startswith("param_")}
    result = {
        "argv": list(argv),
        "numpy": np.__version__,
        "exit_code": code,
        "provenance": prov,
        "summary": obj["summary"],
        "columns": obj["columns"],
        "rows": [[row[c] for c in obj["columns"]] for row in obj["rows"]],
    }
    if FAMILY_CSV in argv:
        result["family_csv"] = _parse_family_csv(paths[FAMILY_CSV])
    return result


def assert_same(expected, actual, where: str = "") -> None:
    """Numbers (not bools) at rtol 1e-12; everything else exactly."""
    def is_num(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if is_num(expected) and is_num(actual):
        assert math.isclose(expected, actual, rel_tol=RTOL, abs_tol=0.0), \
            f"{where}: {actual!r} != {expected!r} at rtol {RTOL}"
    elif isinstance(expected, dict) and isinstance(actual, dict):
        assert sorted(expected) == sorted(actual), \
            f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            assert_same(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        assert len(expected) == len(actual), \
            f"{where}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{i}]")
    else:
        assert type(expected) is type(actual) and expected == actual, \
            f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    if expected["numpy"] != np.__version__:
        pytest.skip(f"fixture made with numpy {expected['numpy']}, "
                    f"running numpy {np.__version__}")
    assert expected["argv"] == CASES[name]
    actual = run_case(CASES[name], tmp_path)
    assert_same(expected, actual, name)


def _record() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            result = run_case(argv, Path(tmp))
        text = json.dumps(result, indent=1, sort_keys=True) + "\n"
        (FIXTURES / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    _record()
