import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasiortho.cli
import quasiortho.effective_dim
import quasiortho.limits
import quasiortho.overlap
import quasiortho.packing
import quasiortho.states
from quasiortho import RngStream, greedy_construct, wilson_interval
from quasiortho.cli import _fmt_cell, main


def run_cli(args, capsys=None):
    code = main(args)
    out = capsys.readouterr().out if capsys is not None else None
    return code, out


class TestOverlapDist:
    def test_csv_run_passes(self, capsys):
        code, out = run_cli(["overlap-dist", "--d", "1024", "--trials", "2000",
                             "--seed", "7", "--no-timestamp"], capsys)
        assert code == 0
        lines = out.splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert "empirical_density" in header and "analytic_pdf" in header
        assert any(ln.startswith("# ks_pass=true") for ln in lines)

    def test_dimension_over_the_state_cap_is_resource_error(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(quasiortho.limits, "MAX_STATE_DIM", 64)
        out = tmp_path / "out.csv"
        assert main(["overlap-dist", "--d", "65", "--trials", "100",
                     "--seed", "1", "--output", str(out)]) == 3
        assert not out.exists()

    def test_json_format(self, capsys):
        code, out = run_cli(["overlap-dist", "--d", "64", "--trials", "500",
                             "--seed", "3", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["provenance"]["seed"] == 3
        assert obj["provenance"]["version"]
        assert obj["summary"]["ks_pass"] is True
        assert len(obj["rows"]) == 64  # default bins

    def test_d_below_two_is_usage_error(self, capsys):
        code, _ = run_cli(["overlap-dist", "--d", "1", "--seed", "1"], capsys)
        assert code == 2

    def test_thirty_trials_run_the_ks_test(self, capsys):
        # the KS threshold holds at every n, so --trials need only be >= 1
        code, out = run_cli(["overlap-dist", "--d", "16", "--trials", "30",
                             "--bins", "10", "--seed", "1", "--format",
                             "json", "--no-timestamp"], capsys)
        summary = json.loads(out)["summary"]
        assert summary["n_samples"] == 30
        assert code == (0 if summary["ks_pass"] else 1)

    @pytest.mark.parametrize("flag", [["--alpha", "nan"], ["--trials", "0"]])
    def test_bad_ks_input_is_rejected_before_sampling(self, flag, monkeypatch):
        calls = []
        monkeypatch.setattr("quasiortho.overlap.sample_overlaps",
                            lambda *a: calls.append(a))
        assert main(["overlap-dist", "--d", "1024", "--seed", "1",
                     "--no-timestamp"] + flag) == 2
        assert calls == []

    def test_bins_above_trials_is_usage_error_before_drawing(
            self, monkeypatch, capsys):
        draws = []
        real = quasiortho.overlap.complex_gaussians
        monkeypatch.setattr(quasiortho.overlap, "complex_gaussians",
                            lambda *a: draws.append(a) or real(*a))
        argv = ["overlap-dist", "--d", "2", "--trials", "100", "--seed", "1",
                "--format", "json", "--no-timestamp", "--bins"]
        for bins in ("101", "1000000000000"):
            assert main(argv + [bins]) == 2
        assert draws == []
        capsys.readouterr()
        code, out = run_cli(argv + ["100"], capsys)
        assert code in (0, 1) and draws
        assert len(json.loads(out)["rows"]) == 100

    def test_unseeded_run_records_drawn_seed(self, capsys):
        argv = ["overlap-dist", "--d", "16", "--trials", "200",
                "--no-timestamp"]
        code, out = run_cli(argv, capsys)
        # the KS check rejects about 1% of fresh seeds, by design
        lines = out.splitlines()
        assert code == (0 if "# ks_pass=true" in lines else 1)
        seed_lines = [ln for ln in lines if ln.startswith("# seed=")]
        assert len(seed_lines) == 1
        seed = seed_lines[0].split("=", 1)[1]
        assert int(seed) >= 0
        # the recorded seed reproduces the run
        assert run_cli(argv + ["--seed", seed], capsys) == (code, out)

    def test_alpha_below_two_over_float_max(self, capsys):
        # 2 / alpha overflows; the threshold must still be finite
        code, out = run_cli(["overlap-dist", "--d", "16", "--trials", "200",
                             "--seed", "1", "--alpha", "1e-320",
                             "--format", "json", "--no-timestamp"], capsys)
        summary = json.loads(out)["summary"]
        assert code == (0 if summary["ks_pass"] else 1)
        assert math.isfinite(summary["ks_threshold"])

    def test_reference_invocation_full_size(self, capsys):
        # the documented reference run: 1e5 samples at d=1024
        code, out = run_cli(["overlap-dist", "--d", "1024", "--trials",
                             "100000", "--seed", "7", "--format", "csv",
                             "--no-timestamp"], capsys)
        assert code == 0
        assert any(ln.startswith("# ks_pass=true") for ln in out.splitlines())


class TestLevyCheck:
    def test_default_grid_passes(self, capsys):
        code, out = run_cli(["levy-check", "--no-timestamp"], capsys)
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 25  # 5 x 5 grid

    def test_vacuous_row_present(self, capsys):
        _, out = run_cli(["levy-check", "--format", "json",
                          "--no-timestamp"], capsys)
        rows = json.loads(out)["rows"]
        target = [r for r in rows if r["d"] == 1024 and r["delta"] == 0.1]
        assert len(target) == 1
        assert target[0]["vacuous"] is True
        assert target[0]["ok"] is True

    def test_single_point_mode(self, capsys):
        code, out = run_cli(["levy-check", "--d", "16", "--delta", "0.5",
                             "--no-timestamp"], capsys)
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 1

    def test_half_specified_point_is_usage_error(self, capsys):
        code, _ = run_cli(["levy-check", "--d", "16"], capsys)
        assert code == 2

    def test_delta_whose_square_overflows(self, capsys):
        code, out = run_cli(["levy-check", "--d", "16", "--delta", "1e200",
                             "--no-timestamp"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "16,1e+200,0.0,0.0,false,true"


class TestPackingBound:
    def test_prints_111(self, capsys):
        code, out = run_cli(["packing", "bound", "--d", "100", "--eps", "0.1",
                             "--no-timestamp"], capsys)
        assert code == 0
        assert any(ln.startswith("# lower_bound=111") for ln in out.splitlines())

    def test_qubit_mode_log_bound(self, capsys):
        code, out = run_cli(["packing", "bound", "--qubits", "20",
                             "--eps", "0.1", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["summary"]["log_lower_bound"] - 55238.701353) < 1e-3
        assert obj["rows"][0]["lower_bound"] is None  # beyond float range
        assert obj["summary"]["lower_bound"] is None

    def test_qubit_mode_summary_carries_the_lower_bound(self, capsys):
        lines = []
        for argv in (["--qubits", "5"], ["--d", "32"]):
            code, out = run_cli(["packing", "bound", *argv, "--eps", "0.3",
                                 "--no-timestamp"], capsys)
            assert code == 0
            lines.append([ln for ln in out.splitlines()
                          if ln.startswith("# lower_bound=")])
        assert lines == [["# lower_bound=152"]] * 2

    def test_requires_exactly_one_of_d_and_qubits(self, capsys):
        code, _ = run_cli(["packing", "bound", "--eps", "0.1"], capsys)
        assert code == 2
        code, _ = run_cli(["packing", "bound", "--d", "4", "--qubits", "2",
                           "--eps", "0.1"], capsys)
        assert code == 2


class TestPackingBuild:
    def test_success_rate_run(self, capsys):
        code, out = run_cli(["packing", "build", "--d", "100", "--eps", "0.1",
                             "--M", "111", "--trials", "200", "--seed", "3",
                             "--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["success_fraction"] >= 0.74
        assert obj["summary"]["pass"] is True

    def test_single_build_success(self, capsys):
        code, out = run_cli(["packing", "build", "--d", "64", "--eps", "0.5",
                             "--M", "5", "--seed", "4", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["success"] is True
        assert obj["summary"]["max_pairwise"] <= 0.5

    def test_impossible_build_fails_with_exit_1(self, capsys):
        code, out = run_cli(["packing", "build", "--d", "4", "--eps", "1e-06",
                             "--M", "50", "--seed", "5", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 1
        obj = json.loads(out)
        assert obj["summary"]["success"] is False
        assert obj["summary"]["failure_pair"] == "0-1"

    def test_greedy_build_and_family_export(self, capsys, tmp_path):
        fam_path = tmp_path / "family.csv"
        code, out = run_cli(["packing", "build", "--d", "32", "--eps", "0.3",
                             "--M", "10", "--method", "greedy", "--seed", "6",
                             "--family-csv", str(fam_path), "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        assert json.loads(out)["summary"]["size"] == 10
        lines = fam_path.read_text().splitlines()
        header = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        assert header["seed"] == "6"
        assert header["command"] == "packing build"
        table = lines[len(header):]
        assert table[0] == ",".join(f"re{k},im{k}" for k in range(32))
        # the CLI's default attempt budget is 100 * M
        family = greedy_construct(32, 0.3, 10, 1000, RngStream(6))
        cells = np.array([[float(c) for c in ln.split(",")] for ln in table[1:]])
        rebuilt = cells[:, 0::2] + 1j * cells[:, 1::2]
        assert np.allclose(rebuilt, family.rows, rtol=0, atol=1e-15)

    def test_greedy_family_csv_carries_the_output_provenance(self, tmp_path):
        # with the timestamp kept: the two files share one provenance dict
        fam_path, out_path = tmp_path / "family.csv", tmp_path / "out.csv"
        code = main(["packing", "build", "--d", "16", "--eps", "0.5",
                     "--M", "4", "--method", "greedy", "--seed", "2",
                     "--family-csv", str(fam_path), "--output", str(out_path)])
        assert code == 0
        summaries = {"family": ("dim", "eps", "size", "max_pairwise"),
                     "out": ("success", "size", "max_pairwise")}
        provs = {}
        for name, path in (("family", fam_path), ("out", out_path)):
            lines = path.read_text().splitlines()
            provs[name] = [ln for ln in lines if ln.startswith("# ")
                           and ln[2:].split("=")[0] not in summaries[name]]
        assert provs["family"] == provs["out"]
        assert any(ln.startswith("# timestamp=") for ln in provs["out"])
        assert "# command=packing build" in provs["out"]

    @pytest.mark.parametrize("failures, trials, ub", [
        (7, 30, 0.01), (9, 30, 0.05), (12, 200, 0.01), (10, 1000, 0.001)])
    def test_rate_count_unlikely_under_the_bound_exits_1(
            self, failures, trials, ub, monkeypatch, capsys):
        # the union bound plus three standard errors of the observed rate
        # passed each count, though each is less likely than alpha under
        # the bound; scipy is the oracle where it is installed
        binom = pytest.importorskip("scipy.stats").binom
        p = failures / trials
        assert p <= ub + 3.0 * math.sqrt(p * (1.0 - p) / trials)
        packing = quasiortho.packing
        calls = itertools.count()
        monkeypatch.setattr(packing, "union_bound_failure", lambda *a: ub)
        monkeypatch.setattr(packing, "_pairwise_stats", lambda mat, eps: (
            1.0 if next(calls) < failures else 0.0, None))
        code, out = run_cli(["packing", "build", "--d", "2", "--eps", "0.5",
                             "--M", "2", "--trials", str(trials), "--seed",
                             "1", "--format", "json", "--no-timestamp"],
                            capsys)
        assert code == 1
        obj = json.loads(out)
        assert obj["columns"] == ["d", "eps", "M", "trials",
                                  "failure_fraction", "success_fraction",
                                  "tail_probability", "pass"]
        row = obj["rows"][0]
        assert row["failure_fraction"] == p
        assert row["pass"] is False and obj["summary"]["pass"] is False
        assert f"failed {failures}/{trials}" in obj["summary"]["description"]
        tail = float(binom.sf(failures - 1, trials, ub))
        assert tail < packing._ALPHA_3SIGMA
        assert math.isclose(row["tail_probability"], tail, rel_tol=1e-9)

    def test_rate_experiment_over_a_cap_is_resource_error(self, monkeypatch):
        # 3 vectors at d=16 are 144 pair ops
        monkeypatch.setattr(quasiortho.limits, "MAX_PAIRWISE_OPS", 100)
        assert main(["packing", "build", "--d", "16", "--eps", "0.9",
                     "--M", "3", "--trials", "30", "--seed", "1",
                     "--no-timestamp"]) == 3

    def test_rate_trials_over_the_sample_cap_exit_3(self, monkeypatch):
        monkeypatch.setattr(quasiortho.limits, "MAX_SAMPLE_COUNT", 1000)
        assert main(["packing", "build", "--d", "2", "--eps", "0.5",
                     "--M", "2", "--trials", "1001", "--seed", "1",
                     "--no-timestamp"]) == 3


class TestDecohere:
    def test_exact_haar_summary(self, capsys):
        code, out = run_cli(["decohere", "--n", "6", "--k", "2",
                             "--dynamics", "exact-haar", "--trials", "40",
                             "--seed", "11", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        obj = json.loads(out)
        s = obj["summary"]
        assert s["d_eff"] == 64
        assert s["amplitude_scale"] == 0.125
        assert 0.3 < s["typicality_ratio"] < 3.0
        assert len(obj["rows"]) == 40

    def test_reference_invocation_full_size(self, capsys):
        # the documented reference run: n=10, 200 trials; summary mean
        # within 5 SE of 2^-10
        code, out = run_cli(["decohere", "--n", "10", "--k", "2",
                             "--dynamics", "exact-haar", "--trials", "200",
                             "--seed", "11", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        s = json.loads(out)["summary"]
        se = math.sqrt(s["var_overlap_sq"] / 200)
        assert abs(s["mean_overlap_sq"] - 2.0 ** -10) < 5 * se

    def test_integrable_control_flags_atypical(self, capsys):
        code, out = run_cli(["decohere", "--n", "10", "--dynamics",
                             "integrable", "--theta", "0.0", "0.2",
                             "--trials", "30", "--seed", "12",
                             "--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        s = json.loads(out)["summary"]
        assert abs(s["typicality_ratio"] - 1024 * math.cos(0.1) ** 20) < 1e-6
        assert s["atypical"] is True

    def test_k_one_is_usage_error(self, capsys):
        code, _ = run_cli(["decohere", "--n", "4", "--k", "1",
                           "--seed", "1"], capsys)
        assert code == 2

    def test_env_too_large_is_resource_error(self, capsys):
        code, _ = run_cli(["decohere", "--n", "20", "--k", "2",
                           "--seed", "1"], capsys)
        assert code == 3

    def test_huge_env_is_resource_error_naming_the_cap(self, capsys):
        # 2**20000 has 6021 digits, past int-to-str's default limit, so
        # the cap must be checked without forming it
        assert main(["decohere", "--n", "20000", "--k", "2",
                     "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert "2**20000" in err and "MAX_STATE_DIM" in err

    def test_huge_depth_is_resource_error(self, capsys):
        assert main(["decohere", "--n", "2", "--dynamics", "chaotic-circuit",
                     "--depth", "1000000000", "--seed", "1"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_trials_over_the_sample_cap_exit_3_before_drawing(
            self, monkeypatch, tmp_path):
        draws = []
        real = quasiortho.states.complex_gaussians
        monkeypatch.setattr(quasiortho.states, "complex_gaussians",
                            lambda *a: draws.append(a) or real(*a))
        # 1001 trials of k=2 records hold 1001 pair overlaps
        monkeypatch.setattr(quasiortho.limits, "MAX_SAMPLE_COUNT", 1000)
        out = tmp_path / "out.csv"
        assert main(["decohere", "--n", "4", "--k", "2", "--trials", "1001",
                     "--seed", "1", "--output", str(out),
                     "--no-timestamp"]) == 3
        assert draws == []
        assert not out.exists()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "pointer_count": 2,
            "coefficients": [0.8, 0.6],
            "env_qubits": 4,
            "dynamics": "exact-haar",
        }))
        code, out = run_cli(["decohere", "--config", str(cfg), "--trials", "30",
                             "--seed", "13", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        assert json.loads(out)["summary"]["env_qubits"] == 4

    @staticmethod
    def provenance(argv, capsys):
        code, out = run_cli(["decohere", "--trials", "30", "--seed", "1",
                             "--format", "json", "--no-timestamp"] + argv,
                            capsys)
        assert code == 0
        return json.loads(out)["provenance"]

    def test_coeffs_are_recorded(self, capsys):
        # the amplitudes change the coherences, so they must change the
        # provenance too
        base = ["--n", "4", "--k", "2"]
        uniform = self.provenance(base, capsys)
        given = self.provenance(base + ["--coeffs", "0.6", "0.8"], capsys)
        assert given["param_coeffs"] == [0.6, 0.8]
        assert self.provenance(base + ["--coeffs", "0.8", "0.6"],
                               capsys)["param_coeffs"] == [0.8, 0.6]
        assert {k: v for k, v in given.items() if k != "param_coeffs"} \
            == uniform

    def test_runs_without_model_inputs_keep_their_keys(self, capsys):
        prov = self.provenance(["--n", "4", "--k", "2"], capsys)
        assert sorted(prov) == [
            "command", "numpy", "param_depth", "param_dynamics", "param_k",
            "param_n", "param_theta", "param_trials", "python", "seed",
            "version"]

    def test_config_bytes_are_recorded(self, capsys, tmp_path):
        # env_initial is not among the other param_* keys; the hash of
        # the file's bytes covers it
        model = {"pointer_count": 2, "coefficients": [0.8, 0.6],
                 "env_qubits": 2, "dynamics": "chaotic-circuit"}
        hashes = []
        for name, initial in [("e0", [1, 0, 0, 0]), ("e1", [0, 1, 0, 0])]:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(dict(model, env_initial=initial)))
            prov = self.provenance(["--config", str(cfg)], capsys)
            assert prov["param_config_sha256"] == \
                hashlib.sha256(cfg.read_bytes()).hexdigest()
            assert "param_coeffs" not in prov
            hashes.append(prov["param_config_sha256"])
        assert hashes[0] != hashes[1]


    @pytest.mark.parametrize("config, key", [
        ({"coefficients": [0.8, 0.6], "env_qubits": 4,
          "dynamics": "exact-haar"}, "pointer_count"),
        ([2, [0.8, 0.6], 4, "exact-haar"], "JSON object"),
        ({"pointer_count": 2, "coefficients": [0.8, 0.6], "env_qubits": 4,
          "dynamics": "integrable-product", "thetas": 0.5}, "thetas"),
        ({"pointer_count": 2, "coefficients": 0.8, "env_qubits": 4,
          "dynamics": "exact-haar"}, "coefficients"),
        ({"pointer_count": None, "coefficients": [0.8, 0.6], "env_qubits": 4,
          "dynamics": "exact-haar"}, "pointer_count"),
        ({"pointer_count": 2, "coefficients": [{}, 0.6], "env_qubits": 4,
          "dynamics": "exact-haar"}, "coefficients"),
        ({"pointer_count": 2, "coefficients": [0.8, 0.6], "env_qubits": 4,
          "dynamics": "chaotic-circuit", "depht": 1}, "depht"),
        ({"pointer_count": "2", "coefficients": [0.8, 0.6], "env_qubits": 4,
          "dynamics": "exact-haar"}, "pointer_count"),
        ({"pointer_count": 2, "coefficients": [0.8, 0.6], "env_qubits": True,
          "dynamics": "exact-haar"}, "env_qubits"),
        ({"pointer_count": 2, "coefficients": ["0.8", 0.6], "env_qubits": 4,
          "dynamics": "exact-haar"}, "coefficients"),
        ({"pointer_count": 2, "coefficients": [0.8, 0.6], "env_qubits": 4,
          "dynamics": "integrable-product", "thetas": [0.0, 10 ** 400]},
         "theta"),
        ({"pointer_count": 2, "coefficients": [0.8, [10 ** 400, 0]],
          "env_qubits": 4, "dynamics": "exact-haar"}, "coefficients"),
        ({"pointer_count": 2, "coefficients": [0.8, 0.6], "env_qubits": 2,
          "dynamics": "exact-haar", "env_initial": [0.6, 0, 0, [0, 0.8]]},
         "env_initial"),
    ], ids=["missing-key", "array", "scalar-thetas", "scalar-coefficients",
            "null-count", "object-coefficient", "unknown-key", "string-count",
            "boolean-env-qubits", "string-coefficient", "huge-theta",
            "huge-coefficient", "exact-haar-env-initial"])
    def test_malformed_config_is_usage_error(self, config, key, capsys,
                                             tmp_path):
        # exit 1 means a failed statistical test, so a bad config must
        # not reach it through an uncaught KeyError or TypeError
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code = main(["decohere", "--config", str(cfg), "--trials", "30",
                     "--seed", "13", "--no-timestamp"])
        assert code == 2
        assert key in capsys.readouterr().err


class TestDeff:
    def test_four_level_window(self, capsys, tmp_path):
        spec = tmp_path / "levels.txt"
        spec.write_text("0\n1\n2\n3\n")
        code, out = run_cli(["deff", "--spectrum", str(spec), "--energy", "0.5",
                             "--width", "2.0", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        s = json.loads(out)["summary"]
        assert s["d_eff"] == 2
        assert abs(s["entropy"] - math.log(2)) < 1e-12

    def test_empty_window_warns_and_omits_entropy(self, capsys, tmp_path):
        spec = tmp_path / "levels.txt"
        spec.write_text("0\n1\n")
        code, out = run_cli(["deff", "--spectrum", str(spec), "--energy", "5.0",
                             "--width", "1.0", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["d_eff"] == 0
        assert "zero-shell" in obj["summary"]["warning"]
        assert obj["rows"][0]["entropy"] is None

    def test_popcount_spectrum_window(self, capsys, tmp_path):
        from quasiortho import noninteracting_qubit_spectrum
        spec = tmp_path / "popcount.json"
        energies = noninteracting_qubit_spectrum(12).energies
        spec.write_text(json.dumps(list(energies)))
        code, out = run_cli(["deff", "--spectrum", str(spec), "--energy", "6",
                             "--width", "1", "--format", "json",
                             "--no-timestamp"], capsys)
        assert code == 0
        assert json.loads(out)["summary"]["d_eff"] == 924

    def test_unsorted_file_is_exit_3(self, capsys, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text("3\n1\n2\n")
        code, _ = run_cli(["deff", "--spectrum", str(spec), "--energy", "0",
                           "--width", "1"], capsys)
        assert code == 3

    @pytest.mark.parametrize("text", [
        "[false, true, true]", '["1", "2.5"]', '[{"a": 1}]',
        "[" + "9" * 400 + "]",
    ], ids=["bools", "strings", "object", "big-int"])
    def test_json_spectrum_of_non_numbers_is_exit_3(self, text, capsys,
                                                    tmp_path):
        # exit 1 means a failed statistical test, so a bad item must not
        # reach it through an uncaught TypeError or OverflowError
        spec = tmp_path / "levels.json"
        spec.write_text(text)
        code, out = run_cli(["deff", "--spectrum", str(spec), "--energy", "0",
                             "--width", "3"], capsys)
        assert code == 3
        assert out == ""

    def deff_bytes(self, spec, capsys):
        code, out = run_cli(["deff", "--spectrum", str(spec), "--energy", "0",
                             "--width", "2", "--no-timestamp"], capsys)
        assert code == 0
        return out

    def test_same_spectrum_at_two_paths_gives_same_bytes(self, capsys,
                                                          tmp_path):
        # the provenance records the spectrum's content, not its path
        first, second = tmp_path / "a.txt", tmp_path / "b" / "levels.txt"
        second.parent.mkdir()
        for spec in (first, second):
            spec.write_text("0\n1\n1\n2\n")
        assert self.deff_bytes(first, capsys) == \
            self.deff_bytes(second, capsys)

    def test_other_spectrum_at_one_path_gives_other_hash(self, capsys,
                                                         tmp_path):
        spec = tmp_path / "levels.txt"
        hashes = []
        for text in ("0\n1\n1\n2\n", "0\n1\n1\n1\n"):
            spec.write_text(text)
            code, out = run_cli(["deff", "--spectrum", str(spec),
                                 "--energy", "0", "--width", "2",
                                 "--format", "json", "--no-timestamp"], capsys)
            assert code == 0
            prov = json.loads(out)["provenance"]
            assert prov["param_spectrum_sha256"] == \
                hashlib.sha256(text.encode()).hexdigest()
            assert "param_spectrum" not in prov
            hashes.append(prov["param_spectrum_sha256"])
        assert hashes[0] != hashes[1]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="reads the spectrum from /dev/stdin")
    def test_piped_spectrum_gives_the_bytes_of_the_file_run(self, tmp_path):
        # the spectrum is read once: a pipe has no second read to hash
        data = b"0\r\n1\n1\n2\n"
        spec = tmp_path / "levels.txt"
        spec.write_bytes(data)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        runs = [subprocess.run([sys.executable, "-m", "quasiortho", "deff",
                                "--spectrum", path, "--energy", "0",
                                "--width", "2", "--no-timestamp"],
                               input=data, capture_output=True, env=env)
                for path in ("/dev/stdin", str(spec))]
        assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        sha = hashlib.sha256(data).hexdigest()
        assert f"# param_spectrum_sha256={sha}\n".encode() in runs[0].stdout

    @pytest.mark.parametrize("text", ["0\n1\n1\n2\n", "[0, 1, 1, 2]"],
                             ids=["lines", "json"])
    def test_byte_order_mark_is_skipped(self, text, capsys, tmp_path):
        # the provenance still hashes the raw bytes, the mark included
        spec = tmp_path / "levels.txt"
        outs = []
        for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
            spec.write_bytes(data)
            code, out = run_cli(["deff", "--spectrum", str(spec),
                                 "--energy", "0", "--width", "2",
                                 "--format", "json", "--no-timestamp"], capsys)
            assert code == 0
            obj = json.loads(out)
            assert obj["provenance"]["param_spectrum_sha256"] == \
                hashlib.sha256(data).hexdigest()
            outs.append(obj["summary"])
        assert outs[0] == outs[1] and outs[0]["d_eff"] == 3

    def test_missing_file_is_exit_3(self, capsys, tmp_path):
        code, _ = run_cli(["deff", "--spectrum", str(tmp_path / "nope.txt"),
                           "--energy", "0", "--width", "1"], capsys)
        assert code == 3

    @pytest.mark.parametrize("text", [None, "0\n1\nfoo\n", "[0, 1",
                                      b"\xff\n"],
                             ids=["missing", "bad-line", "bad-json",
                                  "not-utf8"])
    def test_unreadable_spectrum_names_the_read_error(self, text, capsys,
                                                      tmp_path):
        spec = tmp_path / "levels.txt"
        if text is None:
            with pytest.raises(OSError) as err:
                open(spec, "rb")
        else:
            data = text if isinstance(text, bytes) else text.encode()
            spec.write_bytes(data)
            with pytest.raises(ValueError) as err:
                quasiortho.effective_dim.Spectrum.from_text(data.decode())
        code = main(["deff", "--spectrum", str(spec), "--energy", "0",
                     "--width", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: cannot read spectrum: {err.value}\n"

    def test_nonpositive_width_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "levels.txt"
        spec.write_text("0\n")
        code, _ = run_cli(["deff", "--spectrum", str(spec), "--energy", "0",
                           "--width", "0"], capsys)
        assert code == 2


class TestReproducibility:
    def test_identical_runs_byte_identical(self, tmp_path):
        args = ["overlap-dist", "--d", "128", "--trials", "500", "--seed",
                "42", "--no-timestamp"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_present_unless_suppressed(self, tmp_path):
        base = ["levy-check", "--d", "16", "--delta", "0.5"]
        with_ts = tmp_path / "ts.csv"
        without_ts = tmp_path / "nots.csv"
        assert main(base + ["--output", str(with_ts)]) == 0
        assert main(base + ["--no-timestamp", "--output", str(without_ts)]) == 0
        assert "# timestamp=" in with_ts.read_text()
        assert "timestamp" not in without_ts.read_text()

    def test_provenance_embedded(self, tmp_path):
        out = tmp_path / "o.json"
        main(["overlap-dist", "--d", "16", "--trials", "200", "--seed", "9",
              "--format", "json", "--no-timestamp", "--output", str(out)])
        prov = json.loads(out.read_text())["provenance"]
        assert prov["command"] == "overlap-dist"
        assert prov["seed"] == 9
        assert prov["param_d"] == 16
        assert prov["param_trials"] == 200
        assert prov["version"]

    def test_provenance_records_numpy_version_and_no_scipy(self, tmp_path):
        # numpy fixes the PCG64 and normal-draw streams; scipy decides no
        # output, so provenance does not record it
        out = tmp_path / "o.json"
        main(["levy-check", "--d", "16", "--delta", "0.5", "--format", "json",
              "--no-timestamp", "--output", str(out)])
        prov = json.loads(out.read_text())["provenance"]
        assert prov["numpy"] == np.__version__
        assert "scipy" not in prov

    def test_provenance_records_python_version(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["packing", "bound", "--d", "100", "--eps", "0.1",
              "--no-timestamp", "--output", str(out)])
        assert f"# python={platform.python_version()}\n" in out.read_text()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quasiortho.cli", "packing", "bound",
         "--d", "100", "--eps", "0.1", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "lower_bound=111" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["decohere", "--n", "4", "--dynamics", "exact-haar",
     "--theta", "0.1", "0.2"],
    ["decohere", "--n", "4", "--k", "2", "--dynamics", "chaotic-circuit",
     "--theta", "0.1", "0.2"],
    ["packing", "build", "--d", "16", "--eps", "0.5", "--M", "3",
     "--max-attempts", "7"],
    ["packing", "build", "--d", "16", "--eps", "0.5", "--M", "3",
     "--trials", "30", "--max-attempts", "7"],
    ["packing", "build", "--d", "16", "--eps", "0.5", "--M", "3",
     "--trials", "30", "--family-csv", "{family_csv}"],
    ["packing", "build", "--d", "16", "--eps", "0.5", "--M", "3",
     "--method", "greedy", "--max-attempts", "0"],
    ["decohere", "--config", "{config}", "--n", "9"],
    ["decohere", "--config", "{config}", "--k", "5"],
    ["decohere", "--config", "{config}", "--dynamics", "exact-haar"],
    ["decohere", "--config", "{config}", "--theta", "0.1", "0.2"],
    ["decohere", "--config", "{config}", "--depth", "3"],
    ["decohere", "--config", "{config}", "--coeffs", "0.8", "0.6"],
])
def test_flag_without_effect_is_usage_error_before_drawing(argv, monkeypatch,
                                                          tmp_path):
    draws = []
    real = quasiortho.states.complex_gaussians
    monkeypatch.setattr(quasiortho.states, "complex_gaussians",
                        lambda *a: draws.append(a) or real(*a))
    family_csv = tmp_path / "family.csv"
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"pointer_count": 2,
                                  "coefficients": [0.8, 0.6],
                                  "env_qubits": 4, "dynamics": "exact-haar"}))
    paths = {"{family_csv}": str(family_csv), "{config}": str(config)}
    argv = [paths.get(a, a) for a in argv]
    assert main(argv + ["--seed", "1", "--no-timestamp"]) == 2
    assert draws == []
    assert not family_csv.exists()


@pytest.mark.parametrize("argv", [
    ["packing", "bound", "--d", str(10 ** 400), "--eps", "0.1"],
    ["levy-check", "--d", str(10 ** 400), "--delta", "0.5"],
    ["packing", "build", "--d", "16", "--eps", "0.5", "--M", "3",
     "--trials", str(10 ** 400), "--seed", "1"],
], ids=["packing-bound-d", "levy-check-d", "packing-build-trials"])
def test_integer_beyond_the_float_range_is_usage_error(argv, capsys):
    # not exit 1 with an OverflowError: exit 1 means a failed statistical test
    assert main(argv + ["--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv, name", [
    (["packing", "build", "--d", "64", "--eps", "1e-15", "--M", "3",
      "--method", "greedy", "--max-attempts", "1000000000000"],
     "max_attempts"),
    (["decohere", "--n", "2", "--dynamics", "chaotic-circuit",
      "--depth", "1000000000"], "depth"),
    (["packing", "build", "--d", "2", "--eps", "0.5", "--M", "2",
      "--trials", "100000001"], "trials"),
    (["overlap-dist", "--d", "16", "--trials", "1000000000"], "--trials"),
], ids=["greedy-max-attempts", "circuit-depth", "rate-trials",
        "overlap-trials"])
def test_resource_error_names_what_passed_the_cap(argv, name, capsys):
    assert main(argv + ["--seed", "2", "--no-timestamp"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert name in lines[0] and "exceeds cap" in lines[0], lines
    assert lines[0].endswith(
        "(raise quasiortho.limits.MAX_SAMPLE_COUNT to override)"), lines


def test_unknown_flag_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "quasiortho.cli", "levy-check", "--bogus"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args):
    """``python -m quasiortho`` from the source tree, without installing."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "quasiortho", *args],
                          capture_output=True, text=True, env=env)


def test_import_loads_no_heavy_scipy_module():
    # scipy.stats alone took about 1 s of every CLI run's start-up; the
    # library needs no scipy module at all
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, quasiortho, quasiortho.cli; "
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "quasiortho.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    # wilson_interval imports statistics when called, not with the CLI
    assert "statistics" not in loaded


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with it unimportable, the CLI and
    # wilson_interval still work
    spectrum = tmp_path / "levels.txt"
    spectrum.write_text("0\n1\n1\n2\n")
    argvs = [
        ["overlap-dist", "--d", "16", "--trials", "200", "--seed", "9"],
        ["levy-check", "--d", "16", "--delta", "0.5"],
        ["packing", "bound", "--d", "100", "--eps", "0.1"],
        ["packing", "build", "--d", "16", "--eps", "0.5", "--M", "3",
         "--seed", "1"],
        ["decohere", "--n", "4", "--k", "2", "--trials", "30", "--seed", "1"],
        ["deff", "--spectrum", str(spectrum), "--energy", "1",
         "--width", "1"],
    ]
    code = f"""
import sys
sys.modules["scipy"] = None   # every import of scipy or scipy.* now fails
import quasiortho, quasiortho.cli
from quasiortho.overlap import wilson_interval
print(wilson_interval(3, 7, 0.05))
for i, argv in enumerate({argvs!r}):
    assert quasiortho.cli.main(argv + ["--output", f"out{{i}}.csv"]) == 0, argv
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{wilson_interval(3, 7, 0.05)}\n"
    assert len(list(tmp_path.glob("out*.csv"))) == len(argvs)


def test_module_entry_point_runs_from_source():
    proc = run_module("packing", "bound", "--d", "100", "--eps", "0.1",
                      "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    assert "lower_bound=111" in proc.stdout


def test_module_entry_point_bad_eps_is_usage_error():
    proc = run_module("packing", "bound", "--d", "100", "--eps", "nan")
    assert proc.returncode == 2
    assert "eps" in proc.stderr


needs_vmhwm = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="reads the peak resident set, VmHWM, of /proc/self/status")


def list_write(path, fmt, prov, summary, columns, rows):
    """Reference artifact writer: every line built in one list, then
    written at once. The streamed writer must match its bytes."""
    if fmt == "json":
        obj = {"provenance": prov, "summary": summary, "columns": columns,
               "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {k}={_fmt_cell(v)}" for k, v in sorted(prov.items())]
        lines += [f"# {k}={_fmt_cell(v)}" for k, v in sorted(summary.items())]
        lines.append(",".join(columns))
        lines += [",".join(_fmt_cell(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class TestStreamedWriter:
    @pytest.mark.parametrize("argv", [
        ["decohere", "--n", "3", "--k", "3", "--trials", "31", "--seed", "4"],
        ["decohere", "--n", "3", "--dynamics", "integrable", "--theta", "0",
         "0.5", "--trials", "30", "--seed", "4"],
        ["packing", "build", "--d", "8", "--eps", "0.6", "--M", "4",
         "--method", "greedy", "--seed", "2", "--family-csv", "{family}"],
        ["packing", "build", "--d", "16", "--eps", "0.6", "--M", "4",
         "--seed", "2", "--family-csv", "{family}"],
    ], ids=["exact-haar", "integrable", "greedy-family", "random-family"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_bytes_match_the_list_writer(self, argv, fmt, to_file, tmp_path,
                                         capsys, monkeypatch):
        outputs = []
        for name, writer in (("streamed", quasiortho.cli._write),
                             ("list", list_write)):
            monkeypatch.setattr(quasiortho.cli, "_write", writer)
            paths = {"{family}": str(tmp_path / f"{name}-family.csv")}
            args = [paths.get(a, a) for a in argv]
            args += ["--format", fmt, "--no-timestamp"]
            if to_file:
                args += ["--output", str(tmp_path / f"{name}.out")]
            assert main(args) == 0
            out = capsys.readouterr().out
            if to_file:
                assert out == ""
                out = (tmp_path / f"{name}.out").read_text()
            family = tmp_path / f"{name}-family.csv"
            outputs.append((out, family.read_text() if family.exists()
                            else None))
        assert outputs[0] == outputs[1]
        assert outputs[0][0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_rows(self, fmt, capsys):
        outputs = []
        for writer in (quasiortho.cli._write, list_write):
            writer(None, fmt, {"seed": 1}, {"x": None}, ["a", "b"], iter(()))
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @staticmethod
    def check_rows_are_not_held(fmt, tmp_path):
        # 200,000 rows built as lists before writing held about 100 MB
        # for CSV and 276 MB for JSON. The peak is read inside the child:
        # its ru_maxrss would start at the peak of the process that
        # started it.
        code = f"""
from quasiortho.cli import main

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

before = peak_kb()
code = main(["decohere", "--n", "1", "--dynamics", "integrable", "--theta",
             "0", "1", "--trials", "200000", "--seed", "1", "--format",
             "{fmt}", "--output", "out.{fmt}", "--no-timestamp"])
print(code, peak_kb() - before)
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        status, growth_kb = map(int, proc.stdout.split())
        assert status == 0
        text = (tmp_path / f"out.{fmt}").read_text()
        if fmt == "json":
            assert len(json.loads(text)["rows"]) == 200000
        else:
            assert text.count("\n") > 200000
        # the two 200,000-entry result arrays are 3.2 MB
        assert growth_kb < 20 * 1024

    @needs_vmhwm
    def test_csv_rows_are_not_held_in_memory(self, tmp_path):
        self.check_rows_are_not_held("csv", tmp_path)

    @needs_vmhwm
    def test_json_rows_are_not_held_in_memory(self, tmp_path):
        self.check_rows_are_not_held("json", tmp_path)
