import math
import tracemalloc

import numpy as np
import pytest

import quasiortho.effective_dim
import quasiortho.limits
from quasiortho.limits import ResourceLimitError
from quasiortho.effective_dim import _parse_lines

from quasiortho import (
    RngStream,
    Spectrum,
    StateVector,
    basis_state,
    entropy_of,
    haar_state,
    haar_unitary,
    ipr_dimension,
    microcanonical_dim,
    noninteracting_qubit_spectrum,
    suppression_scale,
    suppression_experiment,
    MeasurementModel,
)


def filtered_parse(text):
    """Oracle: the non-blank lines of the whole text in one array."""
    return np.array([line for line in text.splitlines() if line.strip()],
                    dtype=float)


class TestSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 0.5]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, np.inf]))

    def test_from_file_lines(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0.0\n1.5\n\n2.5\n")
        s = Spectrum.from_file(path)
        assert np.allclose(s.energies, [0.0, 1.5, 2.5])

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "levels.json"
        path.write_text("[0.0, 1.0, 2.0, 3.0]")
        s = Spectrum.from_file(path)
        assert s.size == 4

    def test_from_file_json_ints_and_floats(self, tmp_path):
        path = tmp_path / "levels.json"
        path.write_text("[-2, 0, 1.5, 3, 9007199254740993]")
        got = Spectrum.from_file(path).energies
        assert got.tobytes() == np.array(
            [-2.0, 0.0, 1.5, 3.0, float(9007199254740993)]).tobytes()

    @pytest.mark.parametrize("text, index, rule", [
        ("[false, true, true]", 0, "must be a number"),
        ("[0, 1, true]", 2, "must be a number"),
        ('["1", "2.5"]', 0, "must be a number"),
        ('[{"a": 1}]', 0, "must be a number"),
        ("[1, [2]]", 1, "must be a number"),
        ("[0, null]", 1, "must be a number"),
        (f"[0, {'9' * 400}]", 1, "must be a finite number"),
    ], ids=["bools", "late-bool", "strings", "object", "nested", "null",
            "int-beyond-float"])
    def test_from_file_json_non_number_names_its_index(self, text, index,
                                                        rule, tmp_path):
        path = tmp_path / "levels.json"
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=f"^spectrum item {index} {rule}, got "):
            Spectrum.from_file(path)

    @pytest.mark.parametrize("big", ["9" * 400, "-" + "9" * 400])
    def test_from_file_json_int_beyond_float_is_not_finite(self, big,
                                                           tmp_path):
        # a ValueError in both formats, not an OverflowError
        lines, array = tmp_path / "levels.txt", tmp_path / "levels.json"
        lines.write_text(big + "\n")
        array.write_text(f"[{big}]")
        for path in (lines, array):
            with pytest.raises(ValueError, match="finite"):
                Spectrum.from_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        s = Spectrum.from_file(path)
        assert s.size == 0

    @pytest.mark.parametrize("line", [
        " 1_0 ", "infinity", "-0.0", "1e400", "\t2\t", "1e-400", "+5.",
        "0.1", "2.2250738585072011e-308", "9007199254740993",
        "2.0 3.0", "0x10", "#x", "abc", "1,5",
    ])
    def test_line_parses_as_float_does(self, line, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            want = float(line)
        except ValueError:
            want = None
        if want is None or not math.isfinite(want):
            with pytest.raises(ValueError):
                Spectrum.from_file(path)
            return
        got = Spectrum.from_file(path).energies
        assert got.tobytes() == np.array([want]).tobytes()

    def test_many_lines_parse_bit_identically(self, tmp_path):
        values = np.sort(np.random.default_rng(3).standard_normal(2000)) * 1e3
        lines = [repr(float(v)) for v in values[::2]] + \
            [f"{v:.25g}" for v in values[1::2]]
        lines.sort(key=float)
        path = tmp_path / "levels.txt"
        path.write_text("\n\n".join(lines) + "\n", encoding="utf-8")
        got = Spectrum.from_file(path).energies
        assert got.tobytes() == np.array([float(x) for x in lines]).tobytes()

    @pytest.mark.parametrize("text", [
        "10\n11\n\n\n12\n13\n",           # blank lines
        "0.5\r\n1.5\r\n\r\n2.5\r\n",       # CRLF
        "10\x0c11\x0c\n12\n",              # form feed splits lines too
        "10\n11\n125",                     # no trailing newline
        "10\n11\n\n\n\n\n\n12\n",          # slices that hold only blanks
        "\n\n  \n\t\n",                    # nothing but blank lines
        "1" + "\n" * 9 + "25" + " " * 20 + "\n375\n",
    ])
    @pytest.mark.parametrize("chars", [1, 2, 3, 5, 8])
    def test_slices_parse_as_the_whole_text(self, text, chars, monkeypatch,
                                            tmp_path):
        path = tmp_path / "levels.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            read = fh.read()
        want = np.array([line for line in read.splitlines() if line.strip()],
                        dtype=float)
        monkeypatch.setattr(quasiortho.effective_dim, "_PARSE_SLICE_CHARS",
                            chars)
        got = Spectrum.from_file(path).energies
        assert got.tobytes() == want.tobytes()
        # the raw text too, whose \r the text-mode read above translated
        assert Spectrum.from_text(text).energies.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chars", [1, 4, 1 << 18])
    def test_bad_line_in_any_slice_raises(self, chars, monkeypatch, tmp_path):
        monkeypatch.setattr(quasiortho.effective_dim, "_PARSE_SLICE_CHARS",
                            chars)
        path = tmp_path / "levels.txt"
        for text in ["x\n1\n2\n3\n", "0\n1\n2\n3\nabc\n", "0\n1\n2\n3\nabc"]:
            path.write_text(text)
            with pytest.raises(ValueError):
                Spectrum.from_file(path)

    @pytest.mark.parametrize("text", ["1\n\n2\n", "1\n  \n2\r\n3",
                                      "1\nx\n", " \n", ""])
    def test_whole_slice_parse_matches_filtered_parse(self, text):
        try:
            want = filtered_parse(text)
        except ValueError as err:
            with pytest.raises(ValueError) as info:
                _parse_lines(text)
            assert str(info.value) == str(err)
            return
        got = _parse_lines(text)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("head, tail", [
        ("1.5\n" * 3 + "15\n\n", "2.5\n" * 100),  # blank ends slice 1
        ("1.5\n" * 4, "\n" + "2.5\n" * 100),        # blank starts slice 2
    ])
    def test_blank_line_on_a_slice_boundary(self, head, tail):
        chars = quasiortho.effective_dim._PARSE_SLICE_CHARS
        head = head * (chars // len(head))
        assert len(head) == chars and head.endswith("\n")
        text = head + tail
        got = _parse_lines(text)
        assert got.tobytes() == filtered_parse(text).tobytes()
        assert got.size == text.count("5")

    def test_callers_array_stays_writable(self):
        e = np.array([0.0, 1.0, 2.0])
        s = Spectrum(e)
        assert not s.energies.flags.writeable
        e[0] = -1.0
        assert e.flags.writeable


class TestMicrocanonicalDim:
    def test_empty_spectrum(self):
        assert microcanonical_dim(Spectrum(np.array([])), 0.0, 1.0) == 0

    def test_direct_count(self):
        s = Spectrum(np.array([0.0, 1.0, 2.0, 3.0]))
        assert microcanonical_dim(s, 0.5, 2.0) == 2  # window [0.5, 2.5)

    def test_half_open_boundaries(self):
        s = Spectrum(np.array([0.0, 1.0, 2.0]))
        assert microcanonical_dim(s, 1.0, 1.0) == 1  # [1, 2) excludes 2
        assert microcanonical_dim(s, 0.0, 1.0) == 1  # [0, 1) includes 0

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_popcount_spectrum_counts_binomials(self, n):
        s = noninteracting_qubit_spectrum(n)
        for m in range(n + 1):
            assert microcanonical_dim(s, m, 1.0) == math.comb(n, m)

    def test_partition_recovers_total_dimension(self):
        n = 12
        s = noninteracting_qubit_spectrum(n)
        total = sum(microcanonical_dim(s, m, 1.0) for m in range(n + 1))
        assert total == 2 ** n

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            microcanonical_dim(Spectrum(np.array([0.0])), 0.0, 0.0)


def doubling_oracle(n):
    """Reference levels: the excitation counts of n qubits, doubled n
    times from [0] and sorted."""
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    return np.sort(counts).astype(float)


class TestQubitSpectrum:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_matches_the_doubling_oracle(self, n):
        got = noninteracting_qubit_spectrum(n).energies
        want = doubling_oracle(n)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [27, 10 ** 6])
    def test_over_the_cap_is_refused_before_allocating(self, n):
        # 2**27 levels are 1 GB of floats; 2**(10**6) has 301030 digits
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=rf"2\*\*{n} levels"):
                noninteracting_qubit_spectrum(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(quasiortho.limits, "MAX_SAMPLE_COUNT", 1024)
        assert noninteracting_qubit_spectrum(10).size == 1024
        with pytest.raises(ResourceLimitError):
            noninteracting_qubit_spectrum(11)
        monkeypatch.setattr(quasiortho.limits, "MAX_SAMPLE_COUNT", 1023)
        with pytest.raises(ResourceLimitError):
            noninteracting_qubit_spectrum(10)


class TestEntropy:
    def test_values(self):
        assert entropy_of(1.0) == 0.0
        assert abs(entropy_of(math.e) - 1.0) < 1e-15
        for n in (1, 5, 20):
            assert abs(entropy_of(2.0 ** n) - n * math.log(2)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy_of(0.5)


class TestIpr:
    def test_basis_state_is_one(self):
        assert ipr_dimension(basis_state(16, 3)) == 1.0

    def test_uniform_superposition_is_d(self):
        d = 16
        psi = StateVector(np.full(d, 1.0 / math.sqrt(d), dtype=complex))
        assert abs(ipr_dimension(psi) - d) < 1e-9
        d = 10
        psi = StateVector(np.full(d, 1.0 / math.sqrt(d), dtype=complex))
        assert abs(ipr_dimension(psi) - d) < 1e-9

    def test_within_range(self):
        for seed in range(5):
            v = ipr_dimension(haar_state(64, RngStream(seed)))
            assert 1.0 <= v <= 64.0

    def test_haar_state_ipr_near_half_dimension(self):
        # Monte Carlo oracle: E sum p_k^2 ~ 2/d so IPR ~ d/2
        d, trials = 1024, 100
        rng = RngStream(404)
        vals = [ipr_dimension(haar_state(d, rng)) for _ in range(trials)]
        assert abs(np.mean(vals) - d / 2) < 0.10 * (d / 2)

    def test_explicit_basis_argument(self):
        u = haar_unitary(8, RngStream(7))
        col3 = StateVector(u.entries[:, 3])
        assert abs(ipr_dimension(col3, basis=u) - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ipr_dimension(basis_state(4), basis=haar_unitary(8, RngStream(0)))


class TestSuppressionScale:
    def test_values(self):
        assert suppression_scale(1.0) == (1.0, 1.0)
        ov, amp = suppression_scale(1024.0)
        assert ov == 2.0 ** -10
        assert amp == 2.0 ** -5
        assert amp ** 2 == ov

    def test_amplitude_squares_to_overlap(self):
        for d_eff in (2.0, 37.0, 1e6):
            ov, amp = suppression_scale(d_eff)
            assert math.isclose(amp ** 2, ov, rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            suppression_scale(0.9)


def test_entropy_extensive_on_qubit_spectrum():
    # ln(shell count) at half filling grows ~ n ln 2 (Boltzmann scaling);
    # the Stirling correction keeps it within 15 percent at n = 20
    values = {}
    for n in (8, 12, 16, 20):
        s = noninteracting_qubit_spectrum(n)
        values[n] = math.log(microcanonical_dim(s, n // 2, 1.0))
    ns = sorted(values)
    assert all(values[a] < values[b] for a, b in zip(ns, ns[1:]))
    slope_at_20 = values[20] / 20
    assert abs(slope_at_20 - math.log(2)) / math.log(2) < 0.15


def test_suppression_scale_matches_measured_haar_overlap():
    # decoherence-module measurement agrees with the predicted 1/2^n
    n, trials = 10, 200
    model = MeasurementModel(pointer_count=2,
                             coefficients=np.array([1.0, 1.0]) / math.sqrt(2),
                             env_qubits=n, dynamics="exact-haar")
    result = suppression_experiment(model, trials, RngStream(515))
    predicted, _ = suppression_scale(2.0 ** n)
    se = result.pair_overlaps.std(ddof=1) / math.sqrt(trials)
    assert abs(result.mean_overlap_sq - predicted) < 5 * se
