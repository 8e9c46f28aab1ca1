"""Input rules: NaN, +-inf, non-integer and out-of-range arguments raise
ValueError in the library and exit 2 in the CLI."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiortho import decoherence as dc
from quasiortho import effective_dim as ed
from quasiortho import overlap as ov
from quasiortho import packing as pk
from quasiortho import states as sv
from quasiortho.cli import main
from quasiortho.rng import RngStream
from quasiortho.validate import integer, real

NAN, INF = math.nan, math.inf


class TestValidator:
    def test_integer_returns_python_int_unchanged(self):
        big = 2 ** 100 + 1
        assert integer("seed", big, 0) is big
        assert integer("d", np.int64(7), 1) == 7
        assert type(integer("d", np.int64(7), 1)) is int

    def test_integer_accepts_integer_valued_floats(self):
        assert integer("d", 4.0, 1) == 4
        assert type(integer("d", 4.0, 1)) is int

    @pytest.mark.parametrize("value", [2.5, NAN, INF, -INF, 0, 11])
    def test_integer_rejects(self, value):
        with pytest.raises(ValueError):
            integer("d", value, 1, 10)

    def test_real_bounds(self):
        assert real("x", 0, 0.0, 1.0) == 0.0
        assert real("x", 1, 0.0, 1.0) == 1.0
        for kwargs, value in [({"lo_open": True}, 0.0), ({"hi_open": True}, 1.0)]:
            with pytest.raises(ValueError):
                real("x", value, 0.0, 1.0, **kwargs)

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_real_rejects_non_finite_without_bounds(self, value):
        with pytest.raises(ValueError):
            real("x", value)


def test_huge_seed_stays_exact():
    # seeds drawn from system entropy are 128-bit; no float round trip
    assert RngStream(2 ** 100 + 1).seed == 2 ** 100 + 1


# ------------------------------------------------------ defects, one each

def test_non_integer_substream_index_raises():
    # int(2.7) would alias substream(2): two "independent" streams equal
    with pytest.raises(ValueError):
        RngStream(0).substream(2.7)


def test_nan_state_vector_raises():
    with pytest.raises(ValueError):
        sv.StateVector(np.array([NAN, 0.0]))


def test_nan_unitary_raises():
    with pytest.raises(ValueError):
        sv.Unitary(np.full((2, 2), NAN))


def test_nan_empirical_sample_raises():
    with pytest.raises(ValueError):
        ov.EmpiricalSample(8, np.array([0.1, NAN]), (0, 0))


def test_pdf_nan_raises():
    with pytest.raises(ValueError):
        ov.pdf(8, NAN)


def test_integrable_overlap_nan_raises():
    with pytest.raises(ValueError):
        dc.integrable_overlap_exact(4, NAN)


def test_union_bound_checks_d():
    with pytest.raises(ValueError):
        pk.union_bound_failure(-5, 0.1, 10)


def test_greedy_non_integer_target_raises():
    with pytest.raises(ValueError):
        pk.greedy_construct(8, 0.5, 3.5, 10, RngStream(0))


def test_log_lower_bound_inf_is_value_error():
    with pytest.raises(ValueError):
        pk.log_lower_bound(INF, 0.1)


def test_sample_overlaps_non_integer_count_is_value_error():
    with pytest.raises(ValueError):
        ov.sample_overlaps(8, 150.5, RngStream(0))


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_levy_check_non_finite_delta_is_usage_error(delta):
    assert main(["levy-check", "--d", "16", "--delta", delta,
                 "--no-timestamp"]) == 2


@pytest.mark.parametrize("flag", ["--energy", "--width"])
def test_deff_nan_window_is_usage_error(flag, tmp_path):
    spec = tmp_path / "levels.txt"
    spec.write_text("0\n1\n2\n")
    argv = {"--energy": "0", "--width": "1", flag: "nan"}
    assert main(["deff", "--spectrum", str(spec), "--no-timestamp"]
                + [t for kv in argv.items() for t in kv]) == 2


def test_decohere_nan_coefficient_is_usage_error():
    assert main(["decohere", "--n", "3", "--k", "2", "--coeffs", "nan", "1",
                 "--seed", "1", "--no-timestamp"]) == 2


# --------------------------------------- property: non-finite is rejected

_SAMPLE = ov.sample_overlaps(8, 200, RngStream(1))
_SPECTRUM = ed.noninteracting_qubit_spectrum(3)
_MODEL = dc.MeasurementModel(2, [0.6, 0.8], 2, "exact-haar")
_BRANCHES = dc.generate_branches(_MODEL, RngStream(2))
_X_GATE = sv.Unitary(np.array([[0, 1], [1, 0]]))

# name -> (callable, valid numeric arguments); every argument is numeric
ENTRY_POINTS = {
    "pdf": (ov.pdf, (8, 0.1)),
    "cdf": (ov.cdf, (8, 0.1)),
    "survival": (ov.survival, (8, 0.1)),
    "mean": (ov.mean, (8,)),
    "levy_tail_bound": (ov.levy_tail_bound, (8, 0.1, 2.0)),
    "overlap_tail_bound": (ov.overlap_tail_bound, (8, 0.1)),
    "two_sided_exact_tail": (ov.two_sided_exact_tail, (8, 0.1)),
    "is_vacuous": (ov.is_vacuous, (0.5,)),
    "OverlapDistribution": (ov.OverlapDistribution, (8,)),
    "EmpiricalSample": (lambda d, v: ov.EmpiricalSample(d, [v], (0, 0)),
                        (8, 0.5)),
    "TestReport": (lambda s, t: ov.TestReport(s, t, 0.01, "x"), (0.1, 0.2)),
    "sample_overlaps": (lambda d, n: ov.sample_overlaps(d, n, RngStream(0)),
                        (8, 10)),
    "ks_critical_value": (ov.ks_critical_value, (0.01,)),
    "ks_test": (lambda a: ov.ks_test(_SAMPLE, a), (0.01,)),
    "wilson_interval": (ov.wilson_interval, (3, 10, 0.05)),
    "log_lower_bound": (pk.log_lower_bound, (100, 0.1)),
    "lower_bound": (pk.lower_bound, (100, 0.1)),
    "qubit_capacity_log": (pk.qubit_capacity_log, (5, 0.1)),
    "union_bound_failure": (pk.union_bound_failure, (100, 0.1, 10)),
    "QuasiOrthogonalFamily": (
        lambda d, e: pk.QuasiOrthogonalFamily(d, e, [sv.basis_state(4)]),
        (4, 0.1)),
    "random_coding_construct": (
        lambda d, e, m: pk.random_coding_construct(d, e, m, RngStream(0)),
        (16, 0.5, 3)),
    "greedy_construct": (
        lambda d, e, m, a: pk.greedy_construct(d, e, m, a, RngStream(0)),
        (16, 0.5, 3, 10)),
    "success_rate_experiment": (
        lambda d, e, m, t: pk.success_rate_experiment(d, e, m, t, RngStream(0)),
        (16, 0.9, 3, 30)),
    "MeasurementModel": (
        lambda k, c, n, depth: dc.MeasurementModel(
            k, [c, 0.8], n, "chaotic-circuit", depth=depth),
        (2, 0.6, 2, 1)),
    "MeasurementModel.thetas": (
        lambda t0, t1: dc.MeasurementModel(
            2, [0.6, 0.8], 2, "integrable-product", thetas=(t0, t1)),
        (0.0, 0.2)),
    "typicality_ratio": (lambda d: dc.typicality_ratio(_BRANCHES, d), (4.0,)),
    "suppression_experiment": (
        lambda t: dc.suppression_experiment(_MODEL, t, RngStream(0)), (30,)),
    "integrable_overlap_exact": (dc.integrable_overlap_exact, (4, 0.2)),
    "microcanonical_dim": (
        lambda e, w: ed.microcanonical_dim(_SPECTRUM, e, w), (0.0, 1.0)),
    "entropy_of": (ed.entropy_of, (2.0,)),
    "suppression_scale": (ed.suppression_scale, (2.0,)),
    "EffectiveDimensionReport": (
        lambda d: ed.EffectiveDimensionReport(d, "ipr"), (2.0,)),
    "noninteracting_qubit_spectrum": (ed.noninteracting_qubit_spectrum, (3,)),
    "StateVector": (lambda a, b: sv.StateVector([a, b]), (1.0, 0.0)),
    "Unitary": (lambda a: sv.Unitary([[a, 0], [0, 1]]), (1.0,)),
    "basis_state": (sv.basis_state, (4, 1)),
    "haar_state": (lambda d: sv.haar_state(d, RngStream(0)), (4,)),
    "haar_unitary": (lambda d: sv.haar_unitary(d, RngStream(0)), (4,)),
    "apply_local": (
        lambda t: sv.apply_local(_X_GATE, (t,), sv.basis_state(4)), (1,)),
    "RngStream": (RngStream, (0, 0)),
    "RngStream.substream": (lambda i: RngStream(0).substream(i), (1,)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_table_arguments_are_valid(name):
    fn, args = ENTRY_POINTS[name]
    fn(*args)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_non_finite_argument_raises_value_error(data):
    name = data.draw(st.sampled_from(sorted(ENTRY_POINTS)), label="entry")
    fn, args = ENTRY_POINTS[name]
    pos = data.draw(st.integers(0, len(args) - 1), label="position")
    for bad in (NAN, INF, -INF):
        with pytest.raises(ValueError):
            fn(*args[:pos], bad, *args[pos + 1:])
