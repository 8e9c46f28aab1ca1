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

    @pytest.mark.parametrize("value", [None, [1], {}, "3", True, b"3"])
    def test_non_numbers_are_value_errors(self, value):
        # a JSON config can carry null, a list or an object where a
        # number belongs; TypeError would crash the CLI instead of exit 2
        with pytest.raises(ValueError, match="must be a number"):
            integer("d", value, 1)
        with pytest.raises(ValueError, match="must be a number"):
            real("x", value)

    def test_real_rejects_an_int_beyond_the_float_range(self):
        # float(10**400) raises OverflowError, which the CLI would not
        # map to a usage error
        with pytest.raises(ValueError, match="finite"):
            real("x", 10 ** 400)

    def test_an_int_too_long_to_print_is_named_by_bit_length(self):
        # repr of an int past 4300 digits raises Python's own ValueError,
        # which would name no argument
        with pytest.raises(ValueError, match=r"^d must be an integer in "
                           r"\[1, 10\], got an integer of 16610 bits$"):
            integer("d", 10 ** 5000, 1, 10)
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, "
                           r"got a negative integer of 16610 bits$"):
            RngStream(-10 ** 5000)


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


def test_overflowing_state_vector_raises_without_warning():
    # |1e200|^2 overflows; the suite turns the RuntimeWarning into an error
    with pytest.raises(ValueError):
        sv.StateVector(np.array([1e200, 0.0]))


def test_overflowing_coefficients_raise_without_warning():
    with pytest.raises(ValueError, match="not normalized"):
        dc.MeasurementModel(2, [1e200, 1.0], 2, "exact-haar")


@pytest.mark.parametrize("shape", [2.5, NAN])
def test_complex_gaussians_bad_shape_is_value_error(shape):
    with pytest.raises(ValueError):
        sv.complex_gaussians(RngStream(0), shape)


def test_inf_density_matrix_raises_without_warning():
    with pytest.raises(ValueError):
        dc.ReducedDensityMatrix(np.array([[INF, 0.0], [0.0, 0.0]]))


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
    "TestReport": (lambda s, t, a: ov.TestReport(s, t, a, "x"),
                   (0.1, 0.2, 0.01)),
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
        lambda d, e, m: pk.QuasiOrthogonalFamily(d, e, np.eye(4)[:1],
                                                 max_pairwise=m),
        (4, 0.1, 0.0)),
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
    "SuppressionResult": (
        lambda t: dc.SuppressionResult(_MODEL, t, np.zeros((2, 1)),
                                       np.zeros(2), (0, 0)), (2,)),
    "integrable_overlap_exact": (dc.integrable_overlap_exact, (4, 0.2)),
    "microcanonical_dim": (
        lambda e, w: ed.microcanonical_dim(_SPECTRUM, e, w), (0.0, 1.0)),
    "entropy_of": (ed.entropy_of, (2.0,)),
    "suppression_scale": (ed.suppression_scale, (2.0,)),
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
    # 10**400 has no float: it must not escape as OverflowError
    for bad in (NAN, INF, -INF, 10 ** 400):
        with pytest.raises(ValueError):
            fn(*args[:pos], bad, *args[pos + 1:])


# ------------------------------------------- array storage: frozen_array

# field -> (holder built on an array for that field, a valid real array);
# each holder stores its array field with validate.frozen_array
ARRAY_FIELDS = {
    "StateVector.amplitudes": (sv.StateVector, [0.6, 0.8]),
    "Unitary.entries": (sv.Unitary, [[0.0, 1.0], [1.0, 0.0]]),
    "BranchSet.rows": (lambda a: dc.BranchSet(rows=a), np.eye(2, 4)),
    "QuasiOrthogonalFamily.rows": (
        lambda a: pk.QuasiOrthogonalFamily(4, 0.5, a), np.eye(2, 4)),
    "ReducedDensityMatrix.matrix": (dc.ReducedDensityMatrix,
                                    [[0.5, 0.0], [0.0, 0.5]]),
    "MeasurementModel.coefficients": (
        lambda a: dc.MeasurementModel(2, a, 2, "exact-haar"), [0.6, 0.8]),
    "SuppressionResult.pair_overlaps": (
        lambda a: dc.SuppressionResult(_MODEL, 2, a, np.zeros(2),
                                       (0, 0)), [[0.1], [0.2]]),
    "SuppressionResult.max_coherences": (
        lambda a: dc.SuppressionResult(_MODEL, 2, np.zeros((2, 1)),
                                       a, (0, 0)), [0.1, 0.2]),
    "EmpiricalSample.values": (lambda a: ov.EmpiricalSample(8, a, (0, 0)),
                               [0.1, 0.2]),
    "Spectrum.energies": (ed.Spectrum, [0.0, 1.0]),
}


@pytest.mark.parametrize("field", sorted(ARRAY_FIELDS))
def test_holders_compare_by_identity(field):
    # == on an array field would raise, so holders of arrays compare by
    # identity and hash by it
    make, valid = ARRAY_FIELDS[field]
    holder, twin = make(np.asarray(valid)), make(np.asarray(valid))
    assert holder == holder
    assert not holder == twin
    assert holder != twin
    assert hash(holder) == hash(holder)
    assert len({holder, twin, holder}) == 2


@pytest.mark.parametrize("field", sorted(ARRAY_FIELDS))
def test_array_fields_share_one_storage_rule(field):
    make, valid = ARRAY_FIELDS[field]
    attr = field.split(".")[1]
    valid = np.asarray(valid, dtype=float)
    stored = getattr(make(valid), attr)
    dtype = stored.dtype
    assert dtype in (np.complex128, np.float64)

    # a wrong number of axes or an empty array names the field; only a
    # spectrum may be empty (an empty file is a valid deff input)
    wrong_ndim = valid[0] if valid.ndim == 2 else valid[None]
    with pytest.raises(ValueError, match=attr):
        make(wrong_ndim)
    # a scalar has no axes; it is not a one-entry array
    for scalar in (valid.flat[0], np.asarray(valid.flat[0])):
        with pytest.raises(ValueError, match=attr):
            make(scalar)
    empty = np.empty((0,) * valid.ndim)
    if field == "Spectrum.energies":
        assert getattr(make(empty), attr).size == 0
    else:
        with pytest.raises(ValueError, match=attr):
            make(empty)

    # strings and booleans are not numbers, even where numpy converts them
    for bad in (valid.astype(str), np.ones(valid.shape, dtype=bool)):
        with pytest.raises(ValueError, match=attr):
            make(bad)

    # an input of another dtype, or not contiguous, is copied; the copy
    # is contiguous and read-only
    strided = np.repeat(valid.astype(dtype), 2, axis=-1)[..., ::2]
    assert not strided.flags.c_contiguous
    inputs = [strided] + ([valid] if dtype != valid.dtype else [])
    for given in inputs:
        out = getattr(make(given), attr)
        assert not np.shares_memory(out, given)
        assert out.dtype == dtype and out.flags.c_contiguous
        assert not out.flags.writeable
        np.testing.assert_array_equal(out, valid)


# ---------------------------------- holders: types, ranges and consistency

@pytest.mark.parametrize("value", ["x", -0.1, NAN])
def test_family_max_pairwise_is_checked_when_given(value):
    with pytest.raises(ValueError, match="max_pairwise"):
        pk.QuasiOrthogonalFamily(4, 0.1, np.eye(4)[:2], max_pairwise=value)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, "x"])
def test_report_alpha_is_a_significance_level(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ov.TestReport(0.1, 0.2, alpha, "x")


@pytest.mark.parametrize("model, trials, overlaps, coherences, match", [
    # 30 rows of overlaps under a trial count of 7
    (_MODEL, 7, np.zeros((30, 1)), np.zeros(30), "pair_overlaps"),
    (_MODEL, 30, np.zeros((30, 1)), np.zeros(29), "max_coherences"),
    # k = 2 pointer values have one pair, not two
    (_MODEL, 30, np.zeros((30, 2)), np.zeros(30), "pair_overlaps"),
    (_MODEL, "x", np.zeros((30, 1)), np.zeros(30), "trials"),
    (_MODEL, 1, np.zeros((1, 1)), np.zeros(1), "trials"),
    ("x", 30, np.zeros((30, 1)), np.zeros(30), "model"),
], ids=["trials-vs-overlap-rows", "coherence-rows", "overlap-width",
        "trials-not-a-number", "one-trial", "model-not-a-model"])
def test_suppression_result_fields_must_agree(model, trials, overlaps,
                                              coherences, match):
    with pytest.raises(ValueError, match=match):
        dc.SuppressionResult(model, trials, overlaps, coherences, (0, 0))


def test_suppression_result_stores_trials_as_int():
    result = dc.SuppressionResult(_MODEL, np.int64(2), np.zeros((2, 1)),
                                  np.zeros(2), (0, 0))
    assert type(result.trials) is int
    assert result.summary()["trials"] == 2


# holder -> a maker of that holder on a given seed_record
SEED_RECORD_HOLDERS = {
    "EmpiricalSample": lambda r: ov.EmpiricalSample(4, np.array([0.1, 0.2]),
                                                    r),
    "SuppressionResult": lambda r: dc.SuppressionResult(
        _MODEL, 2, np.zeros((2, 1)), np.zeros(2), r),
}


@pytest.mark.parametrize("holder", sorted(SEED_RECORD_HOLDERS))
@pytest.mark.parametrize("record", ["ab", (7,), (1, -1), (True, 0), 7, None],
                         ids=["string", "one-entry", "negative", "bool",
                              "scalar", "none"])
def test_seed_record_is_a_stream_address(holder, record):
    with pytest.raises(ValueError, match="seed_record"):
        SEED_RECORD_HOLDERS[holder](record)


@pytest.mark.parametrize("holder", sorted(SEED_RECORD_HOLDERS))
def test_seed_record_of_a_substream_is_stored_exactly(holder):
    seed = 2 ** 128 + 1
    rng = RngStream(seed, 3).substream(2).substream(0)
    made = SEED_RECORD_HOLDERS[holder](list(rng.address))
    assert made.seed_record == (seed, 3, 2, 0) == rng.address
    assert type(made.seed_record) is tuple
    made = SEED_RECORD_HOLDERS[holder]((np.uint64(5), np.int64(0)))
    assert all(type(entry) is int for entry in made.seed_record)


@pytest.mark.parametrize("field, kwargs", [
    ("env_initial", {"dynamics": "exact-haar", "env_initial": [1, 0, 0, 0]}),
    ("thetas", {"dynamics": "integrable-product", "thetas": 0.3}),
    ("thetas", {"dynamics": "integrable-product", "thetas": "ab"}),
    # well typed, but exact-haar records are drawn without reading it
    ("env_initial", {"dynamics": "exact-haar",
                     "env_initial": sv.StateVector([0.6, 0, 0, 0.8])}),
])
def test_model_field_of_the_wrong_type_is_named(field, kwargs):
    with pytest.raises(ValueError, match=field):
        dc.MeasurementModel(2, [0.6, 0.8], 2, **kwargs)
