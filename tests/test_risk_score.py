"""Risk-score correctness against an independently coded direct oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskclr.risk_score import (
    COEFFICIENTS,
    ImputedMetadata,
    MetadataRecord,
    impute,
    record_from_csv_row,
    record_to_csv_row,
    risk_from_record,
    score2,
    select_stratum,
    standardize,
)

# ---------------------------------------------------------------------------
# Oracle: a from-scratch transcription of the published model, sharing no code
# with the module under test. Coefficient order: age, smoking, sbp, diabetes,
# total cholesterol, HDL.

ORACLE_TABLE = {
    ("male", "young"): dict(
        b1=[0.3742, 0.6012, 0.2777, 0.6457, 0.1458, -0.2698],
        b2=[0.0, -0.0755, -0.0255, -0.0281, 0.0426, -0.0983],
        s0=0.9605,
        c=0.0,
    ),
    ("female", "young"): dict(
        b1=[0.4648, 0.7744, 0.3131, 0.8096, 0.1002, -0.2606],
        b2=[0.0, -0.1088, -0.0277, -0.0226, 0.0613, -0.1272],
        s0=0.9776,
        c=0.0,
    ),
    ("male", "old"): dict(
        b1=[0.0634, 0.3524, 0.0094, 0.4245, 0.0850, -0.3564],
        b2=[0.0, -0.0247, -0.0005, 0.0073, 0.0091, -0.0174],
        s0=0.7576,
        c=0.0929,
    ),
    ("female", "old"): dict(
        b1=[0.0789, 0.4921, 0.0102, 0.6010, 0.0605, -0.3040],
        b2=[0.0, -0.0255, -0.0004, -0.0009, 0.0154, -0.0107],
        s0=0.8082,
        c=0.2290,
    ),
}


def oracle_risk(age, gender, smoking, sbp, diabetes, tchol, hdl):
    u = [
        (age - 60.0) / 5.0,
        smoking,
        (sbp - 120.0) / 20.0,
        diabetes,
        tchol - 6.0,
        (hdl - 1.3) / 0.5,
    ]
    row = ORACLE_TABLE[(gender, "young" if age < 70 else "old")]
    main = 0.0
    inter = 0.0
    for b, v in zip(row["b1"], u):
        main += b * v
    for b, v in zip(row["b2"], u):
        inter += b * v
    chi = main + u[0] * inter
    return 1.0 - row["s0"] ** math.exp(chi - row["c"])


REFERENCE = dict(smoking=0, sbp=120.0, diabetes=0, total_cholesterol=6.0, hdl_cholesterol=1.3)


class TestImputation:
    def test_partial_record_deterministic(self):
        rec = MetadataRecord(age=60, gender="male", sbp=120.0)
        meta = impute(rec, deterministic=True)
        assert meta.missing_count == 4
        assert meta.total_cholesterol == 5.2
        assert meta.hdl_cholesterol == 1.3
        assert meta.smoking == 0 and meta.diabetes == 0

    def test_full_record_identity(self):
        rec = MetadataRecord(age=55, gender="female", smoking=1, sbp=135.0,
                             diabetes=0, total_cholesterol=5.8, hdl_cholesterol=1.1)
        meta = impute(rec, deterministic=True)
        assert meta.missing_count == 0
        assert (meta.age, meta.smoking, meta.sbp) == (55, 1, 135.0)
        assert (meta.total_cholesterol, meta.hdl_cholesterol) == (5.8, 1.1)

    def test_missing_age_defaults_to_40(self):
        meta = impute(MetadataRecord(gender="male"), deterministic=True)
        assert meta.age == 40.0
        assert meta.missing_count == 6

    def test_missing_gender_counts_and_defaults_male(self):
        meta = impute(MetadataRecord(age=50), deterministic=True)
        assert meta.gender == "male"
        assert meta.missing_count == 6

    def test_stochastic_noise_on_cholesterol_only(self):
        rng = np.random.default_rng(5)
        rec = MetadataRecord(age=60, gender="male", sbp=120.0)
        meta = impute(rec, rng=rng)
        assert meta.total_cholesterol != 5.2 or meta.hdl_cholesterol != 1.3
        assert meta.age == 60 and meta.sbp == 120.0

    def test_stochastic_draw_order(self):
        # only the cholesterol pair draws: total first, then HDL
        meta = impute(MetadataRecord(), rng=np.random.default_rng(3))
        ref = np.random.default_rng(3)
        assert meta.total_cholesterol == 5.2 + float(ref.normal(0.0, 0.5))
        assert meta.hdl_cholesterol == 1.3 + float(ref.normal(0.0, 0.2))
        assert (meta.age, meta.sbp, meta.missing_count) == (40.0, 120.0, 7)

    def test_stochastic_without_rng_rejected(self):
        with pytest.raises(ValueError):
            impute(MetadataRecord(age=60, gender="male"), deterministic=False)

    def test_deterministic_idempotent(self):
        rec = MetadataRecord(age=62, gender="female")
        once = impute(rec, deterministic=True)
        fields = ("age", "gender", "smoking", "sbp", "diabetes",
                  "total_cholesterol", "hdl_cholesterol")
        twice = impute(MetadataRecord(**{f: getattr(once, f) for f in fields}), deterministic=True)
        for field in fields:
            assert getattr(once, field) == getattr(twice, field)
        assert twice.missing_count == 0

    def test_invalid_record_rejected(self):
        with pytest.raises(ValueError):
            MetadataRecord(age=-3)
        with pytest.raises(ValueError):
            MetadataRecord(smoking=2)
        with pytest.raises(ValueError):
            MetadataRecord(gender="other")

    @pytest.mark.parametrize("field", ["age", "sbp", "total_cholesterol", "hdl_cholesterol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_covariate_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            MetadataRecord(**{field: value})


class TestStandardize:
    def test_reference_individual_is_zero(self):
        meta = ImputedMetadata(age=60, gender="male", smoking=0, sbp=120.0, diabetes=0,
                               total_cholesterol=6.0, hdl_cholesterol=1.3, missing_count=0)
        np.testing.assert_array_equal(standardize(meta), np.zeros(6))

    def test_units(self):
        meta = ImputedMetadata(age=70, gender="male", smoking=1, sbp=140.0, diabetes=1,
                               total_cholesterol=7.0, hdl_cholesterol=1.8, missing_count=0)
        np.testing.assert_allclose(standardize(meta), [2.0, 1.0, 1.0, 1.0, 1.0, 1.0])


class TestStratum:
    def test_columns(self):
        c = select_stratum(60, "male")
        assert (c.b1[0], c.s0, c.c) == (0.3742, 0.9605, 0.0)
        c = select_stratum(70, "male")
        assert (c.b1[0], c.s0, c.c) == (0.0634, 0.7576, 0.0929)
        c = select_stratum(69, "female")
        assert (c.b1[0], c.s0, c.c) == (0.4648, 0.9776, 0.0)

    def test_age_70_goes_to_older_group(self):
        assert select_stratum(70, "female") is COEFFICIENTS["female>=70"]
        assert select_stratum(69.999, "female") is COEFFICIENTS["female<70"]

    def test_bad_age(self):
        with pytest.raises(ValueError):
            select_stratum(0, "male")


class TestScore2:
    @pytest.mark.parametrize(
        "gender,age,expected",
        [
            ("male", 60, 0.0395),  # 1 - 0.9605, chi = 0 analytically
            ("female", 60, 0.0224),  # 1 - 0.9776
        ],
    )
    def test_reference_individuals_young(self, gender, age, expected):
        meta = ImputedMetadata(age=age, gender=gender, missing_count=0, **REFERENCE)
        rs = score2(meta)
        assert abs(rs.r - expected) < 1e-12
        assert abs(rs.r - oracle_risk(age, gender, 0, 120.0, 0, 6.0, 1.3)) < 1e-15

    def test_reference_individual_male_70(self):
        meta = ImputedMetadata(age=70, gender="male", missing_count=0, **REFERENCE)
        rs = score2(meta)
        # chi = 0.0634 * 2 = 0.1268; r = 1 - 0.7576 ** exp(0.1268 - 0.0929)
        expected = 1.0 - 0.7576 ** math.exp(0.1268 - 0.0929)
        assert abs(rs.r - expected) < 1e-12
        assert abs(rs.r - 0.2496) < 5e-5

    def test_reference_individual_female_70(self):
        meta = ImputedMetadata(age=70, gender="female", missing_count=0, **REFERENCE)
        expected = 1.0 - 0.8082 ** math.exp(2 * 0.0789 - 0.2290)
        assert abs(score2(meta).r - expected) < 1e-12

    def test_1000_random_rows_match_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            age = float(rng.uniform(30, 90))
            gender = "male" if rng.random() < 0.5 else "female"
            smoking = int(rng.integers(2))
            sbp = float(rng.uniform(90, 200))
            diabetes = int(rng.integers(2))
            tchol = float(rng.uniform(3, 9))
            hdl = float(rng.uniform(0.6, 2.5))
            meta = ImputedMetadata(age=age, gender=gender, smoking=smoking, sbp=sbp,
                                   diabetes=diabetes, total_cholesterol=tchol,
                                   hdl_cholesterol=hdl, missing_count=0)
            got = score2(meta).r
            want = oracle_risk(age, gender, smoking, sbp, diabetes, tchol, hdl)
            assert got == want

    def test_risk_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            rec = MetadataRecord(
                age=float(rng.uniform(20, 95)),
                gender="male" if rng.random() < 0.5 else "female",
            )
            r = risk_from_record(rec, rng=rng).r
            assert 0.0 < r < 1.0

    def test_monotone_in_main_effects_male_young(self):
        base = ImputedMetadata(age=60, gender="male", missing_count=0, **REFERENCE)
        r0 = score2(base).r
        assert score2(ImputedMetadata(age=65, gender="male", missing_count=0, **REFERENCE)).r > r0
        bumped = dict(REFERENCE)
        bumped["sbp"] = 140.0
        assert score2(ImputedMetadata(age=60, gender="male", missing_count=0, **bumped)).r > r0
        bumped = dict(REFERENCE)
        bumped["smoking"] = 1
        assert score2(ImputedMetadata(age=60, gender="male", missing_count=0, **bumped)).r > r0
        bumped = dict(REFERENCE)
        bumped["diabetes"] = 1
        assert score2(ImputedMetadata(age=60, gender="male", missing_count=0, **bumped)).r > r0

    def test_missing_count_carried(self):
        rec = MetadataRecord(age=60, gender="male", sbp=130.0)
        rs = risk_from_record(rec, deterministic=True)
        assert rs.missing_count == 4

    def test_coefficient_table_invariants(self):
        assert len(COEFFICIENTS) == 4
        for coef in COEFFICIENTS.values():
            assert len(coef.b1) == 6 and len(coef.b2) == 6
            assert coef.b2[0] == 0.0
            assert 0.0 < coef.s0 < 1.0
            assert coef.c >= 0.0


class TestCsvInterface:
    def test_roundtrip(self):
        rec = MetadataRecord(age=61.5, gender="female", smoking=1, sbp=128.0)
        row = record_to_csv_row(rec)
        back = record_from_csv_row(row)
        assert back == rec

    def test_empty_cells_mean_missing(self):
        rec = record_from_csv_row({c: "" for c in ("age", "gender", "smoking", "sbp",
                                                   "diabetes", "tchol", "hdl")})
        assert rec == MetadataRecord()


# Each covariate drawn by its kind, or absent; written out independently of
# the module under test.
KINDS = {"age": "number", "gender": "gender", "smoking": "binary", "sbp": "number",
         "diabetes": "binary", "total_cholesterol": "number", "hdl_cholesterol": "number"}
VALID = {
    "number": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "binary": st.sampled_from([0, 1]),
    "gender": st.sampled_from(["male", "female"]),
}
INVALID = {
    "number": st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])),
    "binary": st.integers().filter(lambda v: v not in (0, 1)),
    "gender": st.text().filter(lambda v: v not in ("male", "female")),
}
records = st.fixed_dictionaries({f: st.none() | VALID[k] for f, k in KINDS.items()})


class TestRecordProperties:
    @settings(deadline=None, max_examples=200)
    @given(fields=records)
    def test_valid_record_survives_csv(self, fields):
        rec = MetadataRecord(**fields)
        assert record_from_csv_row(record_to_csv_row(rec)) == rec

    @settings(deadline=None, max_examples=200)
    @given(fields=records, data=st.data())
    def test_one_invalid_value_names_its_field(self, fields, data):
        field = data.draw(st.sampled_from(sorted(KINDS)))
        fields[field] = data.draw(INVALID[KINDS[field]])
        with pytest.raises(ValueError, match=f"^{field} must be"):
            MetadataRecord(**fields)
