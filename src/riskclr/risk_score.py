"""SCORE2 10-year cardiovascular risk from (possibly incomplete) metadata.

The score uses seven covariates: age, gender, smoking status, systolic blood
pressure, diabetes status, total cholesterol, and HDL cholesterol. Missing
covariates are imputed (population reference values, optionally with Gaussian
noise for the cholesterol pair) and counted; the count travels with the risk
value so batch weighting can discount poorly-supported scores.

Regional calibration is deliberately omitted: the uncalibrated 10-year risk
is used directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Gender = Literal["male", "female"]

N_COVARIATES = 7

# Imputation defaults: cholesterol pair uses population reference means with
# biological-variation noise, binary statuses default to absent, age to 40.
TCHOL_IMPUTE_MEAN, TCHOL_IMPUTE_SD = 5.2, 0.5
HDL_IMPUTE_MEAN, HDL_IMPUTE_SD = 1.3, 0.2
AGE_IMPUTE = 40.0
SBP_IMPUTE = 120.0  # standardization reference; see DEFAULT_GENDER note
DEFAULT_GENDER: Gender = "male"  # gender absent: counted missing, defaulted


@dataclass(frozen=True)
class MetadataRecord:
    """The seven covariates, each optional (None = not recorded)."""

    age: float | None = None
    gender: Gender | None = None
    smoking: int | None = None
    sbp: float | None = None
    diabetes: int | None = None
    total_cholesterol: float | None = None
    hdl_cholesterol: float | None = None

    def __post_init__(self):
        for name in ("age", "sbp", "total_cholesterol", "hdl_cholesterol"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite when present, got {v}")
        for name in ("smoking", "diabetes"):
            v = getattr(self, name)
            if v is not None and v not in (0, 1):
                raise ValueError(f"{name} must be 0/1 when present, got {v}")
        if self.gender is not None and self.gender not in ("male", "female"):
            raise ValueError(f"gender must be 'male' or 'female', got {self.gender!r}")


@dataclass(frozen=True)
class ImputedMetadata:
    """Fully populated covariates plus the count of values that were imputed."""

    age: float
    gender: Gender
    smoking: int
    sbp: float
    diabetes: int
    total_cholesterol: float
    hdl_cholesterol: float
    missing_count: int

    def __post_init__(self):
        if not 0 <= self.missing_count <= N_COVARIATES:
            raise ValueError(f"missing_count out of range: {self.missing_count}")


@dataclass(frozen=True)
class Score2Coefficients:
    """One stratum column of the coefficient table."""

    stratum: str
    b1: tuple[float, ...]  # main effects for the six standardized covariates
    b2: tuple[float, ...]  # age-interaction terms; first entry is exactly 0
    s0: float  # baseline 10-year survival
    c: float  # offset applied inside the exponent

    def __post_init__(self):
        if len(self.b1) != 6 or len(self.b2) != 6:
            raise ValueError("b1/b2 must each hold 6 coefficients")
        if self.b2[0] != 0.0:
            raise ValueError("first age-interaction coefficient must be 0")
        if not 0.0 < self.s0 < 1.0:
            raise ValueError("baseline survival must lie in (0,1)")
        if self.c < 0.0:
            raise ValueError("offset c must be non-negative")


@dataclass(frozen=True)
class RiskScore:
    r: float
    missing_count: int


# Stratified coefficients by gender and age group (<70 vs >=70). Order within
# b1: age, smoking, sbp, diabetes, total cholesterol, HDL cholesterol; b2
# holds the age interactions for the same covariates (age slot fixed at 0).
COEFFICIENTS: dict[str, Score2Coefficients] = {
    "male<70": Score2Coefficients(
        stratum="male<70",
        b1=(0.3742, 0.6012, 0.2777, 0.6457, 0.1458, -0.2698),
        b2=(0.0, -0.0755, -0.0255, -0.0281, 0.0426, -0.0983),
        s0=0.9605,
        c=0.0,
    ),
    "female<70": Score2Coefficients(
        stratum="female<70",
        b1=(0.4648, 0.7744, 0.3131, 0.8096, 0.1002, -0.2606),
        b2=(0.0, -0.1088, -0.0277, -0.0226, 0.0613, -0.1272),
        s0=0.9776,
        c=0.0,
    ),
    "male>=70": Score2Coefficients(
        stratum="male>=70",
        b1=(0.0634, 0.3524, 0.0094, 0.4245, 0.0850, -0.3564),
        b2=(0.0, -0.0247, -0.0005, 0.0073, 0.0091, -0.0174),
        s0=0.7576,
        c=0.0929,
    ),
    "female>=70": Score2Coefficients(
        stratum="female>=70",
        b1=(0.0789, 0.4921, 0.0102, 0.6010, 0.0605, -0.3040),
        b2=(0.0, -0.0255, -0.0004, -0.0009, 0.0154, -0.0107),
        s0=0.8082,
        c=0.2290,
    ),
}


def impute(
    record: MetadataRecord,
    rng: np.random.Generator | None = None,
    deterministic: bool = False,
) -> ImputedMetadata:
    """Fill absent covariates and count them.

    Cholesterol values draw Gaussian noise around the population reference
    unless ``deterministic``; all other defaults are fixed. A missing gender
    counts toward the missing total and falls back to ``DEFAULT_GENDER``.
    Imputed values are not clamped to physiological ranges (negative draws
    are possible at roughly five standard deviations and are left as-is).
    """
    if not deterministic and rng is None:
        raise ValueError("stochastic imputation needs a seeded generator")
    missing = 0

    def noise(sd: float) -> float:
        return 0.0 if deterministic else float(rng.normal(0.0, sd))

    age = record.age
    if age is None:
        age, missing = AGE_IMPUTE, missing + 1
    gender = record.gender
    if gender is None:
        gender, missing = DEFAULT_GENDER, missing + 1
    smoking = record.smoking
    if smoking is None:
        smoking, missing = 0, missing + 1
    sbp = record.sbp
    if sbp is None:
        sbp, missing = SBP_IMPUTE, missing + 1
    diabetes = record.diabetes
    if diabetes is None:
        diabetes, missing = 0, missing + 1
    tchol = record.total_cholesterol
    if tchol is None:
        tchol, missing = TCHOL_IMPUTE_MEAN + noise(TCHOL_IMPUTE_SD), missing + 1
    hdl = record.hdl_cholesterol
    if hdl is None:
        hdl, missing = HDL_IMPUTE_MEAN + noise(HDL_IMPUTE_SD), missing + 1

    return ImputedMetadata(
        age=float(age),
        gender=gender,
        smoking=int(smoking),
        sbp=float(sbp),
        diabetes=int(diabetes),
        total_cholesterol=float(tchol),
        hdl_cholesterol=float(hdl),
        missing_count=missing,
    )


def standardize(meta: ImputedMetadata) -> np.ndarray:
    """Center and scale the covariates to the model's reference individual."""
    return np.array(
        [
            (meta.age - 60.0) / 5.0,
            float(meta.smoking),
            (meta.sbp - 120.0) / 20.0,
            float(meta.diabetes),
            meta.total_cholesterol - 6.0,
            (meta.hdl_cholesterol - 1.3) / 0.5,
        ]
    )


def select_stratum(age: float, gender: Gender) -> Score2Coefficients:
    """Pick the coefficient column for this age/gender; age 70 falls in >=70."""
    if age <= 0:
        raise ValueError("age must be positive")
    key = f"{gender}{'<70' if age < 70 else '>=70'}"
    return COEFFICIENTS[key]


def score2(meta: ImputedMetadata) -> RiskScore:
    """10-year risk 1 - S0^exp(chi - c) with chi = b1.u + u_age * (b2.u).

    The dot products accumulate left to right in covariate order so any
    direct transcription of the published formula reproduces the value
    bit for bit.
    """
    coef = select_stratum(meta.age, meta.gender)
    u = standardize(meta)
    main = 0.0
    interact = 0.0
    for i in range(6):
        main += coef.b1[i] * u[i]
        interact += coef.b2[i] * u[i]
    chi = main + u[0] * interact
    r = 1.0 - coef.s0 ** math.exp(chi - coef.c)
    return RiskScore(r=float(r), missing_count=meta.missing_count)


def risk_from_record(
    record: MetadataRecord,
    rng: np.random.Generator | None = None,
    deterministic: bool = False,
) -> RiskScore:
    """Convenience composition: impute then score."""
    return score2(impute(record, rng=rng, deterministic=deterministic))


# ---------------------------------------------------------------------------
# CSV interface shared with the CLI (columns: age,gender,smoking,sbp,
# diabetes,tchol,hdl; an empty cell means missing).

CSV_COLUMNS = ("age", "gender", "smoking", "sbp", "diabetes", "tchol", "hdl")


def record_from_csv_row(row: dict[str, str]) -> MetadataRecord:
    def num(key: str) -> float | None:
        v = row.get(key, "").strip()
        return float(v) if v else None

    def binary(key: str) -> int | None:
        # "1.0" reads as 1; any other value than 0 or 1 is refused, not truncated
        v = row.get(key, "").strip()
        if not v:
            return None
        try:
            value = float(v)
        except ValueError:
            value = math.nan
        if value not in (0.0, 1.0):
            raise ValueError(f"column {key!r}: {v!r} is not 0 or 1")
        return int(value)

    gender = row.get("gender", "").strip().lower() or None
    return MetadataRecord(
        age=num("age"),
        gender=gender,  # validated by MetadataRecord
        smoking=binary("smoking"),
        sbp=num("sbp"),
        diabetes=binary("diabetes"),
        total_cholesterol=num("tchol"),
        hdl_cholesterol=num("hdl"),
    )


def record_to_csv_row(record: MetadataRecord) -> dict[str, str]:
    def fmt(v) -> str:
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    return {
        "age": fmt(record.age),
        "gender": record.gender or "",
        "smoking": fmt(record.smoking),
        "sbp": fmt(record.sbp),
        "diabetes": fmt(record.diabetes),
        "tchol": fmt(record.total_cholesterol),
        "hdl": fmt(record.hdl_cholesterol),
    }
