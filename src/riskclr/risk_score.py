"""SCORE2 10-year cardiovascular risk from (possibly incomplete) metadata.

The score uses seven covariates: age, gender, smoking status, systolic blood
pressure, diabetes status, total cholesterol, and HDL cholesterol. One table,
``COVARIATES``, holds each one's record field, CSV column, kind, imputed
default and imputation-noise sd; record validation, imputation and the CSV
reader and writer all read it, while ``standardize`` and ``score2`` spell out
the published formula. Missing covariates are imputed (population reference
values, optionally with Gaussian noise for the cholesterol pair) and counted;
the count travels with the risk value so batch weighting can discount
poorly-supported scores.

The CSV reader refuses a cell the record would refuse, or a number cell that
does not parse, with a message that names the cell's column. The ``score2``
command refuses a header that lacks one of the seven columns before it reads
any row, so a misspelled column cannot be imputed on every row.

Regional calibration is deliberately omitted: the uncalibrated 10-year risk
is used directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Gender = Literal["male", "female"]

# One row per covariate, in SCORE2 order: record field, CSV column, kind, the
# value imputed when it is absent, and the sd of the Gaussian noise that
# stochastic imputation adds to that value (0: the bare value). The
# cholesterol pair uses population reference means with biological-variation
# noise, binary statuses default to absent, age to 40, sbp to the
# standardization reference, and an absent gender to male (still counted).
COVARIATES: tuple[tuple[str, str, str, float | int | str, float], ...] = (
    ("age", "age", "number", 40.0, 0.0),
    ("gender", "gender", "gender", "male", 0.0),
    ("smoking", "smoking", "binary", 0, 0.0),
    ("sbp", "sbp", "number", 120.0, 0.0),
    ("diabetes", "diabetes", "binary", 0, 0.0),
    ("total_cholesterol", "tchol", "number", 5.2, 0.5),
    ("hdl_cholesterol", "hdl", "number", 1.3, 0.2),
)
N_COVARIATES = len(COVARIATES)

# kind -> (test a present value passes, what the refusal says it must be, cast)
_KINDS = {
    "number": (lambda v: math.isfinite(v) and v > 0, "positive and finite", float),
    "binary": (lambda v: v in (0, 1), "0 or 1", int),
    "gender": (lambda v: v in ("male", "female"), "'male' or 'female'", str),
}


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
        for name, _, kind, _, _ in COVARIATES:
            v = getattr(self, name)
            valid, expected, _ = _KINDS[kind]
            if v is not None and not valid(v):
                raise ValueError(f"{name} must be {expected} when present, got {v!r}")


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

    b1: tuple[float, ...]  # main effects for the six standardized covariates
    b2: tuple[float, ...]  # age-interaction terms; first entry is exactly 0
    s0: float  # baseline 10-year survival
    c: float  # offset applied inside the exponent


@dataclass(frozen=True)
class RiskScore:
    r: float
    missing_count: int


# Stratified coefficients by gender and age group (<70 vs >=70). Order within
# b1: age, smoking, sbp, diabetes, total cholesterol, HDL cholesterol; b2
# holds the age interactions for the same covariates (age slot fixed at 0).
COEFFICIENTS: dict[str, Score2Coefficients] = {
    "male<70": Score2Coefficients(
        b1=(0.3742, 0.6012, 0.2777, 0.6457, 0.1458, -0.2698),
        b2=(0.0, -0.0755, -0.0255, -0.0281, 0.0426, -0.0983),
        s0=0.9605,
        c=0.0,
    ),
    "female<70": Score2Coefficients(
        b1=(0.4648, 0.7744, 0.3131, 0.8096, 0.1002, -0.2606),
        b2=(0.0, -0.1088, -0.0277, -0.0226, 0.0613, -0.1272),
        s0=0.9776,
        c=0.0,
    ),
    "male>=70": Score2Coefficients(
        b1=(0.0634, 0.3524, 0.0094, 0.4245, 0.0850, -0.3564),
        b2=(0.0, -0.0247, -0.0005, 0.0073, 0.0091, -0.0174),
        s0=0.7576,
        c=0.0929,
    ),
    "female>=70": Score2Coefficients(
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
    unless ``deterministic``; all other defaults are fixed (see
    ``COVARIATES``). A missing gender counts toward the missing total and
    falls back to male. Imputed values are not clamped to physiological
    ranges (negative draws are possible at roughly five standard deviations
    and are left as-is).
    """
    if not deterministic and rng is None:
        raise ValueError("stochastic imputation needs a seeded generator")
    values, missing = {}, 0
    for name, _, kind, default, sd in COVARIATES:
        v = getattr(record, name)
        if v is None:
            missing += 1
            v = default if deterministic or not sd else default + float(rng.normal(0.0, sd))
        _, _, cast = _KINDS[kind]
        values[name] = cast(v)
    return ImputedMetadata(**values, missing_count=missing)


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
# CSV interface shared with the CLI: one column per covariate, an empty cell
# means missing.

CSV_COLUMNS = tuple(column for _, column, _, _, _ in COVARIATES)


def _read_cell(column: str, kind: str, text: str) -> float | int | str:
    valid, expected, cast = _KINDS[kind]
    if kind == "gender":
        value = text.lower()
    else:
        try:
            value = float(text)
        except ValueError:
            if kind == "number":
                raise ValueError(f"column {column!r}: {text!r} is not a number") from None
            value = math.nan
    # a binary "1.0" reads as 1; any other value than 0 or 1 is refused, not truncated
    if not valid(value):
        raise ValueError(f"column {column!r}: {text!r} is not {expected}")
    return cast(value)


def record_from_csv_row(row: dict[str, str | None]) -> MetadataRecord:
    """Read one row; an empty cell, or one a short row leaves out (``None``),
    is a missing covariate. Callers check the header for absent columns."""
    values = {}
    for name, column, kind, _, _ in COVARIATES:
        text = (row.get(column) or "").strip()
        values[name] = _read_cell(column, kind, text) if text else None
    return MetadataRecord(**values)


def record_to_csv_row(record: MetadataRecord) -> dict[str, str]:
    def fmt(v) -> str:
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    return {column: fmt(getattr(record, name)) for name, column, _, _, _ in COVARIATES}
