"""Per-batch pairwise weights for the contrastive objective.

For 2B augmented views the weight matrix is the Hadamard product of two
parts: a dissimilarity matrix D built from squared risk-score differences,
batch-normalized into [alpha, 1] for non-positive pairs and zeroed on the
diagonal and positive pairs, and a missingness multiplier M that discounts
pairs whose risk scores leaned on imputed covariates.

Note on M: the multiplier exp(-((A-m_i)/A)((A-m_k)/A)) is largest (1.0) when
*all* covariates are missing and smallest (e^-1) when none are. It is applied
verbatim here; callers should read it as "fully observed pairs get the
reference discount e^-1, unreliable pairs are not pushed further apart than
their risk difference warrants" rather than as a penalty on missingness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .risk_score import N_COVARIATES


@dataclass(frozen=True)
class BatchRiskInfo:
    """Risk and missingness per view, plus the positive-pair involution.

    Augmentation never changes metadata, so the two views of one sample must
    carry identical risk; construction enforces that, along with the
    involution being fixed-point free.
    """

    r: np.ndarray  # (2B,) risk per view, each in [0, 1]
    m: np.ndarray  # (2B,) missing-covariate count per view
    positive_of: np.ndarray  # (2B,) index of each view's positive partner

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        m = np.asarray(self.m, dtype=np.int64)
        pos = np.asarray(self.positive_of, dtype=np.int64)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "positive_of", pos)
        n = r.shape[0]
        if n % 2 != 0 or m.shape[0] != n or pos.shape[0] != n:
            raise ValueError("r, m, positive_of must share an even length 2B")
        if np.any(pos == np.arange(n)) or np.any(pos[pos] != np.arange(n)):
            raise ValueError("positive_of must be an involution without fixed points")
        if not np.all((r >= 0) & (r <= 1)):  # NaN fails here, not as a pair mismatch
            raise ValueError("risk scores must lie in [0, 1]")
        if np.any((m < 0) | (m > N_COVARIATES)):
            raise ValueError("missing counts must lie in [0, A]")
        if not np.array_equal(r, r[pos]):
            raise ValueError("positive partners must share the same risk score")


@dataclass(frozen=True)
class WeightMatrix:
    W: np.ndarray  # (2B, 2B), entries in [0, 1], zero on diagonal and positives
    alpha: float

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        object.__setattr__(self, "W", W)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("W must be square")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def pairs_involution(n_samples: int) -> np.ndarray:
    """Positive map for interleaved two-view batches: 2t <-> 2t+1."""
    idx = np.arange(2 * n_samples)
    return idx ^ 1


def missingness_matrix(m: np.ndarray) -> np.ndarray:
    """M[i,k] = exp(-((A-m_i)/A) * ((A-m_k)/A)); entries in (0, 1]."""
    m = np.asarray(m, dtype=np.float64)
    if np.any((m < 0) | (m > N_COVARIATES)):
        raise ValueError("missing counts must lie in [0, A]")
    frac = (N_COVARIATES - m) / N_COVARIATES
    return np.exp(-np.outer(frac, frac))


def dissimilarity_matrix(
    r: np.ndarray,
    alpha: float,
    positive_of: np.ndarray,
) -> np.ndarray:
    """Squared risk differences normalized into [alpha, 1] off the positives.

    Extremes of delta are taken over all ordered pairs i != k, positives
    included; since positives share risk, delta_min is 0 whenever the batch
    holds at least one positive pair, which pins the normalization. In a
    degenerate batch (all deltas equal) every non-positive entry is alpha.
    Diagonal and positive-pair entries are forced to 0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    r = np.asarray(r, dtype=np.float64)
    pos = np.asarray(positive_of, dtype=np.int64)
    n = r.shape[0]
    diff = r[:, None] - r[None, :]
    delta = diff * diff
    off = ~np.eye(n, dtype=bool)
    d_min = delta[off].min()
    d_max = delta[off].max()
    if d_max > d_min:
        D = (1.0 - alpha) * (delta - d_min) / (d_max - d_min) + alpha
    else:
        D = np.full_like(delta, alpha)
    D[np.arange(n), np.arange(n)] = 0.0
    D[np.arange(n), pos] = 0.0
    return D


def weight_matrix(D: np.ndarray, M: np.ndarray, alpha: float) -> WeightMatrix:
    """Hadamard product W = D * M."""
    D = np.asarray(D, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if D.shape != M.shape:
        raise ValueError(f"shape mismatch: D {D.shape} vs M {M.shape}")
    return WeightMatrix(W=D * M, alpha=alpha)


def batch_weights(info: BatchRiskInfo, alpha: float) -> WeightMatrix:
    """Full pipeline for one batch: D and M from risk info, then W = D * M."""
    D = dissimilarity_matrix(info.r, alpha, info.positive_of)
    M = missingness_matrix(info.m)
    return weight_matrix(D, M, alpha)
