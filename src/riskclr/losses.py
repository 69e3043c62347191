"""Contrastive and alignment losses as differentiable graph nodes.

All three losses consume a batch of 2B view embeddings and produce scalar
Tensors; gradients w.r.t. the embeddings (and anything upstream, e.g. encoder
parameters) come from the enclosing Tape.

Sign convention: the weighted contrastive loss is the plain average over the
2B anchors of the per-anchor term -log(num/den). With the batch weight matrix
in play, the positive's weight is 0, so the positive term drops out of the
denominator; that makes negative loss values possible and they are not
clamped.

Values are bit-identical for any CPU count or affinity at a fixed BLAS
thread count: the encoder ops that split a batch over the CPUs keep every sum
in sample order (see ``autodiff``). OpenBLAS sizes its own pool from the
affinity unless OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checks import BOOL, NON_NEGATIVE, check_fields, one_of
from .weighting import WeightMatrix

DEFAULT_TAU = 0.07
DEFAULT_ALPHA = 0.2


@dataclass
class EmbeddingBatch:
    """2B view embeddings, their positive-pair involution, and temperature."""

    z: Tensor  # (2B, h); rows need not be unit norm (cosine handles norms)
    positive_of: np.ndarray
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if not isinstance(self.z, Tensor):
            self.z = Tensor(self.z)
        self.positive_of = np.asarray(self.positive_of, dtype=np.int64)
        n = self.z.data.shape[0]
        if self.tau <= 0:
            raise ValueError("temperature must be positive")
        if self.positive_of.shape[0] != n:
            raise ValueError("positive_of length must match the batch")
        if np.any(self.positive_of == np.arange(n)) or np.any(
            self.positive_of[self.positive_of] != np.arange(n)
        ):
            raise ValueError("positive_of must be an involution without fixed points")

    @property
    def n_views(self) -> int:
        return self.z.data.shape[0]


def cosine_matrix(z: Tensor) -> Tensor:
    """All-pairs cosine similarities as a differentiable (2B, 2B) node."""
    zn = ad.row_l2_normalize(z)
    return ad.matmul(zn, ad.transpose(zn))


def _offdiag_mask(n: int) -> np.ndarray:
    return 1.0 - np.eye(n)


def _positive_mask(positive_of: np.ndarray) -> np.ndarray:
    n = positive_of.shape[0]
    P = np.zeros((n, n))
    P[np.arange(n), positive_of] = 1.0
    return P


def _contrastive(batch: EmbeddingBatch, den_mask: np.ndarray) -> Tensor:
    """Mean over anchors i of -log(exp(s_ij/tau) / sum_k mask_ik exp(s_ik/tau)),
    j being i's positive."""
    logits = ad.mul(cosine_matrix(batch.z), 1.0 / batch.tau)
    pos_logit = ad.sum_(ad.mul(logits, _positive_mask(batch.positive_of)), axis=1)
    den = ad.sum_(ad.mul(ad.exp(logits), den_mask), axis=1)
    return ad.mean(ad.sub(ad.log(den), pos_logit))


def nt_xent(batch: EmbeddingBatch) -> Tensor:
    """Normalized temperature-scaled cross entropy over all 2B anchors.

    Per anchor i with positive j: -log(exp(s_ij/tau) / sum_{k != i}
    exp(s_ik/tau)); the positive term stays in the denominator.
    """
    return _contrastive(batch, _offdiag_mask(batch.n_views))


def weighted_contrastive(batch: EmbeddingBatch, weights: WeightMatrix) -> Tensor:
    """Contrastive loss with per-pair denominator weights.

    Weights are applied exactly as supplied: a batch-built WeightMatrix zeroes
    the positive (excluding it from the denominator), while an explicit all-
    ones matrix reproduces nt_xent.
    """
    n = batch.n_views
    W = weights.W
    if W.shape != (n, n):
        raise ValueError(f"weight matrix {W.shape} does not conform to batch of {n} views")
    if np.any(W < 0):
        raise ValueError("weights must be non-negative")
    mask = W * _offdiag_mask(n)
    if np.any(mask.sum(axis=1) <= 0.0):
        raise ValueError("an anchor has no positively-weighted negative; denominator would vanish")
    return _contrastive(batch, mask)


def dissim_align(batch: EmbeddingBatch, weights: WeightMatrix) -> Tensor:
    """Mean squared gap between rescaled similarity and 1 - W over view pairs.

    Averages ((1+s_ij)/2 - (1-W_ij))^2 over all (2B)^2 ordered pairs so the
    value is a mean regardless of batch size; diagonal terms vanish because
    s_ii = 1 and W_ii = 0.
    """
    n = batch.n_views
    W = weights.W
    if W.shape != (n, n):
        raise ValueError(f"weight matrix {W.shape} does not conform to batch of {n} views")
    sims = cosine_matrix(batch.z)
    rescaled = ad.mul(ad.add(sims, 1.0), 0.5)
    gap = ad.sub(rescaled, 1.0 - W)
    return ad.mean(ad.square(gap))


@dataclass(frozen=True)
class LossSpec:
    """Which pretraining objective to run; covers the ablation variants."""

    kind: str = "w+d"  # one of: nce, w, d, nce+d, w+d
    lam: float = 1.0
    normalize: bool = False

    KINDS = ("nce", "w", "d", "nce+d", "w+d")

    def __post_init__(self):
        check_fields(self, kind=one_of(*self.KINDS), lam=NON_NEGATIVE, normalize=BOOL)

    def label(self) -> str:
        if self.kind in ("nce+d", "w+d") and self.lam != 1.0:
            return f"{self.kind}(lam={self.lam:g})"
        return self.kind

    def evaluate(self, batch: EmbeddingBatch, weights: WeightMatrix) -> Tensor:
        if self.kind == "nce":
            return nt_xent(batch)
        if self.kind == "w":
            return weighted_contrastive(batch, weights)
        if self.kind == "d":
            return dissim_align(batch, weights)
        base = nt_xent(batch) if self.kind == "nce+d" else weighted_contrastive(batch, weights)
        out = ad.add(base, ad.mul(dissim_align(batch, weights), self.lam))
        if self.normalize:
            out = ad.mul(out, 1.0 / (1.0 + self.lam))
        return out
