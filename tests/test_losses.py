"""Loss values against brute-force double-loop oracles, plus gradients."""

import math

import numpy as np
import pytest

from riskclr import autodiff as ad
from riskclr.autodiff import Tape, Tensor, grad_check
from riskclr.losses import (
    EmbeddingBatch,
    LossSpec,
    cosine_matrix,
    dissim_align,
    nt_xent,
    weighted_contrastive,
)
from riskclr.weighting import BatchRiskInfo, WeightMatrix, batch_weights, pairs_involution

# ---------------------------------------------------------------------------
# Brute-force oracles: plain Python double loops, no shared code with the
# package implementations.


def oracle_cos(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def oracle_nt_xent(Z, pos, tau):
    n = Z.shape[0]
    total = 0.0
    for i in range(n):
        num = math.exp(oracle_cos(Z[i], Z[pos[i]]) / tau)
        den = sum(math.exp(oracle_cos(Z[i], Z[k]) / tau) for k in range(n) if k != i)
        total += -math.log(num / den)
    return total / n


def oracle_weighted(Z, pos, tau, W):
    n = Z.shape[0]
    total = 0.0
    for i in range(n):
        num = math.exp(oracle_cos(Z[i], Z[pos[i]]) / tau)
        den = sum(W[i, k] * math.exp(oracle_cos(Z[i], Z[k]) / tau) for k in range(n) if k != i)
        total += -math.log(num / den)
    return total / n


def oracle_dissim(Z, W):
    n = Z.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            s = oracle_cos(Z[i], Z[j])
            total += ((1 + s) / 2 - (1 - W[i, j])) ** 2
    return total / (n * n)


def random_case(rng, n_samples, h):
    Z = rng.normal(size=(2 * n_samples, h))
    pos = pairs_involution(n_samples)
    info = BatchRiskInfo(
        r=np.repeat(rng.uniform(0, 1, n_samples), 2),
        m=np.repeat(rng.integers(0, 8, n_samples), 2),
        positive_of=pos,
    )
    wm = batch_weights(info, alpha=0.2)
    return Z, pos, wm


def cosine_of(a, b):
    return cosine_matrix(Tensor(np.stack([a, b]))).data[0, 1]


class TestCosine:
    def test_identity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_of(v, v) == pytest.approx(1.0)

    def test_antipodal(self):
        v = np.array([0.5, -2.0])
        assert cosine_of(v, -v) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine_of(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_of(np.zeros(3), np.ones(3))


class TestNtXent:
    def test_single_pair_batch_is_zero(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(2, 5))
        batch = EmbeddingBatch(Tensor(Z), pairs_involution(1), tau=0.07)
        assert nt_xent(batch).item() == pytest.approx(0.0, abs=1e-12)

    def test_identical_embeddings_log3(self):
        Z = np.tile(np.array([0.3, -1.2, 0.7]), (4, 1))
        batch = EmbeddingBatch(Tensor(Z), pairs_involution(2), tau=0.07)
        assert nt_xent(batch).item() == pytest.approx(math.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Z, pos, _ = random_case(rng, 4, 8)
        batch = EmbeddingBatch(Tensor(Z), pos, tau=0.07)
        assert abs(nt_xent(batch).item() - oracle_nt_xent(Z, pos, 0.07)) < 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        Z, pos, _ = random_case(rng, 4, 6)
        batch1 = EmbeddingBatch(Tensor(Z), pos)
        batch2 = EmbeddingBatch(Tensor(3.7 * Z), pos)
        assert abs(nt_xent(batch1).item() - nt_xent(batch2).item()) < 1e-12


class TestWeightedContrastive:
    def test_all_ones_reduces_to_nt_xent(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            Z, pos, _ = random_case(rng, int(rng.integers(2, 6)), 6)
            batch = EmbeddingBatch(Tensor(Z), pos, tau=0.07)
            ones = WeightMatrix(W=np.ones((len(pos), len(pos))), alpha=0.2)
            a = weighted_contrastive(batch, ones).item()
            b = nt_xent(batch).item()
            assert abs(a - b) <= 1e-10

    def test_halved_negatives_shift_by_log2(self):
        rng = np.random.default_rng(2)
        Z, pos, wm = random_case(rng, 4, 8)
        batch = EmbeddingBatch(Tensor(Z), pos, tau=0.07)
        halved = WeightMatrix(W=0.5 * wm.W, alpha=wm.alpha)
        full = weighted_contrastive(batch, wm).item()
        half = weighted_contrastive(batch, halved).item()
        assert half == pytest.approx(full - math.log(2.0), abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        Z, pos, wm = random_case(rng, 4, 8)
        batch = EmbeddingBatch(Tensor(Z), pos, tau=0.07)
        got = weighted_contrastive(batch, wm).item()
        assert abs(got - oracle_weighted(Z, pos, 0.07, wm.W)) < 1e-10

    def test_unweighted_anchor_rejected(self):
        rng = np.random.default_rng(5)
        Z, pos, wm = random_case(rng, 2, 4)
        W = wm.W.copy()
        W[0, :] = 0.0
        with pytest.raises(ValueError):
            weighted_contrastive(EmbeddingBatch(Tensor(Z), pos), WeightMatrix(W=W, alpha=0.2))


class TestDissimAlign:
    def test_exact_alignment_is_zero(self):
        # build Z whose cosines satisfy s_ij = 1 - 2 W_ij for every pair:
        # any W with all entries zero and identical embeddings does it
        Z = np.tile(np.array([1.0, 1.0]), (4, 1))
        W = WeightMatrix(W=np.zeros((4, 4)), alpha=0.2)
        batch = EmbeddingBatch(Tensor(Z), pairs_involution(2))
        assert dissim_align(batch, W).item() == pytest.approx(0.0, abs=1e-14)

    def test_identical_embeddings_mean_w_squared(self):
        rng = np.random.default_rng(4)
        _, pos, wm = random_case(rng, 3, 4)
        Z = np.tile(rng.normal(size=4), (6, 1))
        batch = EmbeddingBatch(Tensor(Z), pos)
        expected = float((wm.W ** 2).mean())
        assert dissim_align(batch, wm).item() == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        Z, pos, wm = random_case(rng, 4, 8)
        batch = EmbeddingBatch(Tensor(Z), pos)
        assert abs(dissim_align(batch, wm).item() - oracle_dissim(Z, wm.W)) < 1e-10

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            Z, pos, wm = random_case(rng, int(rng.integers(2, 5)), 5)
            batch = EmbeddingBatch(Tensor(Z), pos)
            assert dissim_align(batch, wm).item() >= 0.0


class TestTotalLoss:
    def test_lambda_zero_is_weighted_alone(self):
        rng = np.random.default_rng(7)
        Z, pos, wm = random_case(rng, 3, 6)
        batch = EmbeddingBatch(Tensor(Z), pos)
        got = LossSpec("w+d", lam=0.0).evaluate(batch, wm).item()
        assert got == weighted_contrastive(batch, wm).item()

    def test_lambda_one_is_plain_sum(self):
        rng = np.random.default_rng(8)
        Z, pos, wm = random_case(rng, 3, 6)
        batch = EmbeddingBatch(Tensor(Z), pos)
        want = weighted_contrastive(batch, wm).item() + dissim_align(batch, wm).item()
        got = LossSpec("w+d", lam=1.0).evaluate(batch, wm).item()
        assert got == pytest.approx(want, abs=1e-12)

    def test_normalized_mixture(self):
        rng = np.random.default_rng(9)
        Z, pos, wm = random_case(rng, 3, 6)
        batch = EmbeddingBatch(Tensor(Z), pos)
        lw = weighted_contrastive(batch, wm).item()
        ld = dissim_align(batch, wm).item()
        got = LossSpec("w+d", lam=5.0, normalize=True).evaluate(batch, wm).item()
        assert got == pytest.approx((lw + 5.0 * ld) / 6.0, abs=1e-12)

    def test_loss_spec_variants(self):
        rng = np.random.default_rng(10)
        Z, pos, wm = random_case(rng, 3, 6)
        batch = EmbeddingBatch(Tensor(Z), pos)
        assert LossSpec("nce").evaluate(batch, wm).item() == nt_xent(batch).item()
        assert LossSpec("d").evaluate(batch, wm).item() == dissim_align(batch, wm).item()
        mix = LossSpec("nce+d", lam=2.0, normalize=True).evaluate(batch, wm).item()
        want = (nt_xent(batch).item() + 2.0 * dissim_align(batch, wm).item()) / 3.0
        assert mix == pytest.approx(want, abs=1e-12)
        with pytest.raises(ValueError):
            LossSpec("bogus")

    @pytest.mark.parametrize("field,kwargs", [
        ("lam", {"lam": -1.0, "normalize": True}), ("lam", {"lam": math.nan}),
        ("lam", {"lam": math.inf}), ("lam", {"lam": "1"}),
        ("normalize", {"normalize": 1}), ("normalize", {"normalize": "yes"}),
    ])
    def test_loss_spec_names_bad_field(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LossSpec("w+d", **kwargs)


class TestGradients:
    """Analytic gradients w.r.t. Z match central differences."""

    @pytest.mark.parametrize("n_samples,h", [(2, 4), (2, 8), (4, 4), (4, 8)])
    @pytest.mark.parametrize("which", ["nce", "w", "d", "total"])
    def test_fd_gradients(self, n_samples, h, which):
        worst = 0.0
        for seed in range(3):
            rng = np.random.default_rng(1000 * n_samples + 100 * h + seed)
            Z, pos, wm = random_case(rng, n_samples, h)
            tau = float(rng.uniform(0.05, 0.5))

            def f(zt):
                batch = EmbeddingBatch(zt, pos, tau=tau)
                if which == "nce":
                    return nt_xent(batch)
                if which == "w":
                    return weighted_contrastive(batch, wm)
                if which == "d":
                    return dissim_align(batch, wm)
                return LossSpec("w+d").evaluate(batch, wm)

            worst = max(worst, grad_check(f, [Z], eps=1e-5))
        assert worst < 1e-4

    def test_permutation_equivariance_of_losses(self):
        rng = np.random.default_rng(11)
        Z, pos, wm = random_case(rng, 4, 6)
        perm = rng.permutation(8)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(8)
        Zp = Z[perm]
        posp = inv[pos[perm]]
        Wp = wm.W[np.ix_(perm, perm)]
        b1 = EmbeddingBatch(Tensor(Z), pos)
        b2 = EmbeddingBatch(Tensor(Zp), posp)
        wm2 = WeightMatrix(W=Wp, alpha=wm.alpha)
        assert nt_xent(b1).item() == pytest.approx(nt_xent(b2).item(), abs=1e-12)
        assert weighted_contrastive(b1, wm).item() == pytest.approx(
            weighted_contrastive(b2, wm2).item(), abs=1e-12)
        assert dissim_align(b1, wm).item() == pytest.approx(
            dissim_align(b2, wm2).item(), abs=1e-12)

    def test_gradients_flow_to_parameters_through_loss(self):
        rng = np.random.default_rng(12)
        Z0 = rng.normal(size=(4, 5))
        w = ad.parameter(rng.normal(size=(5, 5)))
        wm = WeightMatrix(W=np.ones((4, 4)) - np.eye(4), alpha=0.2)
        with Tape() as tape:
            z = ad.matmul(Tensor(Z0), w)
            loss = LossSpec("w+d").evaluate(EmbeddingBatch(z, pairs_involution(2)), wm)
        tape.backward(loss)
        assert w.grad is not None and np.any(w.grad != 0)


class TestBatchValidation:
    def test_tau_positive(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(Tensor(np.ones((2, 2))), pairs_involution(1), tau=0.0)

    def test_involution_checked(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(Tensor(np.ones((2, 2))), np.array([0, 1]))
