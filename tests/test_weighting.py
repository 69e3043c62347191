"""Weight-matrix construction: examples, ranges, and invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskclr.weighting import (
    BatchRiskInfo,
    WeightMatrix,
    batch_weights,
    dissimilarity_matrix,
    missingness_matrix,
    pairs_involution,
    weight_matrix,
)


def random_batch_info(rng, n_samples, degenerate=False):
    r_samples = np.full(n_samples, 0.3) if degenerate else rng.uniform(0, 1, n_samples)
    m_samples = rng.integers(0, 8, n_samples)
    return BatchRiskInfo(
        r=np.repeat(r_samples, 2),
        m=np.repeat(m_samples, 2),
        positive_of=pairs_involution(n_samples),
    )


class TestMissingness:
    def test_fully_observed_pair(self):
        M = missingness_matrix(np.array([0, 0]))
        np.testing.assert_allclose(M, math.exp(-1.0))

    def test_fully_missing_pair(self):
        M = missingness_matrix(np.array([7, 7]))
        np.testing.assert_allclose(M, 1.0)

    def test_four_missing(self):
        # exp(-(3/7)^2), recomputed directly
        M = missingness_matrix(np.array([4, 4]))
        np.testing.assert_allclose(M, math.exp(-((3 / 7) ** 2)))
        assert abs(M[0, 0] - 0.8322075006903012) < 1e-15

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 8, 12)
        M = missingness_matrix(m)
        assert np.all(M > 0) and np.all(M <= 1)
        np.testing.assert_array_equal(M, M.T)

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError):
            missingness_matrix(np.array([8, 0]))


class TestDissimilarity:
    def test_normalization_endpoints(self):
        # three samples, six views; deltas span 0 .. max
        r = np.repeat([0.0, 0.5, 1.0], 2)
        pos = pairs_involution(3)
        D = dissimilarity_matrix(r, alpha=0.2, positive_of=pos)
        # delta_min = 0 (positives), delta_max = 1 between r=0 and r=1
        assert D[0, 4] == pytest.approx(1.0)
        # views of the same risk but different samples: delta = 0 -> alpha
        assert D[0, 1] == 0.0  # positive pair forced to zero
        np.testing.assert_allclose(np.diag(D), 0.0)

    def test_midpoint_linearity(self):
        # delta values 0, 0.25, 1 over pairs; the 0.25 pair maps linearly
        r = np.repeat([0.0, 0.5, 1.0], 2)
        D = dissimilarity_matrix(r, alpha=0.2, positive_of=pairs_involution(3))
        assert D[0, 2] == pytest.approx(0.2 + 0.8 * 0.25)
        mid = 0.5 * (0.0 + 1.0)
        assert (1 - 0.2) * mid + 0.2 == pytest.approx(0.6)  # documented midpoint rule

    def test_degenerate_batch_uniform_alpha(self):
        r = np.full(6, 0.4)
        D = dissimilarity_matrix(r, alpha=0.2, positive_of=pairs_involution(3))
        off = ~np.eye(6, dtype=bool)
        pos_mask = np.zeros((6, 6), dtype=bool)
        pos_mask[np.arange(6), pairs_involution(3)] = True
        assert np.all(D[off & ~pos_mask] == 0.2)
        assert np.all(D[pos_mask] == 0.0)

    def test_two_sample_identical_risk_example(self):
        # batch of 2 samples, identical r, m = 0: every negative entry of W
        # is alpha * e^-1
        info = BatchRiskInfo(
            r=np.full(4, 0.25),
            m=np.zeros(4, dtype=int),
            positive_of=pairs_involution(2),
        )
        wm = batch_weights(info, alpha=0.2)
        negatives = wm.W[0, 2], wm.W[0, 3], wm.W[1, 2], wm.W[2, 0]
        for v in negatives:
            assert v == pytest.approx(0.2 * math.exp(-1.0), abs=1e-12)
        assert abs(negatives[0] - 0.0735758882342885) < 1e-12

    def test_alpha_bounds_checked(self):
        with pytest.raises(ValueError):
            dissimilarity_matrix(np.zeros(4), alpha=1.5, positive_of=pairs_involution(2))


class TestWeightMatrix:
    def test_product(self):
        D = np.ones((4, 4))
        M = np.full((4, 4), math.exp(-1.0))
        wm = weight_matrix(D, M, alpha=0.2)
        np.testing.assert_allclose(wm.W, math.exp(-1.0))

    def test_zero_positives_survive_product(self):
        rng = np.random.default_rng(1)
        info = random_batch_info(rng, 4)
        wm = batch_weights(info, alpha=0.2)
        pos = info.positive_of
        idx = np.arange(8)
        assert np.all(wm.W[idx, pos] == 0.0)
        assert np.all(wm.W[idx, idx] == 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weight_matrix(np.ones((4, 4)), np.ones((6, 6)), alpha=0.2)

    def test_ranges_over_random_batches(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            info = random_batch_info(rng, int(rng.integers(2, 9)))
            alpha = float(rng.uniform(0, 1))
            D = dissimilarity_matrix(info.r, alpha, info.positive_of)
            M = missingness_matrix(info.m)
            W = weight_matrix(D, M, alpha).W
            n = len(info.r)
            pos_mask = np.zeros((n, n), dtype=bool)
            pos_mask[np.arange(n), info.positive_of] = True
            off = ~np.eye(n, dtype=bool) & ~pos_mask
            assert np.all(D[off] >= alpha - 1e-12) and np.all(D[off] <= 1 + 1e-12)
            assert np.all(M > math.exp(-1.0) - 1e-12) and np.all(M <= 1.0)
            assert np.all(W >= 0.0) and np.all(W <= 1.0)

    def test_symmetry_when_inputs_symmetric(self):
        rng = np.random.default_rng(2)
        info = random_batch_info(rng, 5)
        W = batch_weights(info, alpha=0.3).W
        np.testing.assert_allclose(W, W.T)


class TestInvariances:
    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 6),
        a=st.floats(0.1, 5.0),
        b=st.floats(-0.2, 0.2),
    )
    def test_affine_risk_invariance(self, seed, n, a, b):
        # D is unchanged by r -> a*r + b (delta scales by a^2, normalization
        # cancels); scaled risks may leave [0,1] so D is called directly.
        rng = np.random.default_rng(seed)
        r = np.repeat(rng.uniform(0, 1, n), 2)
        pos = pairs_involution(n)
        D1 = dissimilarity_matrix(r, 0.2, pos)
        D2 = dissimilarity_matrix(a * r + b, 0.2, pos)
        np.testing.assert_allclose(D1, D2, atol=1e-12)

    def test_monotone_in_risk_gap(self):
        base = np.repeat([0.2, 0.4, 0.9], 2)
        moved = np.repeat([0.1, 0.4, 0.9], 2)  # widen |r0 - r1|
        pos = pairs_involution(3)
        D1 = dissimilarity_matrix(base, 0.2, pos)
        D2 = dissimilarity_matrix(moved, 0.2, pos)
        assert D2[0, 2] >= D1[0, 2] - 1e-12

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    def test_permutation_equivariance(self, seed, n):
        rng = np.random.default_rng(seed)
        info = random_batch_info(rng, n)
        W = batch_weights(info, 0.2).W
        perm = rng.permutation(2 * n)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(2 * n)
        permuted = BatchRiskInfo(
            r=info.r[perm],
            m=info.m[perm],
            positive_of=inv[info.positive_of[perm]],
        )
        W_perm = batch_weights(permuted, 0.2).W
        np.testing.assert_allclose(W_perm, W[np.ix_(perm, perm)], atol=1e-12)


class TestBatchRiskInfo:
    def test_rejects_mismatched_positive_risk(self):
        with pytest.raises(ValueError):
            BatchRiskInfo(r=np.array([0.1, 0.2]), m=np.zeros(2, dtype=int),
                          positive_of=np.array([1, 0]))

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_rejects_out_of_range_risk(self, bad):
        with pytest.raises(ValueError, match=r"risk scores must lie in \[0, 1\]"):
            BatchRiskInfo(r=np.array([bad, bad]), m=np.zeros(2, dtype=int),
                          positive_of=np.array([1, 0]))

    def test_rejects_fixed_points(self):
        with pytest.raises(ValueError):
            BatchRiskInfo(r=np.zeros(2), m=np.zeros(2, dtype=int),
                          positive_of=np.array([0, 1]))

    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError):
            WeightMatrix(W=np.ones((2, 3)), alpha=0.2)
        with pytest.raises(ValueError):
            WeightMatrix(W=np.ones((2, 2)), alpha=-0.1)
