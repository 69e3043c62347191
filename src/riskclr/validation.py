"""Finite-difference validation harness shared by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .autodiff import grad_check
from .encoder import STANDARD_CONFIGS, build
from .losses import EmbeddingBatch, LossSpec, dissim_align, nt_xent, weighted_contrastive
from .weighting import BatchRiskInfo, batch_weights, pairs_involution


def _random_case(rng: np.random.Generator, n_samples: int, h: int):
    Z = rng.normal(size=(2 * n_samples, h))
    pos = pairs_involution(n_samples)
    info = BatchRiskInfo(
        r=np.repeat(rng.uniform(0, 1, n_samples), 2),
        m=np.repeat(rng.integers(0, 8, n_samples), 2),
        positive_of=pos,
    )
    return Z, pos, batch_weights(info, alpha=0.2)


def loss_gradchecks(seed: int = 0, instances: int = 10, eps: float = 1e-5) -> dict[str, float]:
    """Worst relative FD error per loss over random (Z, W, tau) instances.

    Instances cycle through B in {2, 4} and h in {4, 8}.
    """
    fns = {
        "nt_xent": lambda batch, wm: nt_xent(batch),
        "weighted_contrastive": weighted_contrastive,
        "dissim_align": dissim_align,
        "total_loss": LossSpec("w+d").evaluate,
    }
    worst = {name: 0.0 for name in fns}
    grid = [(b, h) for b in (2, 4) for h in (4, 8)]
    for i in range(instances):
        n_samples, h = grid[i % len(grid)]
        rng = np.random.default_rng([seed, i])
        Z, pos, wm = _random_case(rng, n_samples, h)
        tau = float(rng.uniform(0.05, 0.5))
        for name, fn in fns.items():
            def f(zt):
                return fn(EmbeddingBatch(zt, pos, tau=tau), wm)

            worst[name] = max(worst[name], grad_check(f, [Z], eps=eps))
    return worst


def encoder_gradcheck(seed: int = 0, n_samples: int = 2, t: int = 256,
                      eps: float = 1e-5) -> float:
    """FD check of every encoder parameter through encoder + total loss."""
    rng = np.random.default_rng([seed, 999])
    encoder = build(STANDARD_CONFIGS["tiny"], seed=seed)  # float64 mode
    views = rng.normal(size=(2 * n_samples, t))
    _, pos, wm = _random_case(rng, n_samples, encoder.config.output_dim)

    names = list(encoder.params)
    points = [encoder.params[n].data.copy() for n in names]

    def f(*tensors):
        for name, tensor in zip(names, tensors):
            encoder.params[name] = tensor
        z = encoder.forward(views)
        return LossSpec("w+d").evaluate(EmbeddingBatch(z, pos, tau=0.07), wm)

    return grad_check(f, points, eps=eps)


def random_weight_batch(seed: int = 0, n_samples: int = 8) -> np.ndarray:
    """A representative weight matrix for CSV inspection."""
    rng = np.random.default_rng([seed, 5])
    _, _, wm = _random_case(rng, n_samples, 4)
    return wm.W
