"""Shared machinery of the locality-sensitive hashing baselines.

C2LSH [26] and QALSH [33] share the collision-counting framework: m 2-stable
(Gaussian) projections, a collision threshold l, *virtual rehashing* with
radii R ∈ {1, c, c², ...}, and the two termination conditions (k candidates
within c·R, or k + βn candidates verified).  This module holds the collision
probability functions and the (m, l) parameter derivation both papers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def e2lsh_collision_probability(distance: float, width: float) -> float:
    """P[floor((a·u + b)/w) = floor((a·v + b)/w)] at |u − v| = distance.

    The classic p-stable formula of Datar et al. [24]; C2LSH's p1/p2 values.
    """
    if distance <= 0.0:
        return 1.0
    from scipy.stats import norm
    t = width / distance
    return float(
        1.0 - 2.0 * norm.cdf(-t)
        - (2.0 / (math.sqrt(2.0 * math.pi) * t))
        * (1.0 - math.exp(-t * t / 2.0))
    )


def qalsh_collision_probability(distance: float, width: float) -> float:
    """P[|a·(u − v)| <= w/2] at |u − v| = distance — QALSH's query-centred
    bucket collision probability."""
    if distance <= 0.0:
        return 1.0
    from scipy.stats import norm
    return float(2.0 * norm.cdf(width / (2.0 * distance)) - 1.0)


@dataclass(frozen=True)
class CollisionParameters:
    """Derived LSH parameters.

    Attributes
    ----------
    num_functions:
        m — number of hash functions.
    threshold:
        l — collisions required before a point becomes a candidate.
    alpha:
        The collision-ratio the threshold corresponds to (l = α·m).
    p1 / p2:
        Collision probabilities at distance 1 and at distance c.
    """

    num_functions: int
    threshold: int
    alpha: float
    p1: float
    p2: float


def derive_collision_parameters(n: int, approximation_ratio: float,
                                width: float, error_probability: float,
                                false_positive_rate: float, probability_fn,
                                max_functions: int = 256
                                ) -> CollisionParameters:
    """The (m, l) derivation shared by C2LSH Sec. 4 and QALSH Sec. 5.

    α is chosen to balance the two Chernoff terms, then
    ``m = max( ln(1/δ)/(2(p1−α)²), ln(2/β)/(2(α−p2)²) )`` and ``l = α·m``.
    ``max_functions`` caps m for the scaled-down corpora of this
    reproduction (the scaling note of ``benchmarks/sweep.py``).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if approximation_ratio <= 1.0:
        raise ValueError("approximation ratio c must exceed 1")
    p1 = probability_fn(1.0, width)
    p2 = probability_fn(approximation_ratio, width)
    if not p2 < p1:
        raise ValueError("collision probabilities must satisfy p2 < p1")
    ln_delta = math.log(1.0 / error_probability)
    ln_beta = math.log(2.0 / max(false_positive_rate, 1e-12))
    z = math.sqrt(ln_beta / max(ln_delta, 1e-12))
    alpha = (z * p1 + p2) / (1.0 + z)
    m = max(
        ln_delta / (2.0 * (p1 - alpha) ** 2),
        ln_beta / (2.0 * (alpha - p2) ** 2),
    )
    m = max(1, min(int(math.ceil(m)), max_functions))
    threshold = max(1, int(math.ceil(alpha * m)))
    threshold = min(threshold, m)
    return CollisionParameters(num_functions=m, threshold=threshold,
                               alpha=alpha, p1=p1, p2=p2)


def gaussian_projections(dim: int, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """(count, dim) matrix of i.i.d. N(0, 1) projection vectors."""
    return rng.standard_normal(size=(count, dim))
