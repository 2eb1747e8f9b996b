"""Similarity statistics, confidence halfwidths, and a finite-difference oracle.

Parameters, gradients and clustering items are plain 1-D float64 arrays
throughout the package. Finiteness is guaranteed where values enter or are
computed: the public meta entry points (adapt_tree, meta_gradient,
outer_update, adapt_and_evaluate) check omega's shape, dtype and finiteness
once, and the engine checks each step's gradients and parameters, the
meta-gradient and the outer step as whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class NumericalError(ValueError):
    """A value is NaN/Inf where a finite real is required."""


class ZeroVectorError(ValueError):
    """Cosine similarity is undefined for a zero-norm vector."""


class InsufficientSamplesError(ValueError):
    """A statistic was asked for with fewer samples than it needs."""


@dataclass(frozen=True)
class SimilarityStats:
    """Mean/std over the pairwise similarities of a vector set.

    std is the population standard deviation; count_pairs is the number of
    unordered pairs that entered the statistics.
    """

    mean_pairwise: float
    std_pairwise: float
    count_pairs: int


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between the 1-D arrays a and b, in [-1, 1].

    Raises ZeroVectorError when either vector has zero norm.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine similarity undefined for zero vector")
    return float(a @ b) / (na * nb)


def set_similarity(vectors: Iterable[np.ndarray]) -> SimilarityStats:
    """Pairwise cosine statistics over an unordered set of 1-D arrays.

    Sets of size 0 or 1 have no pairs; by convention they are maximally
    coherent: mean 1.0, std 0.0, count 0.
    """
    vs = list(vectors)
    n = len(vs)
    if n <= 1:
        return SimilarityStats(1.0, 0.0, 0)
    if n == 2:
        return SimilarityStats(cosine_similarity(vs[0], vs[1]), 0.0, 1)
    mat = np.stack(vs)
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    gram = mat @ mat.T
    rows, cols = np.triu_indices(n, k=1)
    arr = gram[rows, cols] / (norms[rows] * norms[cols])
    return SimilarityStats(float(arr.mean()), float(arr.std(ddof=0)), arr.size)


def confidence_halfwidth_95(samples: Sequence[float]) -> float:
    """Halfwidth of the normal-approximation 95% CI: 1.96 * s / sqrt(n).

    s is the sample standard deviation (ddof=1). Needs at least two samples.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size < 2:
        raise InsufficientSamplesError("confidence interval needs >= 2 samples")
    return float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    Independent oracle for analytic gradients: evaluates f at x +- h*e_i per
    coordinate. Raises NumericalError if any evaluation is non-finite.
    """
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    base = np.asarray(x, dtype=np.float64)
    grad = np.empty(base.shape[0])
    for i in range(base.shape[0]):
        bumped = base.copy()
        bumped[i] = base[i] + h
        fp = float(f(bumped))
        bumped[i] = base[i] - h
        fm = float(f(bumped))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericalError(f"non-finite f at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad
