"""Parameter vectors, similarity statistics, and a finite-difference oracle.

Everything downstream (models, clustering, meta-training) moves data around as
ParamVector instances, so the finiteness guarantee lives in exactly one place.
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


class ParamVector:
    """Immutable flat vector of float64 parameters.

    The constructor rejects non-finite entries, so a NaN produced anywhere
    surfaces at the operation that created it instead of propagating silently
    through an experiment.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("ParamVector requires a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise NumericalError("ParamVector entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def rows(cls, matrix) -> list:
        """One ParamVector per row of a 2-D array, checked for finiteness once.

        The rows are read-only views of one frozen copy of the array.
        """
        arr = np.array(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise ValueError("ParamVector.rows requires a 2-D array with non-empty rows")
        if not np.all(np.isfinite(arr)):
            raise NumericalError("ParamVector entries must be finite")
        arr.setflags(write=False)
        out = []
        for row in arr:
            v = object.__new__(cls)
            v._values = row
            out.append(v)
        return out

    @property
    def values(self) -> np.ndarray:
        """The underlying read-only float64 array."""
        return self._values

    @property
    def dim(self) -> int:
        return self._values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self._values))

    def to_list(self) -> list:
        return [float(v) for v in self._values]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamVector):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        return f"ParamVector({np.array2string(self._values, max_line_width=70)})"


@dataclass(frozen=True)
class SimilarityStats:
    """Mean/std over the pairwise similarities of a vector set.

    std is the population standard deviation; count_pairs is the number of
    unordered pairs that entered the statistics.
    """

    mean_pairwise: float
    std_pairwise: float
    count_pairs: int


def cosine_similarity(a: ParamVector, b: ParamVector) -> float:
    """Cosine of the angle between a and b, in [-1, 1].

    Raises ZeroVectorError when either vector has zero norm.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    na = a.norm()
    nb = b.norm()
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine similarity undefined for zero vector")
    return float(a.values @ b.values) / (na * nb)


_PAIR_INDEX_CACHE: dict = {}


def _upper_pairs(n: int):
    # Index arrays for the strict upper triangle, reused across calls because
    # clustering evaluates similarity statistics on every insertion.
    pairs = _PAIR_INDEX_CACHE.get(n)
    if pairs is None:
        pairs = np.triu_indices(n, k=1)
        _PAIR_INDEX_CACHE[n] = pairs
    return pairs


def set_similarity(vectors: Iterable[ParamVector]) -> SimilarityStats:
    """Pairwise cosine statistics over an unordered set of vectors.

    Sets of size 0 or 1 have no pairs; by convention they are maximally
    coherent: mean 1.0, std 0.0, count 0.
    """
    vs = list(vectors)
    n = len(vs)
    if n <= 1:
        return SimilarityStats(1.0, 0.0, 0)
    if n == 2:
        return SimilarityStats(cosine_similarity(vs[0], vs[1]), 0.0, 1)
    mat = np.stack([v.values for v in vs])
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    gram = mat @ mat.T
    rows, cols = _upper_pairs(n)
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
    f: Callable[[ParamVector], float], x: ParamVector, h: float = 1e-5
) -> ParamVector:
    """Central-difference gradient of a scalar function at x.

    Independent oracle for analytic gradients: evaluates f at x +- h*e_i per
    coordinate. Raises NumericalError if any evaluation is non-finite.
    """
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    base = x.values
    grad = np.empty(x.dim)
    for i in range(x.dim):
        bumped = base.copy()
        bumped[i] = base[i] + h
        fp = float(f(ParamVector(bumped)))
        bumped[i] = base[i] - h
        fm = float(f(ParamVector(bumped)))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericalError(f"non-finite f at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return ParamVector(grad)
