"""Data batches and the analytic linear regression model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import ParamVector


class EmptyBatchError(ValueError):
    """Loss/gradient/HVP asked for on a batch with no points."""


@dataclass(frozen=True)
class Batch:
    """A set of (x, y) points stored as a read-only (n, d) matrix and (n,) vector."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("Batch.x must be 2-D (n, dim)")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("Batch.y must be 1-D with one target per row of x")
        x = x.copy()
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @staticmethod
    def concat(batches: Sequence["Batch"]) -> "Batch":
        if not batches:
            raise ValueError("cannot concatenate zero batches")
        return Batch(
            np.concatenate([b.x for b in batches], axis=0),
            np.concatenate([b.y for b in batches], axis=0),
        )


def _check(params: ParamVector, batch: Batch) -> None:
    if len(batch) == 0:
        raise EmptyBatchError("empty batch")
    if batch.dim != params.dim:
        raise ValueError(f"batch dim {batch.dim} != params dim {params.dim}")


@dataclass(frozen=True)
class LinearRegressionModel:
    """y_hat = <params, x> with squared error, all derivatives in closed form."""

    dim: int

    def loss(self, params: ParamVector, batch: Batch) -> float:
        """Mean over the batch of (<params, x> - y)^2."""
        _check(params, batch)
        r = batch.x @ params.values - batch.y
        return float(np.mean(r * r))

    def gradient(self, params: ParamVector, batch: Batch) -> ParamVector:
        """Exact gradient of loss: (2/n) * X^T (X p - y)."""
        _check(params, batch)
        r = batch.x @ params.values - batch.y
        return ParamVector((2.0 / len(batch)) * (batch.x.T @ r))

    def hessian_vector_product(self, params: ParamVector, batch: Batch, v: ParamVector) -> ParamVector:
        """H v for the constant MSE Hessian H = (2/n) * X^T X.

        params is part of the signature; for a linear model the Hessian does
        not depend on it.
        """
        _check(params, batch)
        if v.dim != params.dim:
            raise ValueError(f"vector dim {v.dim} != params dim {params.dim}")
        return ParamVector((2.0 / len(batch)) * (batch.x.T @ (batch.x @ v.values)))
