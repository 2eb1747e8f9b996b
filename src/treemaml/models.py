"""Data batches, their stacked form, and the analytic linear regression model."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import ParamVector


class EmptyBatchError(ValueError):
    """Loss/gradient/HVP asked for on a batch with no points."""


def _frozen(a) -> np.ndarray:
    # A float64 array that nothing can write through, such as a view of the
    # sampler's frozen buffers, is taken as it is; anything else is copied.
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable:
        base = a.base
        if base is None or (isinstance(base, np.ndarray) and not base.flags.writeable):
            return a
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Batch:
    """A set of (x, y) points stored as a read-only (n, d) matrix and (n,) vector."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _frozen(self.x)
        y = _frozen(self.y)
        if x.ndim != 2:
            raise ValueError("Batch.x must be 2-D (n, dim)")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("Batch.y must be 1-D with one target per row of x")
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


@dataclass(frozen=True)
class BatchStack:
    """One batch per task, in task order, as stacked arrays.

    blocks holds (X (k, n, d), Y (k, n)) pairs that cover the tasks in order.
    A batch sampled in one call is one block; `+` joins stacks without copying.
    """

    blocks: tuple

    @staticmethod
    def of(batches: Sequence[Batch]) -> "BatchStack":
        """Stack runs of consecutive equal-size batches (a copy, except for a run of one)."""
        blocks = []
        for _, group in itertools.groupby(batches, key=len):
            run = list(group)
            if len(run) == 1:
                blocks.append((run[0].x[None], run[0].y[None]))
            else:
                blocks.append((np.stack([b.x for b in run]), np.stack([b.y for b in run])))
        return BatchStack(tuple(blocks))

    def __add__(self, other: "BatchStack") -> "BatchStack":
        return BatchStack(self.blocks + other.blocks)


def _check(params: ParamVector, batch: Batch) -> None:
    if len(batch) == 0:
        raise EmptyBatchError("empty batch")
    if batch.dim != params.dim:
        raise ValueError(f"batch dim {batch.dim} != params dim {params.dim}")


def _check_stack(P: np.ndarray, X: np.ndarray) -> None:
    if X.shape[1] == 0:
        raise EmptyBatchError("empty batch")
    if X.shape[2] != P.shape[1]:
        raise ValueError(f"batch dim {X.shape[2]} != params dim {P.shape[1]}")


@dataclass(frozen=True)
class LinearRegressionModel:
    """y_hat = <params, x> with squared error, all derivatives in closed form.

    The batch_* methods take one task per row: P (m, d) parameters, X (m, n, d)
    inputs and Y (m, n) targets. They are stacked matmuls, which give the
    per-task matrix-vector products bit for bit (np.einsum does not). The
    single-batch methods are the same formulas on a stack of one.
    """

    dim: int

    def batch_loss(self, P: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """(m,) per-task mean of (<P_i, x> - y)^2."""
        _check_stack(P, X)
        R = (X @ P[:, :, None])[..., 0] - Y
        return np.mean(R * R, axis=1)

    def batch_gradient(self, P: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """(m, d) per-task gradients (2/n) * X_i^T (X_i P_i - Y_i)."""
        _check_stack(P, X)
        R = (X @ P[:, :, None])[..., 0] - Y
        return (2.0 / X.shape[1]) * (R[:, None, :] @ X)[:, 0, :]

    def batch_hvp(self, P: np.ndarray, X: np.ndarray, Y: np.ndarray, V: np.ndarray) -> np.ndarray:
        """(m, d) per-task H_i V_i for the constant MSE Hessian H_i = (2/n) * X_i^T X_i.

        P and Y are part of the signature; for a linear model the Hessian
        depends on neither.
        """
        _check_stack(P, X)
        XV = (X @ V[:, :, None])[..., 0]
        return (2.0 / X.shape[1]) * (XV[:, None, :] @ X)[:, 0, :]

    def loss(self, params: ParamVector, batch: Batch) -> float:
        """Mean over the batch of (<params, x> - y)^2."""
        _check(params, batch)
        return float(self.batch_loss(params.values[None], batch.x[None], batch.y[None])[0])

    def gradient(self, params: ParamVector, batch: Batch) -> ParamVector:
        """Exact gradient of loss: (2/n) * X^T (X p - y)."""
        _check(params, batch)
        return ParamVector(self.batch_gradient(params.values[None], batch.x[None], batch.y[None])[0])

    def hessian_vector_product(self, params: ParamVector, batch: Batch, v: ParamVector) -> ParamVector:
        """H v for the constant MSE Hessian H = (2/n) * X^T X."""
        _check(params, batch)
        if v.dim != params.dim:
            raise ValueError(f"vector dim {v.dim} != params dim {params.dim}")
        return ParamVector(
            self.batch_hvp(params.values[None], batch.x[None], batch.y[None], v.values[None])[0]
        )
