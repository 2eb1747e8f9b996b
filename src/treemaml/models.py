"""Data batches, their stacked form, and the analytic linear regression model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class BatchStack:
    """One batch per task, in task order, as stacked arrays.

    blocks holds (X (k, n, d), Y (k, n)) pairs that cover the tasks in order.
    A batch sampled in one call is one block; `+` joins stacks without copying.
    """

    blocks: tuple

    def __add__(self, other: "BatchStack") -> "BatchStack":
        return BatchStack(self.blocks + other.blocks)

    def take(self, rows: np.ndarray) -> "BatchStack":
        """The batches at rows (ascending), block by block; a run of adjacent rows is a view."""
        blocks = []
        a = 0
        for X, Y in self.blocks:
            local = rows[(rows >= a) & (rows < a + len(X))] - a
            a += len(X)
            if not len(local):
                continue
            if local[-1] - local[0] + 1 == len(local):
                local = slice(local[0], local[-1] + 1)
            blocks.append((X[local], Y[local]))
        return BatchStack(tuple(blocks))


def _check(params: np.ndarray, batch: Batch) -> None:
    if len(batch) == 0:
        raise EmptyBatchError("empty batch")
    if params.shape != (batch.dim,):
        raise ValueError(f"batch dim {batch.dim} != params shape {params.shape}")


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
    single-batch methods take (d,) arrays and are the same formulas on a
    stack of one.
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

    def loss(self, params: np.ndarray, batch: Batch) -> float:
        """Mean over the batch of (<params, x> - y)^2."""
        _check(params, batch)
        return float(self.batch_loss(params[None], batch.x[None], batch.y[None])[0])

    def gradient(self, params: np.ndarray, batch: Batch) -> np.ndarray:
        """Exact gradient of loss: (2/n) * X^T (X p - y)."""
        _check(params, batch)
        return self.batch_gradient(params[None], batch.x[None], batch.y[None])[0]

    def hessian_vector_product(self, params: np.ndarray, batch: Batch, v: np.ndarray) -> np.ndarray:
        """H v for the constant MSE Hessian H = (2/n) * X^T X."""
        _check(params, batch)
        if v.shape != params.shape:
            raise ValueError(f"vector shape {v.shape} != params shape {params.shape}")
        return self.batch_hvp(params[None], batch.x[None], batch.y[None], v[None])[0]
