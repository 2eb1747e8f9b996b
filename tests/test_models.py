import numpy as np
import pytest

from treemaml.models import Batch, EmptyBatchError, LinearRegressionModel
from treemaml.numerics import ParamVector, finite_difference_gradient


# The three model methods, each called on a model sized to params.
def loss(params, batch):
    return LinearRegressionModel(params.dim).loss(params, batch)


def gradient(params, batch):
    return LinearRegressionModel(params.dim).gradient(params, batch)


def hvp(params, batch, v):
    return LinearRegressionModel(params.dim).hessian_vector_product(params, batch, v)


def random_instance(rng, dim=3, n=6):
    params = ParamVector(rng.normal(size=dim))
    x = rng.uniform(-2.0, 2.0, size=(n, dim))
    y = rng.normal(size=n)
    return params, Batch(x, y)


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros(3), np.zeros(3))  # x must be 2-D
    with pytest.raises(ValueError):
        Batch(np.zeros((3, 2)), np.zeros(4))  # length mismatch
    with pytest.raises(ValueError):
        Batch(np.zeros((3, 2)), np.zeros((3, 1)))  # y must be 1-D


def test_batch_is_read_only():
    b = Batch(np.ones((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        b.x[0, 0] = 5.0
    with pytest.raises(ValueError):
        b.y[0] = 5.0


def test_batch_helpers():
    b = Batch([[1.0, 2.0], [4.0, 5.0]], [3.0, 6.0])
    assert len(b) == 2
    assert b.dim == 2
    assert b.y.tolist() == [3.0, 6.0]
    c = Batch.concat([b, b])
    assert len(c) == 4
    assert c.x[2].tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        Batch.concat([])


def test_mse_loss_hand_values():
    # zero params, single point x=[1], y=2: residual -2, loss 4
    assert loss(ParamVector([0.0]), Batch([[1.0]], [2.0])) == 4.0


def test_mse_loss_perfect_fit_is_zero():
    rng = np.random.default_rng(0)
    w = rng.normal(size=4)
    x = rng.uniform(-3.0, 3.0, size=(7, 4))
    batch = Batch(x, x @ w)
    assert loss(ParamVector(w), batch) == 0.0


def test_mse_loss_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        params, batch = random_instance(rng)
        total = 0.0
        for xi, yi in zip(batch.x, batch.y):
            total += (float(np.dot(params.values, xi)) - yi) ** 2
        assert abs(loss(params, batch) - total / len(batch)) < 1e-12


def test_empty_batch_raises():
    p = ParamVector([1.0, 2.0])
    empty = Batch(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(EmptyBatchError):
        loss(p, empty)
    with pytest.raises(EmptyBatchError):
        gradient(p, empty)
    with pytest.raises(EmptyBatchError):
        hvp(p, empty, p)


def test_dim_mismatch_raises():
    p = ParamVector([1.0, 2.0, 3.0])
    b = Batch(np.ones((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        loss(p, b)
    with pytest.raises(ValueError):
        hvp(ParamVector([1.0, 1.0]), b, p)


def test_mse_gradient_hand_values():
    g = gradient(ParamVector([1.0, 1.0]), Batch([[1.0, 0.0]], [0.0]))
    assert g.to_list() == [2.0, 0.0]
    # perfect fit has zero gradient
    rng = np.random.default_rng(2)
    w = rng.normal(size=3)
    x = rng.uniform(-1.0, 1.0, size=(5, 3))
    assert gradient(ParamVector(w), Batch(x, x @ w)).norm() == 0.0


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        params, batch = random_instance(rng)
        fd = finite_difference_gradient(lambda p: loss(p, batch), params)
        g = gradient(params, batch)
        rel = np.linalg.norm(g.values - fd.values) / max(np.linalg.norm(fd.values), 1e-12)
        assert rel < 1e-6


def test_mse_gradient_linearity_over_batches():
    # gradient over a union of batches is the size-weighted average
    rng = np.random.default_rng(4)
    params, b1 = random_instance(rng, n=4)
    _, b2 = random_instance(rng, n=8)
    g1 = gradient(params, b1).values
    g2 = gradient(params, b2).values
    combined = gradient(params, Batch.concat([b1, b2])).values
    weighted = (len(b1) * g1 + len(b2) * g2) / (len(b1) + len(b2))
    assert np.allclose(combined, weighted, atol=1e-12)


def test_hvp_hand_values():
    p = ParamVector([0.5, -0.5, 1.0])
    basis = Batch(np.eye(3), np.zeros(3))
    v = ParamVector([1.0, 1.0, 1.0])
    # H = (2/3) I on the standard-basis batch
    got = hvp(p, basis, v)
    assert got.to_list() == pytest.approx([2.0 / 3.0] * 3, abs=1e-15)
    zero = hvp(p, basis, ParamVector(np.zeros(3)))
    assert zero.norm() == 0.0


def test_hvp_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params, batch = random_instance(rng)
        v = ParamVector(rng.normal(size=params.dim))
        h = 1e-6
        gp = gradient(ParamVector(params.values + h * v.values), batch).values
        gm = gradient(ParamVector(params.values - h * v.values), batch).values
        fd = (gp - gm) / (2.0 * h)
        got = hvp(params, batch, v).values
        rel = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


def test_hvp_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(20):
        params, batch = random_instance(rng)
        u = ParamVector(rng.normal(size=params.dim))
        v = ParamVector(rng.normal(size=params.dim))
        hu = hvp(params, batch, u)
        hv = hvp(params, batch, v)
        assert abs(u.values @ hv.values - v.values @ hu.values) < 1e-10


def test_loss_is_convex_along_segments():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p0, batch = random_instance(rng)
        p1 = ParamVector(rng.normal(size=p0.dim))
        for t in (0.25, 0.5, 0.75):
            mid = ParamVector((1 - t) * p0.values + t * p1.values)
            chord = (1 - t) * loss(p0, batch) + t * loss(p1, batch)
            assert loss(mid, batch) <= chord + 1e-10



def test_batch_copies_unless_nothing_can_write_through_the_array():
    owner = np.ones((2, 2))
    view = owner.view()
    view.setflags(write=False)
    b = Batch(view, np.ones(2))
    owner[0, 0] = 5.0  # the Batch holds a copy, not the view
    assert b.x[0, 0] == 1.0
    owner.setflags(write=False)
    frozen_view = owner[:1]
    assert Batch(frozen_view, np.ones(1)).x is frozen_view
