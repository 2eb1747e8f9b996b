import numpy as np
import pytest

from treemaml.models import Batch, BatchStack, EmptyBatchError, LinearRegressionModel

from finite_difference import finite_difference_gradient


# The three model methods, each called on a model sized to params.
def loss(params, batch):
    return LinearRegressionModel(len(params)).loss(params, batch)


def gradient(params, batch):
    return LinearRegressionModel(len(params)).gradient(params, batch)


def hvp(params, batch, v):
    return LinearRegressionModel(len(params)).hessian_vector_product(params, batch, v)


def random_instance(rng, dim=3, n=6):
    params = rng.normal(size=dim)
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


def test_mse_loss_hand_values():
    # zero params, single point x=[1], y=2: residual -2, loss 4
    assert loss(np.array([0.0]), Batch([[1.0]], [2.0])) == 4.0


def test_mse_loss_perfect_fit_is_zero():
    rng = np.random.default_rng(0)
    w = rng.normal(size=4)
    x = rng.uniform(-3.0, 3.0, size=(7, 4))
    batch = Batch(x, x @ w)
    assert loss(w, batch) == 0.0


def test_mse_loss_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        params, batch = random_instance(rng)
        total = 0.0
        for xi, yi in zip(batch.x, batch.y):
            total += (float(np.dot(params, xi)) - yi) ** 2
        assert abs(loss(params, batch) - total / len(batch)) < 1e-12


def test_empty_batch_raises():
    p = np.array([1.0, 2.0])
    empty = Batch(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(EmptyBatchError):
        loss(p, empty)
    with pytest.raises(EmptyBatchError):
        gradient(p, empty)
    with pytest.raises(EmptyBatchError):
        hvp(p, empty, p)


def test_dim_mismatch_raises():
    p = np.array([1.0, 2.0, 3.0])
    b = Batch(np.ones((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        loss(p, b)
    with pytest.raises(ValueError):
        hvp(np.array([1.0, 1.0]), b, p)


def test_mse_gradient_hand_values():
    g = gradient(np.array([1.0, 1.0]), Batch([[1.0, 0.0]], [0.0]))
    assert g.tolist() == [2.0, 0.0]
    # perfect fit has zero gradient
    rng = np.random.default_rng(2)
    w = rng.normal(size=3)
    x = rng.uniform(-1.0, 1.0, size=(5, 3))
    assert np.linalg.norm(gradient(w, Batch(x, x @ w))) == 0.0


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        params, batch = random_instance(rng)
        fd = finite_difference_gradient(lambda p: loss(p, batch), params)
        g = gradient(params, batch)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-6


def test_mse_gradient_linearity_over_batches():
    # gradient over a union of batches is the size-weighted average
    rng = np.random.default_rng(4)
    params, b1 = random_instance(rng, n=4)
    _, b2 = random_instance(rng, n=8)
    g1 = gradient(params, b1)
    g2 = gradient(params, b2)
    combined = gradient(params, Batch(np.concatenate([b1.x, b2.x]), np.concatenate([b1.y, b2.y])))
    weighted = (len(b1) * g1 + len(b2) * g2) / (len(b1) + len(b2))
    assert np.allclose(combined, weighted, atol=1e-12)


def test_hvp_hand_values():
    p = np.array([0.5, -0.5, 1.0])
    basis = Batch(np.eye(3), np.zeros(3))
    v = np.array([1.0, 1.0, 1.0])
    # H = (2/3) I on the standard-basis batch
    got = hvp(p, basis, v)
    assert got.tolist() == pytest.approx([2.0 / 3.0] * 3, abs=1e-15)
    zero = hvp(p, basis, np.zeros(3))
    assert np.linalg.norm(zero) == 0.0


def test_hvp_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params, batch = random_instance(rng)
        v = rng.normal(size=len(params))
        h = 1e-6
        gp = gradient(params + h * v, batch)
        gm = gradient(params - h * v, batch)
        fd = (gp - gm) / (2.0 * h)
        got = hvp(params, batch, v)
        rel = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


def test_hvp_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(20):
        params, batch = random_instance(rng)
        u = rng.normal(size=len(params))
        v = rng.normal(size=len(params))
        hu = hvp(params, batch, u)
        hv = hvp(params, batch, v)
        assert abs(u @ hv - v @ hu) < 1e-10


def test_loss_is_convex_along_segments():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p0, batch = random_instance(rng)
        p1 = rng.normal(size=len(p0))
        for t in (0.25, 0.5, 0.75):
            mid = (1 - t) * p0 + t * p1
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


def test_batch_stack_take_merges_views_that_sit_back_to_back():
    # blocks that are views of one buffer holding their rows in another order
    # than the tasks', as a draw laid out for its reader is
    rng = np.random.default_rng(6)
    X, Y = rng.normal(size=(6, 3, 2)), rng.normal(size=(6, 3))
    at = [4, 5, 0, 2, 3, 1]  # task i's row in the buffer
    runs = [(0, 2), (2, 3), (3, 5), (5, 6)]  # the tasks of each block
    stack = BatchStack(tuple((X[at[a]:at[a] + b - a], Y[at[a]:at[a] + b - a]) for a, b in runs),
                       tuple((X, Y, at[a]) for a, _ in runs))
    other = BatchStack(((rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3))),))
    joint = stack + other
    X_all = np.concatenate((X[at], other.blocks[0][0]))  # row i task i's
    Y_all = np.concatenate((Y[at], other.blocks[0][1]))
    for rows in ([2, 5, 3, 4, 0, 1], [2, 5, 3], [5, 3, 4], [6, 2, 5, 3, 7], [0, 2], [1, 0],
                 [4, 3], [2, 2], [3, 4, 0, 1], [7, 6]):
        taken = joint.take(np.array(rows))
        assert np.array_equal(np.concatenate([x for x, _ in taken.blocks]), X_all[rows]), rows
        assert np.array_equal(np.concatenate([y for _, y in taken.blocks]), Y_all[rows]), rows
    # tasks 2, 5, 3 and 4 sit back to back at rows 0..3, though in three
    # blocks: they come out as one view of the buffer
    (X_view, Y_view), = joint.take(np.array([2, 5, 3, 4])).blocks
    assert X_view.base is X and Y_view.base is Y and np.array_equal(X_view, X[:4])
    # another buffer's row between them splits the view, and keeps its place
    (a, _), (b, _), (c, _) = joint.take(np.array([2, 5, 6, 3, 4])).blocks
    assert a.base is X and np.array_equal(a, X[:2]) and c.base is X and np.array_equal(c, X[2:4])
    assert np.shares_memory(b, other.blocks[0][0])
    # rows of one block out of the buffer's order are copied, as are repeats
    for rows in ([4, 3], [2, 2]):
        (x, _), = joint.take(np.array(rows)).blocks
        assert not np.shares_memory(x, X)
    # rows of several blocks out of the buffer's order stay apart, in order
    (x5, _), (x2, _) = joint.take(np.array([5, 2])).blocks
    assert np.array_equal(x5, X[1:2]) and np.array_equal(x2, X[0:1])


def test_batch_stack_take_gathers_rows_across_blocks():
    rng = np.random.default_rng(5)
    batches = [Batch(rng.normal(size=(3, 2)), rng.normal(size=3)) for _ in range(6)]
    def stacked(run):
        return BatchStack(((np.stack([b.x for b in run]), np.stack([b.y for b in run])),))

    stack = stacked(batches[:4]) + stacked(batches[4:])
    for rows in ([0, 2, 5], [1, 2, 3], [4], [0, 1, 2, 3, 4, 5], [5, 0, 2], [4, 1, 2, 3]):
        taken = stack.take(np.array(rows))
        X = np.concatenate([x for x, _ in taken.blocks])
        Y = np.concatenate([y for _, y in taken.blocks])
        assert np.array_equal(X, np.stack([batches[i].x for i in rows]))
        assert np.array_equal(Y, np.stack([batches[i].y for i in rows]))
    # adjacent rows inside one block are a view of it, not a copy
    (X, _), = stack.take(np.array([1, 2, 3])).blocks
    assert np.shares_memory(X, stack.blocks[0][0])
    # rows keep their order: a run from one block is one block of the result
    (X4, _), (X123, _) = stack.take(np.array([4, 1, 2, 3])).blocks
    assert np.shares_memory(X4, stack.blocks[1][0]) and np.shares_memory(X123, stack.blocks[0][0])
