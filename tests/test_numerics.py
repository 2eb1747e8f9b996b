import math

import numpy as np
import pytest

from treemaml.meta import MetaConfig, adapt_tree
from treemaml.models import BatchStack, LinearRegressionModel
from treemaml.numerics import (
    InsufficientSamplesError,
    NumericalError,
    ZeroVectorError,
    confidence_halfwidth_95,
    cosine_similarity,
    set_similarity,
)
from treemaml.tasks import TaskBatch

from finite_difference import finite_difference_gradient


def _adapt_from(omega, dim):
    """One MAML step from omega on a one-point task in dim dimensions."""
    batch = BatchStack(((np.eye(1, dim)[None], np.ones((1, 1))),))
    empty = BatchStack(((np.zeros((1, 0, dim)), np.zeros((1, 0))),))
    task = TaskBatch(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp),
                     np.zeros((1, 1), dtype=np.intp), np.zeros((1, dim)), batch, batch, empty)
    return adapt_tree(LinearRegressionModel(dim), omega, task,
                      MetaConfig(mode="maml", inner_steps=1))


def test_param_vector_rejects_bad_shapes():
    # a parameter vector is a flat (dim,) array; it is checked where it enters
    with pytest.raises(ValueError, match="shape"):
        _adapt_from([[1.0, 2.0]], 2)
    with pytest.raises(ValueError, match="shape"):
        _adapt_from([], 2)
    assert _adapt_from([1.0, 2.0], 2).omega.tolist() == [1.0, 2.0]


def test_param_vector_rejects_non_finite():
    with pytest.raises(NumericalError):
        _adapt_from([1.0, float("nan")], 2)
    with pytest.raises(NumericalError):
        _adapt_from([float("inf")], 1)


def test_cosine_similarity_known_values():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert cosine_similarity(e1, np.array([1.0, 0.0])) == 1.0
    assert cosine_similarity(e1, e2) == 0.0
    # oracle: 32 / sqrt(14 * 77), computed independently at high precision
    got = cosine_similarity(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert abs(got - 0.9746318461970762) < 1e-15


def test_cosine_similarity_properties():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = np.array(rng.normal(size=5))
        b = np.array(rng.normal(size=5))
        s = cosine_similarity(a, b)
        assert s == cosine_similarity(b, a)
        assert abs(s) <= 1.0 + 1e-12
        c = float(rng.uniform(0.1, 10.0))
        assert cosine_similarity(a, np.array(c * a)) == pytest.approx(1.0, abs=1e-12)
        assert cosine_similarity(a, np.array(-c * a)) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_similarity_is_deterministic():
    a = np.array([0.3, -1.7, 2.2])
    b = np.array([-0.4, 0.9, 1.1])
    assert cosine_similarity(a, b) == cosine_similarity(a, b)


def test_cosine_similarity_errors():
    a = np.array([1.0, 0.0])
    with pytest.raises(ZeroVectorError):
        cosine_similarity(a, np.array([0.0, 0.0]))
    with pytest.raises(ZeroVectorError):
        cosine_similarity(np.array([0.0, 0.0]), a)
    with pytest.raises(ValueError):
        cosine_similarity(a, np.array([1.0, 0.0, 0.0]))


def test_set_similarity_degenerate_sets():
    for vs in ([], [np.array([3.0, 4.0])]):
        stats = set_similarity(vs)
        assert stats.mean_pairwise == 1.0
        assert stats.std_pairwise == 0.0
        assert stats.count_pairs == 0


def test_set_similarity_identical_vectors():
    vs = [np.array([1.0, 0.0])] * 3
    stats = set_similarity(vs)
    assert stats.mean_pairwise == pytest.approx(1.0, abs=1e-12)
    assert stats.std_pairwise == pytest.approx(0.0, abs=1e-12)
    assert stats.count_pairs == 3


def test_set_similarity_oracle_triple():
    # {e1, e2, (e1+e2)/sqrt(2)}: pair sims are 0, sqrt(2)/2, sqrt(2)/2,
    # so mean = sqrt(2)/3 and population std = 1/3 (enumerated by hand).
    s = math.sqrt(0.5)
    vs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([s, s])]
    stats = set_similarity(vs)
    assert abs(stats.mean_pairwise - 0.47140452079103173) < 1e-12
    assert abs(stats.std_pairwise - 1.0 / 3.0) < 1e-12
    assert stats.count_pairs == 3


def test_set_similarity_matches_brute_force():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5, 8):
        vs = [np.array(rng.normal(size=4)) for _ in range(n)]
        stats = set_similarity(vs)
        sims = [
            cosine_similarity(vs[i], vs[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        assert stats.count_pairs == n * (n - 1) // 2 == len(sims)
        assert stats.mean_pairwise == pytest.approx(float(np.mean(sims)), abs=1e-15)
        assert stats.std_pairwise == pytest.approx(float(np.std(sims)), abs=1e-15)


def test_confidence_halfwidth_values():
    assert confidence_halfwidth_95([0.5, 0.5, 0.5, 0.5]) == 0.0
    # two-point oracle: 1.96 * std([0,1], ddof=1) / sqrt(2) = 0.98
    assert abs(confidence_halfwidth_95([0.0, 1.0]) - 0.98) < 1e-12


def test_confidence_halfwidth_needs_two_samples():
    with pytest.raises(InsufficientSamplesError):
        confidence_halfwidth_95([0.5])
    with pytest.raises(InsufficientSamplesError):
        confidence_halfwidth_95([])


def test_finite_difference_on_quadratic():
    f = lambda v: float(v @ v)
    g = finite_difference_gradient(f, np.array([1.0, 2.0]), h=1e-5)
    assert g.tolist() == pytest.approx([2.0, 4.0], rel=1e-9)


def test_finite_difference_on_constant():
    g = finite_difference_gradient(lambda v: 3.25, np.array([1.0, -1.0, 0.5]))
    assert g.tolist() == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_finite_difference_errors():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda v: 0.0, np.array([1.0]), h=0.0)
    with pytest.raises(NumericalError):
        finite_difference_gradient(lambda v: float("nan"), np.array([1.0]))
