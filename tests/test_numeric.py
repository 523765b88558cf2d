import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanforge.numeric import (
    MASK_VALUE,
    cosine_sim,
    finite_diff_grad,
    masked_log_softmax,
    max_rel_error,
    pooling_matrix,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_exp_ratios(self):
        out = softmax(np.array([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_shift_stability_and_mask(self):
        out = softmax(np.array([1000.0, 1000.0, MASK_VALUE]))
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-15)
        assert out[2] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([MASK_VALUE, MASK_VALUE]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([0.0, np.inf]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, vals):
        v = np.array(vals)
        out = softmax(v)
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = softmax(v + 3.7)
        assert np.max(np.abs(out - shifted)) <= 1e-12


class TestMaskedLogSoftmax:
    def test_matches_log_of_softmax(self):
        v = np.array([0.3, -1.2, MASK_VALUE, 2.0])
        lp = masked_log_softmax(v)
        p = softmax(v)
        live = v != MASK_VALUE
        np.testing.assert_allclose(np.exp(lp[live]), p[live], atol=1e-12)
        assert lp[2] == -np.inf


class TestCosine:
    def test_identical_unit_vectors(self):
        e1 = np.array([1.0, 0.0])
        assert cosine_sim(e1, e1) == 1.0

    def test_orthogonal(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_cos_45(self):
        got = cosine_sim(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(got - math.sqrt(0.5)) <= 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_sim(np.zeros(3), np.ones(3))

    @given(
        st.lists(st.floats(-10, 10).map(lambda x: 0.0 if abs(x) < 1e-6 else x), min_size=2, max_size=6),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_scale_invariance(self, vals, c):
        # magnitudes bounded away from the subnormal range: norms square entries
        u = np.array(vals)
        if np.linalg.norm(u) == 0:
            return
        v = u[::-1].copy() + 0.5
        if np.linalg.norm(v) == 0:
            return
        assert abs(cosine_sim(c * u, v) - cosine_sim(u, v)) <= 1e-12


class TestPoolingMatrix:
    def test_singleton_identity(self):
        rows = np.array([[2.0, 4.0]])
        np.testing.assert_array_equal(pooling_matrix(1, [0], [0]) @ rows, [[2.0, 4.0]])

    def test_midpoint(self):
        rows = np.array([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_allclose(pooling_matrix(2, [0], [1]) @ rows, [[1.0, 1.0]])

    def test_several_rows(self):
        # hand means of rows 0..1, 1..2 and 2..2
        rows = np.array([[1.0, 3.0], [3.0, 1.0], [5.0, 5.0]])
        got = pooling_matrix(3, [0, 1, 2], [1, 2, 2]) @ rows
        np.testing.assert_allclose(got, [[2.0, 2.0], [4.0, 3.0], [5.0, 5.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pooling_matrix(2, [1], [0])
        with pytest.raises(ValueError):
            pooling_matrix(2, [0, 1], [1, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pooling_matrix(2, [0], [2])
        with pytest.raises(ValueError):
            pooling_matrix(2, [-1], [0])

    def test_transpose_is_adjoint(self):
        # <P X, G> = <X, P^T G>: the transpose is the pooling's backward
        rng = np.random.default_rng(0)
        n, d = 9, 4
        starts = rng.integers(0, n, size=6)
        ends = np.minimum(starts + rng.integers(0, 4, size=6), n - 1)
        pool = pooling_matrix(n, starts, ends)
        x = rng.normal(size=(n, d))
        g = rng.normal(size=(6, d))
        assert abs(np.sum((pool @ x) * g) - np.sum(x * (pool.T @ g))) <= 1e-12


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), eps=1e-5)
        assert abs(g[0] - 6.0) <= 1e-8

    def test_bilinear(self):
        g = finite_diff_grad(lambda x: float(x[0] * x[1]), np.array([2.0, 5.0]), eps=1e-5)
        np.testing.assert_allclose(g, [5.0, 2.0], atol=1e-8)

    def test_quadratic_matches_exact_within_eps_squared(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        x = rng.normal(size=4)
        g = finite_diff_grad(lambda z: float(z @ a @ z), x, eps=1e-4)
        np.testing.assert_allclose(g, 2 * a @ x, atol=1e-6)

    def test_non_finite_rejected(self):
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(ValueError):
            finite_diff_grad(lambda x: float(np.log(x[0])), np.array([0.0]), eps=1e-5)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.array([1.0]), eps=0.0)


def test_max_rel_error_branches():
    assert max_rel_error(np.array([1.0]), np.array([1.0001])) == pytest.approx(1e-4, rel=1e-2)
    assert max_rel_error(np.array([1e-12]), np.array([0.0])) == 1e-12
