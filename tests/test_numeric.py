import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra.numpy import array_shapes, arrays

from spanforge.numeric import (
    MASK_VALUE,
    cosine_sim,
    finite_diff_grad,
    logsumexp,
    max_rel_error,
    pooling_matrix,
    region_softmax,
    row_softmax,
    unit_rows,
)


def probs(v):
    return region_softmax(v, 0, v.shape[-1] - 1)[0]


class TestSoftmax:
    """The probabilities that region_softmax returns."""

    def test_symmetry(self):
        np.testing.assert_allclose(probs(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_exp_ratios(self):
        out = probs(np.array([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_shift_stability_and_mask(self):
        out = region_softmax(np.array([1000.0, 1000.0, MASK_VALUE]), 0, 1)[0]
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-15)
        assert out[2] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            region_softmax(np.array([]), 0, 0)
        with pytest.raises(ValueError, match="outside"):
            region_softmax(np.zeros((2, 0)), 0, 0)
        with pytest.raises(ValueError, match="outside"):
            region_softmax(np.zeros(3), 1, 3)
        with pytest.raises(ValueError, match="outside"):
            region_softmax(np.zeros(3), -1, 1)

    def test_all_masked_rejected(self):
        # an empty region leaves nothing to normalise over
        with pytest.raises(ValueError, match="empty"):
            region_softmax(np.zeros(4), 2, 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            region_softmax(np.array([0.0, np.inf]), 0, 1)
        with pytest.raises(ValueError, match="finite"):
            region_softmax(np.array([0.0, np.nan]), 0, 1)
        with pytest.raises(ValueError, match="finite"):
            region_softmax(np.array([[0.0, 1.0], [0.0, -np.inf]]), 0, 1)

    def test_block_rows_read_only_the_region(self):
        # outside the region a row may hold anything, a non-finite value too
        block = np.array([[np.nan, 0.0, 1.0, np.inf], [7.0, 2.0, -1.0, -np.inf]])
        p, lp = region_softmax(block, 1, 2)
        for row, p_row, lp_row in zip(block, p, lp):
            p1d, lp1d = region_softmax(row[1:3], 0, 1)
            assert_bitwise(p_row, np.concatenate([[0.0], p1d, [0.0]]))
            assert_bitwise(lp_row, np.concatenate([[-np.inf], lp1d, [-np.inf]]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, vals):
        v = np.array(vals)
        out = probs(v)
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = probs(v + 3.7)
        assert np.max(np.abs(out - shifted)) <= 1e-12


class TestMaskedLogSoftmax:
    """The log-probabilities that region_softmax returns."""

    def test_matches_log_of_softmax(self):
        v = np.array([MASK_VALUE, 0.3, -1.2, 2.0, MASK_VALUE])
        p, lp = region_softmax(v, 1, 3)
        np.testing.assert_allclose(np.exp(lp[1:4]), p[1:4], atol=1e-12)
        assert lp[0] == lp[4] == -np.inf


# The formulas each helper replaced, kept verbatim as references: every
# helper must give their outputs bit for bit.


def reference_softmax(v):
    v = np.asarray(v, dtype=np.float64)
    live = v != MASK_VALUE
    out = np.zeros_like(v)
    e = np.exp(v[live] - v[live].max())
    out[live] = e / e.sum()
    return out


def reference_masked_log_softmax(v):
    v = np.asarray(v, dtype=np.float64)
    live = v != MASK_VALUE
    out = np.full(v.shape, -np.inf)
    x = v[live]
    m = x.max()
    out[live] = x - (m + np.log(np.exp(x - m).sum()))
    return out


def reference_attention_softmax(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_rank_weights(u):
    e = np.exp(u - u.max())
    return e / e.sum()


def reference_mml_logsumexp(lps):
    m = lps.max()
    return m + np.log(np.exp(lps - m).sum())


def reference_infonce_logsumexp(logits):
    m = logits.max(axis=1, keepdims=True)
    return m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def reference_mining_unit(pooled):
    norms = np.linalg.norm(pooled, axis=1)
    return pooled / norms[:, None]


def reference_infonce_unit(x):
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / norms, norms


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Magnitudes up to 1e5 overflow an unshifted exp.
LARGE = st.floats(-1e5, 1e5)
HEAD = st.lists(st.one_of(LARGE, st.floats(-3, 3)), min_size=1, max_size=40)
MATRIX = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9), elements=LARGE)


@st.composite
def head_region(draw):
    """A head vector holding MASK_VALUE outside a drawn region, and the region."""
    v = np.array(draw(HEAD))
    p0 = draw(st.integers(0, v.size - 1))
    p1 = draw(st.integers(p0, v.size - 1))
    v[:p0] = MASK_VALUE
    v[p1 + 1 :] = MASK_VALUE
    return v, p0, p1


class TestAgainstReplacedFormulas:
    @given(head_region())
    @settings(max_examples=200, deadline=None)
    def test_region_softmax(self, drawn):
        v, p0, p1 = drawn
        p, lp = region_softmax(v, p0, p1)
        assert_bitwise(p, reference_softmax(v))
        assert_bitwise(lp, reference_masked_log_softmax(v))

    @given(head_region(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_region_softmax_block_rows(self, drawn, data):
        # a second row over the same region gets its own 1-d bits
        v, p0, p1 = drawn
        other = np.array(data.draw(st.lists(st.one_of(LARGE, st.floats(-3, 3)), min_size=v.size, max_size=v.size)))
        block = np.stack([v, np.where(v == MASK_VALUE, MASK_VALUE, other)])
        p, lp = region_softmax(block, p0, p1)
        for row, p_row, lp_row in zip(block, p, lp):
            assert_bitwise(p_row, reference_softmax(row))
            assert_bitwise(lp_row, reference_masked_log_softmax(row))

    @given(MATRIX)
    @settings(max_examples=100, deadline=None)
    def test_row_softmax_attention(self, x):
        assert_bitwise(row_softmax(x), reference_attention_softmax(x))

    @given(st.lists(LARGE, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_row_softmax_rank_weights(self, vals):
        u = np.array(vals)
        assert_bitwise(row_softmax(u), reference_rank_weights(u))

    @given(st.lists(LARGE, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_logsumexp_vector(self, vals):
        lps = np.array(vals)
        got = logsumexp(lps)
        assert got.shape == (1,)
        assert_bitwise(got[0], reference_mml_logsumexp(lps))

    @given(MATRIX, st.data())
    @settings(max_examples=100, deadline=None)
    def test_logsumexp_rows_with_masked_entries(self, x, data):
        # InfoNCE masks other items' negatives with -inf; column 0 stays live
        masked = data.draw(arrays(bool, x.shape))
        masked[:, 0] = False
        x = np.where(masked, -np.inf, x)
        assert_bitwise(logsumexp(x), reference_infonce_logsumexp(x))

    @given(MATRIX.filter(lambda x: np.all(np.linalg.norm(x, axis=1) > 0.0)))
    @settings(max_examples=100, deadline=None)
    def test_unit_rows(self, x):
        unit, norms = unit_rows(x)
        assert_bitwise(unit, reference_mining_unit(x))
        ref_unit, ref_norms = reference_infonce_unit(x)
        assert_bitwise(unit, ref_unit)
        assert_bitwise(norms, ref_norms)


def test_unit_rows_refuses_zero_norm_row():
    with pytest.raises(ValueError, match="zero-norm"):
        unit_rows(np.array([[1.0, 2.0], [0.0, 0.0]]))


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
